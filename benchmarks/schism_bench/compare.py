"""Compare two results.json files (or two sets of runs) metric by metric.

    python3 benchmarks/schism_bench/compare.py <a/results.json> <b/results.json>

``a`` is the base, ``b`` the candidate.  Either side may name several files
separated by commas — a set of runs of one commit; the side's value is then
the median over its runs and its spread is taken over the runs, otherwise over
the samples (rounds or serving windows) of the single run — which overstates
the noise of that run's median, so compare sets of three or more runs.  One row per (workload, end-to-end metric): both
medians, the ratio b/a, each side's spread (inter-quartile distance as a share
of the median), and a verdict:

* ``unresolved``   a side's spread exceeds the metric's bound: no claim either way;
* ``worse``        b is worse than a by more than the bound;
* ``better``       b is better than a by more than both spreads;
* ``within-bound`` anything else.

Exact counts (plan fingerprint, selected strategy, distributed fractions, cut
weight) are recorded per round under the sub-seed its inputs came from; rounds
both sides ran on the same sub-seed must agree on them.  ``--layers`` adds the
per-layer metrics as unjudged rows.  Exits non-zero on any ``worse`` row or
differing exact count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from schism_bench import spec  # noqa: E402
from schism_bench.stats import spread  # noqa: E402


def verdict(metric: spec.Metric, a: float, b: float, spread_a: float, spread_b: float) -> str:
    """Judge candidate median ``b`` against base median ``a``."""
    noise = max(spread_a, spread_b)
    if noise > metric.bound:
        return "unresolved"
    if a == 0:
        return "within-bound" if b == 0 else "unresolved"
    change = (b - a) / abs(a)
    worse_by = change if metric.better == "lower" else -change
    if worse_by > metric.bound:
        return "worse"
    if -worse_by > noise:
        return "better"
    return "within-bound"


class Side:
    """One side of the comparison: one results.json or a set of them."""

    def __init__(self, paths: str) -> None:
        self.runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths.split(",")]

    def metric(self, workload: str, section: str, name: str) -> tuple[float, float] | None:
        """(median, spread) of one metric, or ``None`` when the side lacks it."""
        entries = [
            run["workloads"].get(workload, {}).get(section, {}).get(name) for run in self.runs
        ]
        entries = [entry for entry in entries if entry and entry["rounds"]]
        if not entries:
            return None
        if len(entries) == 1:
            return entries[0]["value"], spread(entries[0]["rounds"])
        values = [entry["value"] for entry in entries]
        return median(values), spread(values)

    def exact(self, workload: str) -> dict[tuple[str, str], set[str]]:
        """(sub-seed, name) -> the values seen for that exact count."""
        seen: dict[tuple[str, str], set[str]] = {}
        for run in self.runs:
            passes = run["workloads"].get(workload, {}).get("passes", {})
            for payload in passes.values():
                for inputs, counts in payload["info"].get("exact", {}).items():
                    for name, value in counts.items():
                        seen.setdefault((inputs, name), set()).add(json.dumps(value))
        return seen


def compare(a: Side, b: Side, layers: bool = False) -> tuple[list[str], int]:
    """Rendered rows and the number of failing ones."""
    rows = [
        f"{'workload':<20} {'metric':<40} {'a':>12} {'b':>12} {'b/a':>7} "
        f"{'spread a':>9} {'spread b':>9}  verdict"
    ]
    failing = 0
    sections = [("end_to_end", spec.END_TO_END)]
    if layers:
        sections.append(("per_layer", spec.PER_LAYER))
    for workload in spec.ALL_WORKLOADS:
        for section, metrics in sections:
            for metric in metrics:
                left = a.metric(workload, section, metric.name)
                right = b.metric(workload, section, metric.name)
                if left is None or right is None:
                    continue
                judged = (
                    verdict(metric, left[0], right[0], left[1], right[1])
                    if metric.bound is not None
                    else "-"
                )
                failing += judged == "worse"
                ratio = f"{right[0] / left[0]:7.3f}" if left[0] else "    n/a"
                rows.append(
                    f"{workload:<20} {metric.name:<40} {left[0]:>12.5g} {right[0]:>12.5g} {ratio} "
                    f"{left[1]:>9.3f} {right[1]:>9.3f}  {judged}"
                )
        left_exact, right_exact = a.exact(workload), b.exact(workload)
        shared = sorted(set(left_exact) & set(right_exact))
        differing = [
            key for key in shared if len(left_exact[key] | right_exact[key]) != 1
        ]
        failing += len(differing)
        if shared:
            detail = ", ".join(f"{name}@{inputs}" for inputs, name in differing)
            rows.append(
                f"{workload:<20} {'exact counts (' + str(len(shared)) + ' shared)':<40} "
                f"{'DIFFER: ' + detail if differing else 'identical'}"
            )
    return rows, failing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base results.json (comma-separated for a set of runs)")
    parser.add_argument("b", help="candidate results.json (comma-separated for a set of runs)")
    parser.add_argument("--layers", action="store_true", help="also list per-layer metrics")
    args = parser.parse_args(argv)
    rows, failing = compare(Side(args.a), Side(args.b), args.layers)
    print("\n".join(rows))
    print(f"{failing} failing row(s)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
