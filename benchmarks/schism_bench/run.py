"""schism_bench entry point.

Driver mode (the ``BENCHMARK.json`` contract), one workload, one pass::

    python3 benchmarks/schism_bench/run.py --workload tpcc_e2e --seed 0 --seconds 22 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Full mode, every workload, measured pass then traced + audited pass::

    python3 benchmarks/schism_bench/run.py --seed 0 --out <dir>

also writes ``<dir>/results.json`` and ``<dir>/trace-<workload>.json``.

Either way each (workload, pass) runs in its own child session under a hard
timeout, ``leftover_processes <n>`` is printed, and the exit code is non-zero
on any failed check, failed child or survivor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# `schism_bench` is importable from benchmarks/, `repro` from src/ (spawned
# partition workers inherit this sys.path).
for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from schism_bench import procs, spec  # noqa: E402

#: hard per-child limit; the contract allows a run 180 s.
CHILD_TIMEOUT_S = 170.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (driver mode)")
    parser.add_argument("--seed", type=int, default=0, help="the only workload argument")
    parser.add_argument("--seconds", type=float, default=None, help="measured span the sizes aim at")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", default=None, help="full mode: directory for results.json and traces")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser


# -- child -------------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process and write its payload to ``--result``."""
    procs.die_with_parent(Path(args.workdir))
    from schism_bench.workloads import run_workload  # imports the program under test

    payload = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, Path(args.workdir)
    )
    Path(args.result).write_text(json.dumps(payload), encoding="utf-8")
    return 0


# -- parent ------------------------------------------------------------------------------
class Session:
    """Runs (workload, pass) children and keeps the tally the exit code needs."""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.leftover = 0
        self.failures: list[str] = []
        self.signum: int | None = None

    def run(self, workload: str, trace: int) -> dict | None:
        """One child; returns its payload, or ``None`` if it produced none."""
        workdir = HERE / ".work" / f"{os.getpid()}-{workload}-{trace}"
        workdir.mkdir(parents=True, exist_ok=True)
        result = workdir / "result.json"
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", workload, "--seed", str(self.seed), "--seconds", str(self.seconds),
            "--trace", str(trace), "--workdir", str(workdir), "--result", str(result),
        ]
        if self.smoke:
            argv.append("--smoke")
        try:
            returncode, leftover, self.signum = procs.run_child(argv, CHILD_TIMEOUT_S)
            self.leftover += leftover
            payload = None
            if returncode == 0 and result.exists():
                payload = json.loads(result.read_text(encoding="utf-8"))
            else:
                self.failures.append(f"{workload} trace={trace}: child exit {returncode}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run is using it
        if payload is not None and not payload["correct"]:
            for check in payload["checks"]:
                if not check["ok"]:
                    self.failures.append(
                        f"{workload} trace={trace}: check failed: {check['name']} {check['detail']}"
                    )
        return payload

    def finish(self) -> int:
        """Print the tally; the process exit code."""
        print(f"leftover_processes {self.leftover}")
        for failure in self.failures:
            print(f"FAILED {failure}")
        sys.stdout.flush()
        if self.signum is not None:
            return 128 + self.signum
        return 1 if self.failures or self.leftover else 0


def _print_metrics(workload: str, payload: dict) -> None:
    for name, metric in payload["metrics"].items():
        rounds = metric["rounds"]
        detail = f"  values={len(rounds)} samples={metric['samples']}" if rounds else "  n/a"
        print(f"{workload:<20} {name:<44} {metric['value']:>16.6g} {metric['unit']:<9}{detail}")
    print(
        f"{workload:<20} attempted {payload['attempted']} failed {payload['failed']} "
        f"correct {payload['correct']}"
    )


def driver_mode(args: argparse.Namespace, session: Session) -> int:
    """One workload, one pass; the contract's last-line JSON."""
    payload = session.run(args.workload, args.trace)
    if payload is not None:
        _print_metrics(args.workload, payload)
    code = session.finish()
    # No result line for a run that was cut short or left something behind
    # (the exit code is already non-zero in each of these cases).
    if payload is not None and session.signum is None and not session.leftover:
        print(json.dumps({
            "correct": payload["correct"],
            "attempted": payload["attempted"],
            "failed": payload["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in payload["metrics"].items()
            },
        }))
    return code


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def full_mode(args: argparse.Namespace, session: Session) -> int:
    """Every workload, both passes; results.json and one trace file each."""
    out_dir = Path(args.out) if args.out else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "benchmark": "schism_bench",
        "claim": None,
        "seed": session.seed,
        "seconds": session.seconds,
        "smoke": session.smoke,
        "git_commit": _git_commit(),
        "workloads": {},
    }
    for workload in spec.ALL_WORKLOADS:
        row: dict = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if session.signum is not None:
                break
            payload = session.run(workload, trace)
            if payload is None:
                continue
            _print_metrics(workload, payload)
            if trace:
                spans = {name: payload.pop(name) for name in ("spans", "program_spans")}
                (out_dir / f"trace-{workload}.json").write_text(
                    json.dumps({"workload": workload, "seed": session.seed, **spans}),
                    encoding="utf-8",
                )
            row[key] = payload.pop("metrics")
            row.setdefault("passes", {})[key] = payload
        results["workloads"][workload] = row
    results["leftover_processes"] = session.leftover
    results["failures"] = session.failures
    (out_dir / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"wrote {out_dir / 'results.json'}")
    return session.finish()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    if args.workload is not None and args.workload not in spec.ALL_WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(spec.ALL_WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    procs.install_signal_handlers()
    session = Session(args.seed, args.seconds, args.smoke)
    try:
        if args.workload is not None:
            return driver_mode(args, session)
        return full_mode(args, session)
    except procs.Terminated as stop:  # between children
        return 128 + stop.signum


if __name__ == "__main__":
    sys.exit(main())
