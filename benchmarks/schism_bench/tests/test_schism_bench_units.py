"""Fast tier-1 units of the benchmark's own arithmetic and contract."""

from __future__ import annotations

import json
import re
from pathlib import Path
from statistics import median

import pytest

from schism_bench import compare, spec
from schism_bench.spans import SpanRecorder, covered, self_times
from schism_bench.stats import interquartile_mean, percentile, spread

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- nearest-rank percentiles ------------------------------------------------------------
def test_percentile_is_nearest_rank_and_observed():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    # 5 samples: ceil(0.99 * 5) = 5 -> the slowest one.
    assert percentile([3, 1, 2, 5, 4], 0.99) == 5
    assert percentile([3, 1, 2, 5, 4], 0.2) == 1


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert median(values) == 12.0
    assert spread(values) == pytest.approx((13.5 - 10.5) / 12.0)
    assert spread([5.0]) == 0.0
    assert spread([0.0, 0.0, 0.0]) == 0.0


def test_interquartile_mean_trims_a_quarter_from_each_end():
    assert interquartile_mean([1, 2, 3, 4, 5, 6, 7, 100]) == pytest.approx(4.5)
    assert interquartile_mean([9.0]) == 9.0
    # 5 values: one trimmed from each end.
    assert interquartile_mean([50, 1, 2, 3, 4]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        interquartile_mean([])


# -- span self time ----------------------------------------------------------------------
def _span(span_id, parent, start, end):
    return {"id": span_id, "name": f"s{span_id}", "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_child_coverage_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps span 2: the union covers [1, 6]
        _span(4, 2, 1.5, 2.0),  # grandchild: not subtracted from the root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_recorder_links_parents_per_thread_and_shares_trace_id():
    recorder = SpanRecorder()
    with recorder.span("txn", trace="txn-7") as root:
        with recorder.span("route"):
            pass
        with recorder.span("request", partition=2):
            pass
    by_name = {span["name"]: span for span in recorder.spans}
    assert by_name["route"]["parent"] == root["id"]
    assert by_name["request"]["trace"] == "txn-7"
    assert by_name["request"]["partition"] == 2
    assert by_name["txn"]["parent"] is None
    own = self_times(recorder.spans)
    assert 0.0 <= own[root["id"]] <= by_name["txn"]["end"] - by_name["txn"]["start"]


def test_recorder_marks_spans_that_raised():
    recorder = SpanRecorder()
    with pytest.raises(KeyError):
        with recorder.span("request"):
            raise KeyError("boom")
    assert recorder.spans[0]["error"] == "KeyError"


# -- compare verdicts --------------------------------------------------------------------
def test_compare_verdicts():
    lower = spec.Metric("op_iqm_ms", "ms", "lower", 0.10)
    higher = spec.Metric("ops_per_s", "1/s", "higher", 0.10)
    assert compare.verdict(lower, 10.0, 10.5, 0.02, 0.02) == "within-bound"
    assert compare.verdict(lower, 10.0, 11.5, 0.02, 0.02) == "worse"
    assert compare.verdict(lower, 10.0, 9.0, 0.02, 0.03) == "better"
    assert compare.verdict(lower, 10.0, 9.9, 0.02, 0.03) == "within-bound"
    assert compare.verdict(lower, 10.0, 20.0, 0.02, 0.15) == "unresolved"
    assert compare.verdict(higher, 100.0, 85.0, 0.01, 0.01) == "worse"
    assert compare.verdict(higher, 100.0, 120.0, 0.01, 0.01) == "better"
    assert compare.verdict(higher, 100.0, 95.0, 0.01, 0.01) == "within-bound"


def _results(tmp_path, name, ops, fingerprint="abc"):
    payload = {
        "seed": 0,
        "workloads": {
            "tpcc_e2e": {
                "end_to_end": {
                    "ops_per_s": {"value": median(ops), "unit": "1/s", "rounds": ops, "samples": 3}
                },
                "passes": {"end_to_end": {"info": {"exact": {"0": {"plan_fingerprint": fingerprint}}}}},
            }
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    base = _results(tmp_path, "a.json", [100.0, 101.0, 99.0])
    same = _results(tmp_path, "b.json", [100.5, 99.5, 101.5])
    slow = _results(tmp_path, "c.json", [70.0, 71.0, 69.0])
    moved = _results(tmp_path, "d.json", [100.0, 101.0, 99.0], fingerprint="xyz")
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([base, moved]) == 1
    assert "DIFFER: plan_fingerprint@0" in capsys.readouterr().out
    # A set of runs per side: the median over runs is compared.
    assert compare.main([f"{base},{same}", f"{same},{base}"]) == 0


# -- BENCHMARK.json <-> spec <-> results -------------------------------------------------
def test_benchmark_json_matches_spec_and_contract_limits():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert len(text.encode("utf-8")) <= 64 * 1024
    contract = json.loads(text)
    assert contract == spec.benchmark_json()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    for path in contract["paths"]:
        assert (ROOT / path).is_dir()
    assert all(len(part) <= 200 for part in contract["command"]) and len(contract["command"]) <= 32


def test_result_payload_names_agree_with_benchmark_json():
    from schism_bench.workloads import Outcome

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    outcome = Outcome("tpcc_e2e", 0, False, spec.sizes_for("tpcc_e2e", spec.RUN_SECONDS))
    measured = outcome.payload(spec.END_TO_END)
    traced = outcome.payload(spec.PER_LAYER)
    assert list(measured["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in contract["per_layer"]]
    assert all(
        measured["metrics"][m["name"]]["unit"] == m["unit"] for m in contract["end_to_end"]
    )


def test_sizes_scale_what_is_measured_and_keep_what_decides_the_plan():
    base = spec.sizes_for("tpcc_e2e", spec.RUN_SECONDS)
    double = spec.sizes_for("tpcc_e2e", 2 * spec.RUN_SECONDS)
    assert double.live == 2 * base.live and double.rounds == base.rounds == spec.ROUNDS
    assert (double.train, double.test, double.warm) == (base.train, base.test, base.warm)
    graph = spec.sizes_for("partition_synth50k", 2 * spec.RUN_SECONDS)
    assert graph.nodes == 50_000 and graph.rounds == 24
    assert spec.sizes_for("tpcc_e2e", spec.RUN_SECONDS, smoke=True).live < base.live
    for workload in ("tpcc_e2e", "epinions_e2e", "tpcc_hash_serve"):
        for seconds in (1, spec.RUN_SECONDS, 60):
            sizes = spec.sizes_for(workload, seconds)
            # whole windows only; p90 of a window has >= 10 samples beyond it.
            assert sizes.live >= sizes.window and sizes.live % sizes.window == 0
            assert sizes.window // 10 >= 10


def test_contract_workloads_are_a_subset_of_all_workloads():
    assert list(spec.ALL_WORKLOADS)[: len(spec.WORKLOADS)] == list(spec.WORKLOADS)
    assert set(spec.EXTRA_WORKLOADS) == {"epinions_e2e", "tpcc_hash_serve"}


def test_round_seeds_are_distinct_across_seeds_and_rounds():
    seeds = {spec.round_seed(seed, index) for seed in range(50) for index in range(10)}
    assert len(seeds) == 500
