"""End-to-end self-test: ``run.py --smoke`` — all four workloads, both passes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from schism_bench import spec

BENCH_DIR = Path(__file__).resolve().parent.parent


@pytest.mark.slow
@pytest.mark.storage
def test_smoke_run_reports_every_metric_and_leaves_no_process(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "leftover_processes 0" in done.stdout
    results = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    assert results["claim"] is None and results["leftover_processes"] == 0
    for workload in spec.ALL_WORKLOADS:
        row = results["workloads"][workload]
        assert list(row["end_to_end"]) == [m.name for m in spec.END_TO_END]
        assert list(row["per_layer"]) == [m.name for m in spec.PER_LAYER]
        assert all(metric["value"] > 0 for metric in row["end_to_end"].values())
        assert all(payload["correct"] for payload in row["passes"].values())
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text(encoding="utf-8"))
        assert trace["spans"]
        for name in spec.END_TO_END:
            assert f"{name.name}" in done.stdout
    for workload in ("tpcc_e2e", "epinions_e2e", "tpcc_hash_serve"):
        layer = results["workloads"][workload]["per_layer"]
        for audit in ("audit.lost_updates", "audit.phantom_rows", "audit.unreachable_tuples"):
            assert layer[audit]["rounds"] == [0.0]
    assert not (BENCH_DIR / ".work").exists()
