"""Smoke tests for the ``python -m repro`` CLI (run/deploy/diff/bench)."""

import pytest

from repro.catalog.tuples import TupleId
from repro.cli import BENCH_EXPERIMENTS, WORKLOADS, _build_bundle, main
from repro.pipeline import PartitionPlan
from repro.routing.router import Router


def test_run_writes_a_loadable_plan(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main([
        "run", "--workload", "simplecount", "--partitions", "4",
        "--scale", "0.2", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    plan = PartitionPlan.load(out)
    assert plan.num_partitions == 4
    assert len(plan) > 0
    output = capsys.readouterr().out
    assert "partition plan v2" in output
    assert "deployment routes by: " in output
    assert "wrote" in output


def test_diff_identical_plans_reports_zero_moves(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = main(["diff", str(out), str(out), "--fail-on-change"])
    assert code == 0
    assert "identical: 0 moves" in capsys.readouterr().out


def test_diff_fail_on_change_exits_nonzero(tmp_path, capsys):
    old = PartitionPlan(2, {TupleId("t", (1,)): frozenset({0})})
    new = PartitionPlan(2, {TupleId("t", (1,)): frozenset({1})})
    old.save(tmp_path / "old.json")
    new.save(tmp_path / "new.json")
    assert main(["diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 0
    code = main([
        "diff", str(tmp_path / "old.json"), str(tmp_path / "new.json"),
        "--fail-on-change",
    ])
    assert code == 1
    assert "tuples moved: 1" in capsys.readouterr().out


def test_in_memory_deploy_reports_served_over_the_whole_stream(tmp_path, capsys):
    """Served counts every streamed transaction, not the monitor's last window.

    A hashing plan on simplecount serves 49.1 % of its 2 000 transactions
    distributed, but 50.2 % of the last 1 000 (the monitor's window).
    """
    plan = PartitionPlan(2, {}, strategy="hashing")
    plan_path = plan.save(tmp_path / "plan.json")
    bundle = _build_bundle("simplecount", 1.0, 0)
    router = Router(plan.deployment_strategy(), bundle.database.schema)
    participants = router.participants_for_workload(bundle.workload)
    served = sum(len(parts) > 1 for parts in participants) / len(participants)
    last_window = participants[-1000:]
    assert len(participants) > len(last_window)
    assert f"{served:.1%}" != f"{sum(len(parts) > 1 for parts in last_window) / 1000:.1%}"
    assert main(["deploy", str(plan_path), "--workload", "simplecount"]) == 0
    output = capsys.readouterr().out
    assert f"served {served:.1%};" in output


def test_deploy_streams_and_exports(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    live_path = tmp_path / "live.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    code = main([
        "deploy", str(plan_path), "--workload", "simplecount",
        "--scale", "0.2", "--export", str(live_path),
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "materialised 2 partitions" in output
    assert "streamed" in output
    # validated beside served, and what routed the statements (counted on a
    # registry the command installs for itself and removes again).
    assert "routing: validated " in output and "% distributed at planning, served " in output
    assert "statements by explicit " in output and ", broadcast " in output
    from repro.obs import get_telemetry

    assert not get_telemetry().enabled
    exported = PartitionPlan.load(live_path)
    deployed = PartitionPlan.load(plan_path)
    # No adaptation ran (--adapt not passed): the live export is the plan.
    assert deployed.diff(exported).tuples_moved == 0


def test_bench_figure1_prints_table(capsys):
    assert main(["bench", "--experiment", "figure1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_unknown_workload_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "nope", "--partitions", "2"])


def test_registries_cover_the_advertised_surface():
    assert {"simplecount", "tpcc", "tpce", "epinions", "ycsb-a", "ycsb-e", "random"} <= set(
        WORKLOADS
    )
    assert {"figure1", "figure4", "figure5", "figure6", "table1", "online-drift"} <= set(
        BENCH_EXPERIMENTS
    )


def test_run_metrics_out_is_schema_valid_and_byte_deterministic(tmp_path, capsys):
    import json

    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    for out in (first, second):
        assert main([
            "run", "--workload", "simplecount", "--partitions", "2",
            "--scale", "0.2", "--metrics-out", str(out),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()
    snapshot = json.loads(first.read_text())
    assert snapshot["format"] == "repro-metrics"
    families = snapshot["families"]
    assert "pipeline.stage_runs" in families
    assert "partition.phases" in families
    # wall-clock families never reach the exported snapshot
    assert "pipeline.stage_seconds" not in families


def test_metrics_out_counts_shapes_per_run_not_per_process(tmp_path, capsys):
    """The shape cache outlives a run; the shapes counter must not."""
    import json
    import sys
    from pathlib import Path

    from repro.sqlparse.shape import _SHAPES

    tools_dir = str(Path(__file__).resolve().parent.parent / "tools")
    if tools_dir not in sys.path:
        sys.path.insert(0, tools_dir)
    import check_metrics

    _SHAPES.clear()
    first = tmp_path / "cold.json"
    second = tmp_path / "warm.json"
    for out in (first, second):
        assert main([
            "run", "--workload", "simplecount", "--partitions", "2",
            "--scale", "0.2", "--metrics-out", str(out),
        ]) == 0
        assert check_metrics.main(["--partial", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["families"]["sqlparse.shapes"]["series"]


def test_metrics_out_leaves_no_telemetry_installed(tmp_path):
    from repro.obs import get_telemetry

    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--metrics-out", str(tmp_path / "m.json"),
    ]) == 0
    assert not get_telemetry().enabled


def _write_journal(
    tmp_path, state="copying", copies_done=1, backend="simulated", migration_id="mig"
):
    from repro.catalog.tuples import TupleId
    from repro.online.migration import MigrationJournal, MigrationPlan, MigrationStep

    plan = MigrationPlan(4)
    plan.previous = [(TupleId("t", (i,)), frozenset({0})) for i in range(2)]
    plan.changes = [(TupleId("t", (i,)), frozenset({1})) for i in range(2)]
    plan.copies = [MigrationStep("copy", TupleId("t", (i,)), 0, 1) for i in range(2)]
    plan.drops = [MigrationStep("drop", TupleId("t", (i,)), 0) for i in range(2)]
    plan.tuples_changed = 2
    journal = MigrationJournal(
        plan=plan, kind="resize", flip_mode="delta",
        old_num_partitions=2, new_num_partitions=4,
        backend=backend, migration_id=migration_id,
    )
    journal.state = state
    journal.copies_done = copies_done
    journal.records = 3
    path = tmp_path / "plan.json.journal"
    path.write_text(journal.dumps(), encoding="utf-8")
    return path


def test_status_renders_a_journal_file(tmp_path, capsys):
    path = _write_journal(tmp_path)
    assert main(["status", str(path)]) == 0
    output = capsys.readouterr().out
    assert "migration resize (2 -> 4 partitions, flip=delta)" in output
    assert "state: copying" in output
    assert "[>] copying" in output and "1/2 copies" in output


def test_status_renders_storage_backend_counters(tmp_path, capsys):
    """A storage-backed journal names the real backend, not the simulation."""
    path = _write_journal(tmp_path, backend="storage", migration_id="resize-2to4")
    assert main(["status", str(path)]) == 0
    output = capsys.readouterr().out
    assert "backend: storage (SQLite partition workers)" in output
    assert "migration id resize-2to4" in output
    assert "1/2 rows copied across partitions" in output
    assert "0/2 stale rows dropped" in output


def test_status_simulated_journal_has_no_backend_line(tmp_path, capsys):
    path = _write_journal(tmp_path)  # backend="simulated"
    assert main(["status", str(path)]) == 0
    output = capsys.readouterr().out
    assert "backend:" not in output
    assert "1/2 copies" in output


def test_status_falls_back_to_the_sibling_journal(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    capsys.readouterr()
    _write_journal(tmp_path)  # writes plan.json.journal
    assert main(["status", str(plan_path)]) == 0
    assert "state: copying" in capsys.readouterr().out


def test_status_without_a_journal_is_a_clean_error(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    with pytest.raises(SystemExit, match="no journal"):
        main(["status", str(plan_path)])
    with pytest.raises(SystemExit, match="no such file"):
        main(["status", str(tmp_path / "missing.journal")])


def test_journal_inspect_renders_a_timeline(tmp_path, capsys):
    path = _write_journal(tmp_path, state="completed", copies_done=2)
    assert main(["journal", "inspect", str(path)]) == 0
    output = capsys.readouterr().out
    assert "journal: resize migration, 2 -> 4 partitions" in output
    assert "1. planned: journal opened" in output
    assert "current state: completed" in output


def test_status_with_unreadable_sibling_journal_is_a_clean_error(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    (tmp_path / "plan.json.journal").write_text("not json at all", encoding="utf-8")
    with pytest.raises(SystemExit, match="no journal found"):
        main(["status", str(plan_path)])


def _drop_copies(payload):
    del payload["copies"]


def _short_copy_row(payload):
    payload["copies"][0] = payload["copies"][0][:3]


def _version_true(payload):
    payload["version"] = True


@pytest.mark.parametrize("command", [["status"], ["journal", "inspect"]])
@pytest.mark.parametrize(
    "damage",
    [lambda payload: [payload], _drop_copies, _short_copy_row, _version_true, None],
    ids=["json-array", "missing-copies", "three-element-copy-row", "version-true", "truncated"],
)
def test_damaged_journal_exits_with_one_line(tmp_path, command, damage):
    import json

    path = _write_journal(tmp_path)
    text = path.read_text(encoding="utf-8")
    if damage is None:
        text = text[: len(text) // 2]
    else:
        payload = json.loads(text)
        text = json.dumps(damage(payload) or payload)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as raised:
        main([*command, str(path)])
    message = str(raised.value.code)
    assert message.startswith("no journal found") and "\n" not in message


def test_deploy_sqlite_rejects_in_memory_only_flags(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    with pytest.raises(SystemExit, match="in-memory backend only"):
        main([
            "deploy", str(plan_path), "--workload", "simplecount",
            "--scale", "0.2", "--storage", "sqlite",
            "--export", str(tmp_path / "live.json"),
        ])


def test_deploy_sqlite_rejects_nonpositive_resize(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    with pytest.raises(SystemExit, match="--resize must be a positive"):
        main([
            "deploy", str(plan_path), "--workload", "simplecount",
            "--scale", "0.2", "--storage", "sqlite", "--resize", "0",
        ])


def test_deploy_sqlite_rejects_resize_to_the_plans_own_k(tmp_path):
    """A same-k "resize" used to run: it re-hashed the whole deployment."""
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    with pytest.raises(SystemExit, match="--resize 2: the plan already has 2 partitions"):
        main([
            "deploy", str(plan_path), "--workload", "simplecount",
            "--scale", "0.2", "--storage", "sqlite", "--resize", "2",
        ])


@pytest.mark.storage
@pytest.mark.slow
def test_deploy_sqlite_resize_migrates_live(tmp_path, capsys):
    """`deploy --storage sqlite --resize K` runs the journaled migration
    under the streaming workload and leaves a loadable journal behind."""
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    capsys.readouterr()
    storage_dir = tmp_path / "cluster"
    code = main([
        "deploy", str(plan_path), "--workload", "simplecount",
        "--scale", "0.2", "--storage", "sqlite",
        "--storage-dir", str(storage_dir), "--clients", "2", "--resize", "4",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "live resize 2 -> 4 partitions" in output
    assert "resize 2 -> 4 partitions completed" in output
    for partition in range(4):
        assert (storage_dir / f"partition-{partition}.sqlite").exists()
    capsys.readouterr()
    assert main(["status", str(storage_dir / "resize.journal")]) == 0
    status = capsys.readouterr().out
    assert "backend: storage (SQLite partition workers)" in status
    assert "state: completed" in status


def test_deploy_sqlite_streams_the_workload(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main([
        "run", "--workload", "simplecount", "--partitions", "2",
        "--scale", "0.2", "--out", str(plan_path),
    ]) == 0
    capsys.readouterr()
    storage_dir = tmp_path / "cluster"
    code = main([
        "deploy", str(plan_path), "--workload", "simplecount",
        "--scale", "0.2", "--storage", "sqlite",
        "--storage-dir", str(storage_dir), "--clients", "2",
        "--timeout-ms", "1000", "--max-retries", "4", "--backoff-base-ms", "10",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "materialised 2 SQLite partitions" in output
    assert "retry policy: timeout 1000 ms, 4 retries" in output
    assert "0 aborted" in output
    assert "routing: validated " in output and "statements by explicit " in output
    # the files are real and stay behind when --storage-dir is explicit.
    assert (storage_dir / "partition-0.sqlite").exists()
    assert (storage_dir / "partition-1.sqlite").exists()
