"""Tests for the PartitionPlan artifact: serialisation, diff, deployment."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog.tuples import TupleId
from repro.core.cost import evaluate_strategy
from repro.online import start_online
from repro.pipeline import (
    PLAN_FORMAT_VERSION,
    PartitionPlan,
    Pipeline,
    PlanFormatError,
    STAGE_NAMES,
    SchismOptions,
)
from repro.utils.rng import SeededRng
from repro.workload.splitter import split_workload
from repro.workloads import generate_simplecount

REPO_ROOT = Path(__file__).resolve().parents[2]


def small_bundle(seed: int = 0):
    return generate_simplecount(num_rows=300, num_transactions=400, num_blocks=5, seed=seed)


def run_pipeline(bundle, num_partitions: int = 4, seed: int = 0):
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(seed))
    return Pipeline(SchismOptions(num_partitions=num_partitions)).run(
        bundle.database, train, test
    )


@pytest.fixture(scope="module")
def pipeline_plan():
    bundle = small_bundle()
    run = run_pipeline(bundle)
    return run.plan(workload=bundle.name), run


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------
def test_save_load_round_trip_is_byte_identical(pipeline_plan, tmp_path):
    plan, _run = pipeline_plan
    path = plan.save(tmp_path / "plan.json")
    first_bytes = path.read_bytes()
    reloaded = PartitionPlan.load(path)
    resaved = reloaded.save(tmp_path / "plan2.json")
    assert resaved.read_bytes() == first_bytes
    # And the reloaded plan is semantically identical.
    assert reloaded.num_partitions == plan.num_partitions
    assert reloaded.placements == plan.placements
    assert reloaded.strategy == plan.strategy
    assert reloaded.diff(plan).identical


def test_plan_preserves_key_and_rule_types(tmp_path):
    plan = PartitionPlan(
        3,
        {
            TupleId("users", (1,)): frozenset({0}),
            TupleId("users", ("alice",)): frozenset({1, 2}),
            TupleId("ratings", (1, "x")): frozenset({2}),
            TupleId("scores", (2.5,)): frozenset({0}),
        },
    )
    reloaded = PartitionPlan.loads(plan.dumps())
    assert reloaded.placements == plan.placements
    for tuple_id in reloaded.placements:
        match = [t for t in plan.placements if t == tuple_id]
        assert len(match) == 1
        # Types survive exactly: 1 stays int, "alice" stays str, 2.5 stays float.
        assert [type(v) for v in match[0].key] == [type(v) for v in tuple_id.key]


def test_plan_rejects_unserialisable_keys():
    plan = PartitionPlan(2, {TupleId("users", ((1, 2),)): frozenset({0})})
    with pytest.raises(TypeError):
        plan.dumps()


def test_plan_validation_errors():
    with pytest.raises(ValueError):
        PartitionPlan(0, {})
    with pytest.raises(ValueError):
        PartitionPlan(2, {}, strategy="bogus")
    with pytest.raises(ValueError):
        PartitionPlan(2, {TupleId("t", (1,)): frozenset({5})})
    with pytest.raises(ValueError):
        PartitionPlan(2, {TupleId("t", (1,)): frozenset()})


def test_format_and_version_guards(pipeline_plan):
    plan, _run = pipeline_plan
    payload = plan.to_payload()
    payload["format"] = "something-else"
    with pytest.raises(PlanFormatError):
        PartitionPlan.from_payload(payload)
    payload = plan.to_payload()
    payload["version"] = PLAN_FORMAT_VERSION + 1
    with pytest.raises(PlanFormatError):
        PartitionPlan.from_payload(payload)


def test_provenance_records_all_five_phase_timings(pipeline_plan):
    plan, _run = pipeline_plan
    timings = plan.provenance.timings
    assert list(timings) == list(STAGE_NAMES)
    report = plan.provenance.describe()
    assert f"timings: {sum(timings.values()):.2f}s (extract " in report


# ---------------------------------------------------------------------------
# Strategy reconstruction and diff
# ---------------------------------------------------------------------------
def test_rebuilt_strategies_score_identically(pipeline_plan):
    plan, run = pipeline_plan
    validation = run.state.validation
    test_trace = run.state.test_trace
    database = run.state.database
    for name in validation.reports:
        if name == "attribute-hashing":
            continue  # simplecount has no hash columns
        rebuilt = plan.build_strategy(name)
        fraction = evaluate_strategy(rebuilt, test_trace, database).distributed_fraction
        assert fraction == pytest.approx(validation.reports[name].distributed_fraction)


def test_diff_reports_moves_replicas_and_strategy_changes():
    base = PartitionPlan(
        2,
        {
            TupleId("t", (1,)): frozenset({0}),
            TupleId("t", (2,)): frozenset({0}),
            TupleId("t", (3,)): frozenset({1}),
        },
    )
    changed = PartitionPlan(
        4,
        {
            TupleId("t", (1,)): frozenset({1}),        # moved
            TupleId("t", (2,)): frozenset({0, 1}),     # replicated
            TupleId("t", (4,)): frozenset({3}),        # new tuple
        },
        strategy="hashing",
    )
    diff = base.diff(changed)
    assert not diff.identical
    assert diff.tuples_moved == 2
    assert diff.replicas_added == 2  # t:1 gained {1}, t:2 gained {1}
    assert diff.replicas_dropped == 1  # t:1 lost {0}
    assert [t.key for t in diff.only_in_old] == [(3,)]
    assert [t.key for t in diff.only_in_new] == [(4,)]
    assert diff.strategy_change == ("lookup-table", "hashing")
    assert diff.partitions_change == (2, 4)
    text = diff.describe()
    assert "tuples moved: 2" in text and "strategy changed" in text
    assert base.diff(base).describe() == "plans are identical: 0 moves"


def test_diff_catches_policy_and_rule_set_changes():
    """Plans with identical placements but different routing config must not
    diff as identical (the --fail-on-change CI gate relies on this)."""
    from repro.explain.rules import PredicateRule, RuleCondition, RuleSet

    placements = {TupleId("t", (1,)): frozenset({0})}
    base = PartitionPlan(2, dict(placements))
    policy_flip = PartitionPlan(2, dict(placements), lookup_default_policy="replicate")
    diff = base.diff(policy_flip)
    assert not diff.identical
    assert diff.policy_changes == {"lookup_default_policy": ("hash", "replicate")}
    assert "lookup_default_policy changed" in diff.describe()

    rules_a = {
        "t": RuleSet(
            "t",
            (PredicateRule((RuleCondition("id", "<=", 5),), "0"),),
            default_label="1",
            attributes=("id",),
        )
    }
    rules_b = {
        "t": RuleSet(
            "t",
            (PredicateRule((RuleCondition("id", "<=", 5),), "1"),),
            default_label="0",
            attributes=("id",),
        )
    }
    with_rules_a = PartitionPlan(2, dict(placements), rule_sets=rules_a)
    with_rules_b = PartitionPlan(2, dict(placements), rule_sets=rules_b)
    diff = with_rules_a.diff(with_rules_b)
    assert not diff.identical
    assert diff.rules_changed == ("t",)
    assert "rule sets changed" in diff.describe()
    assert with_rules_a.diff(with_rules_a).identical


# ---------------------------------------------------------------------------
# Deployment: save -> load -> deploy must not change a routing decision
# ---------------------------------------------------------------------------
def test_loaded_plan_deploys_with_zero_routing_divergence(pipeline_plan, tmp_path):
    plan, _run = pipeline_plan
    path = plan.save(tmp_path / "plan.json")
    loaded = PartitionPlan.load(path)

    # Two fresh, identical database instances; one controller per plan.
    bundle_a = small_bundle()
    bundle_b = small_bundle()
    controller_a = start_online(plan, bundle_a.database)
    controller_b = start_online(loaded, bundle_b.database)

    decisions_a = controller_a.router.participants_for_workload(bundle_a.workload)
    decisions_b = controller_b.router.participants_for_workload(bundle_b.workload)
    assert decisions_a == decisions_b
    assert controller_a.cluster.row_counts() == controller_b.cluster.row_counts()


def test_cold_deploy_does_not_read_steady_traffic_as_drift(pipeline_plan, monkeypatch):
    """A plan deployed without a warm-up trace adopts its first filled window
    as the drift baseline instead of churning adaptations against zeros."""
    plan, _run = pipeline_plan
    bundle = small_bundle()
    from repro.online import monitor
    from repro.online.controller import OnlineOptions
    from repro.online.monitor import MonitorOptions
    from repro.workload.rwsets import extract_access_trace

    # Simplecount traffic is uniform, so the "hot set" is sampling noise;
    # disable the churn check to isolate the distributed-fraction baseline
    # (the signal an all-zero baseline would trip on every batch).  The
    # window is sized so the 400-transaction stream fills it.
    monkeypatch.setattr(monitor, "DRIFT_CHURN_THRESHOLD", 1.1)
    options = OnlineOptions(monitor=MonitorOptions(window_size=200))
    controller = start_online(plan, bundle.database, options)
    trace = extract_access_trace(bundle.database, bundle.workload)
    observation = controller.observe(trace, auto_adapt=True)
    assert observation.adaptations == []
    adopted = [
        report
        for report in observation.drift_reports
        if "baseline adopted" in " ".join(report.reasons)
    ]
    assert adopted, "first filled window should have re-baselined the monitor"


def test_export_plan_closes_the_loop(pipeline_plan):
    plan, _run = pipeline_plan
    bundle = small_bundle()
    controller = start_online(plan, bundle.database)
    exported = controller.export_plan()
    # Nothing adapted yet: the exported plan is identical to the deployed
    # one — the routing config (strategy, policies, rule sets) is carried
    # through the deploy/export cycle, not just the placements.
    assert plan.diff(exported).identical
    assert exported.strategy == plan.strategy
    assert exported.rule_sets.keys() == plan.rule_sets.keys()
    assert exported.provenance.created_by == "online-export"
    # The exported plan is itself serialisable and redeployable.
    round_tripped = PartitionPlan.loads(exported.dumps())
    fresh = small_bundle()
    controller2 = start_online(round_tripped, fresh.database)
    assert controller2.num_partitions == controller.num_partitions


# ---------------------------------------------------------------------------
# Cross-process / cross-backend determinism
# ---------------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.utils.rng import SeededRng
from repro.workload.splitter import split_workload
from repro.workloads import generate_simplecount

bundle = generate_simplecount(num_rows=300, num_transactions=400, num_blocks=5, seed=0)
train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
run = Pipeline(SchismOptions(num_partitions=4)).run(bundle.database, train, test)
plan = run.plan(workload=bundle.name)
text = plan.dumps()
assert PartitionPlan.loads(text).dumps() == text, "round-trip not byte-identical"
print(plan.content_fingerprint())
"""


def _subprocess_fingerprint(backend: str) -> str:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_ARRAY_BACKEND"] = backend
    env.pop("PYTHONHASHSEED", None)  # fresh salted hashing per process
    result = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


def test_plan_is_byte_deterministic_across_processes_and_backends(pipeline_plan):
    plan, _run = pipeline_plan
    try:
        import numpy  # noqa: F401

        backends = ("numpy", "list")
    except ImportError:
        backends = ("list", "list")
    fingerprints = [_subprocess_fingerprint(backend) for backend in backends]
    # Both backends, in fresh processes, produce the same decision content
    # as the in-process run (provenance timings excluded by construction).
    assert fingerprints[0] == fingerprints[1] == plan.content_fingerprint()


def test_same_seed_plans_are_byte_identical_files(tmp_path):
    """No wall clock reaches the file: two same-seed runs can be ``cmp``-ed."""
    files = []
    for name in ("first", "second"):
        bundle = small_bundle()
        plan = run_pipeline(bundle).plan(workload=bundle.name)
        # The run's phase times ride on the in-memory plan only.
        assert plan.provenance.timings["partition"] > 0
        files.append(plan.save(tmp_path / f"{name}.json").read_bytes())
    assert files[0] == files[1]
    loaded = PartitionPlan.loads(files[0].decode("utf-8"))
    assert loaded.provenance.timings == {}
    assert "timings" not in json.loads(files[0])["provenance"]
    assert "timings" not in loaded.provenance.describe()


def test_dumps_is_valid_sorted_json(pipeline_plan):
    plan, _run = pipeline_plan
    payload = json.loads(plan.dumps())
    assert payload["format"] == "repro-partition-plan"
    assert payload["version"] == PLAN_FORMAT_VERSION
    tables = [entry[0] for entry in payload["placements"]]
    assert tables == sorted(tables)
