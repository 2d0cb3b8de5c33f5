"""End-to-end drift test for the online adaptivity layer.

Acceptance criteria: after a rotating-hotspot drift, the budgeted online
adaptation restores the distributed-transaction fraction to within 10% of a
full re-partition while migrating at most 25% of the tuples the
from-scratch re-partition would move — byte-deterministically under a fixed
seed.
"""

from __future__ import annotations

import pytest

from repro.core.cost import evaluate_strategy
from repro.core.strategies import LookupTablePartitioning
from repro.online import MonitorOptions, OnlineOptions, RepartitionOptions, start_online
from repro.online import controller as controller_module
from repro.pipeline import Pipeline, SchismOptions
from repro.workload.rwsets import extract_access_trace
from repro.workloads import generate_rotating_hotspot

NUM_PARTITIONS = 4
SEED = 0


def _run_scenario():
    """Train on phase 0, drift to phase 1, adapt; return everything measured."""
    bundle = generate_rotating_hotspot(
        num_rows=1200,
        transactions_per_phase=800,
        num_phases=2,
        uniform_fraction=0.3,
        seed=SEED,
    )
    database = bundle.database
    offline = Pipeline(SchismOptions(num_partitions=NUM_PARTITIONS)).run(
        database, bundle.training
    )
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=400, min_window_fill=100),
        repartition=RepartitionOptions(
            migration_cost_weight=0.25, imbalance=0.10, max_passes=12
        ),
    )
    controller = start_online(
        offline.plan(),
        database,
        options,
        warm_up_trace=offline.state.training_trace,
    )
    drifted = extract_access_trace(database, bundle.phases[1])
    observation = controller.observe(drifted, auto_adapt=False)
    before = evaluate_strategy(controller.strategy, drifted, database).distributed_fraction

    tuples = controller.maintainer.tuples()
    full = controller.preview_full_repartition()
    full_strategy = LookupTablePartitioning(
        NUM_PARTITIONS,
        controller.merged_placements(tuples, [frozenset({part}) for part in full.assignment]),
        "hash",
    )
    full_fraction = evaluate_strategy(full_strategy, drifted, database).distributed_fraction

    # The budget is the criterion itself: at most a quarter of what the
    # from-scratch re-partition would migrate.
    controller.options.repartition.migration_budget = 0.25 * full.migration_cost
    record = controller.adapt()
    after = evaluate_strategy(controller.strategy, drifted, database).distributed_fraction
    return {
        "observation": observation,
        "before": before,
        "after": after,
        "full_fraction": full_fraction,
        "full": full,
        "record": record,
        "controller": controller,
    }


@pytest.fixture(scope="module")
def scenario():
    return _run_scenario()


def test_drift_is_detected(scenario):
    reports = scenario["observation"].drift_reports
    assert any(report.drifted for report in reports)
    # The drift shows up as a distributed-fraction explosion.
    assert any(
        "distributed fraction" in reason
        for report in reports
        if report.drifted
        for reason in report.reasons
    )


def test_drift_degrades_placement(scenario):
    # Phase-1 groups were never co-located by the phase-0 training run.
    assert scenario["before"] > 0.5


def test_adaptation_restores_distributed_fraction(scenario):
    # Within 10% (absolute) of what the full re-partition achieves.
    assert scenario["after"] <= scenario["full_fraction"] + 0.10


def test_adaptation_moves_quarter_of_full_repartition(scenario):
    full_moved = scenario["full"].num_moved
    budgeted_moved = scenario["record"].repartition.num_moved
    assert full_moved > 0
    assert budgeted_moved <= 0.25 * full_moved
    # And the plan's physical movement matches the re-partitioner's delta.
    assert scenario["record"].plan.tuples_changed == budgeted_moved


def test_adaptation_reduces_cut(scenario):
    repartition = scenario["record"].repartition
    assert repartition.cut_after < repartition.cut_before * 0.2


def test_migration_executed_and_swapped(scenario):
    record = scenario["record"]
    assert record.migration.copies == len(record.plan.copies)
    assert record.migration.drops == len(record.plan.drops)
    assert record.migration.lookup_swapped
    assert record.migration.messages > 0
    # Copy-before-drop ordering: the progress trail never drops ahead of copies.
    steps = record.plan.steps
    first_drop = next((i for i, step in enumerate(steps) if step.action == "drop"), None)
    if first_drop is not None:
        assert all(step.action == "copy" for step in steps[:first_drop])
        assert all(step.action == "drop" for step in steps[first_drop:])


def test_cluster_consistent_with_lookup_table(scenario):
    controller = scenario["controller"]
    assignment = controller.strategy.assignment
    for tuple_id in assignment:
        placement = assignment.partitions_of(tuple_id)
        for partition in placement:
            assert controller.cluster.has_tuple(tuple_id, partition)
        # The router resolves the flipped entries identically.
        assert controller.router.placement_of(tuple_id) == placement


def test_monitor_rebaselined_after_adaptation(scenario):
    controller = scenario["controller"]
    stats = controller.monitor.window_stats()
    # The sliding window (pure phase-1 traffic) is served mostly locally now.
    assert stats.distributed_fraction < 0.15
    assert not controller.monitor.check_drift().drifted


def test_byte_deterministic_under_fixed_seed(scenario):
    rerun = _run_scenario()
    first, second = scenario, rerun
    assert first["before"] == second["before"]
    assert first["after"] == second["after"]
    assert first["full"].assignment == second["full"].assignment
    # The repartition result may be the singleton or the replica-set variant
    # depending on which replication candidates qualified; either way the
    # dataclass repr captures the complete outcome.
    assert repr(first["record"].repartition) == repr(second["record"].repartition)
    assert first["record"].plan.steps == second["record"].plan.steps
    placements_a = sorted(
        (tuple_id, tuple(sorted(placement)))
        for tuple_id, placement in first["controller"].strategy.assignment.placements.items()
    )
    placements_b = sorted(
        (tuple_id, tuple(sorted(placement)))
        for tuple_id, placement in second["controller"].strategy.assignment.placements.items()
    )
    assert repr(placements_a).encode() == repr(placements_b).encode()


def test_auto_adapt_triggers_on_drift(monkeypatch):
    """The controller adapts on its own when left in auto mode."""
    bundle = generate_rotating_hotspot(
        num_rows=600,
        transactions_per_phase=300,
        num_phases=2,
        hot_window=150,
        seed=1,
    )
    database = bundle.database
    offline = Pipeline(SchismOptions(num_partitions=2)).run(database, bundle.training)
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=200, min_window_fill=50),
        repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
    )
    monkeypatch.setattr(controller_module, "INGEST_BATCH_SIZE", 50)
    controller = start_online(
        offline.plan(),
        database,
        options,
        warm_up_trace=offline.state.training_trace,
    )
    drifted = extract_access_trace(database, bundle.phases[1])
    result = controller.observe(drifted, auto_adapt=True)
    assert result.adaptations
    first = result.adaptations[0]
    assert first.trigger is not None and first.trigger.drifted
    assert first.distributed_fraction_after < first.distributed_fraction_before
