"""Unit tests for migration planning, execution, and the routing flip."""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import HashPartitioning, LookupTablePartitioning
from repro.distributed.cluster import Cluster
from repro.graph.assignment import PartitionAssignment
from repro.online.migration import (
    JournaledMigrator,
    MemoryJournalSink,
    MigrationJournal,
    plan_migration,
)
from repro.routing.router import Router


def _assignment(num_partitions, placements):
    assignment = PartitionAssignment(num_partitions)
    for key, partitions in placements.items():
        assignment.assign(TupleId("account", (key,)), partitions)
    return assignment


def _deployment(database, placements):
    """Cluster + router deployed under ``placements`` at two partitions."""
    strategy = LookupTablePartitioning(2, _assignment(2, placements), "hash")
    cluster = Cluster.from_database(database, strategy)
    router = Router(strategy, database.schema)
    return cluster, router


def _migrator(cluster, router, plan, journal=None, flip_mode="delta", batch_size=64):
    """An adapt (fixed-k) migrator for ``plan`` plus its journal sink."""
    if journal is None:
        journal = MigrationJournal(
            plan=plan,
            kind="adapt",
            flip_mode=flip_mode,
            old_num_partitions=cluster.num_partitions,
            new_num_partitions=cluster.num_partitions,
        )
    sink = MemoryJournalSink()
    return JournaledMigrator(cluster, router, journal, sink=sink, batch_size=batch_size), sink


def _step_until(migrator, state):
    while migrator.journal.state != state:
        assert migrator.step() > 0


DEPLOYED = {1: {0}, 2: {0}, 3: {0}, 4: {1}, 5: {1}}


def test_plan_diffs_only_changed_tuples():
    old = _assignment(2, {1: {0}, 2: {0}, 3: {1}})
    new = _assignment(2, {1: {0}, 2: {1}, 3: {1}})
    plan = plan_migration(old.partitions_of, new)
    assert plan.tuples_changed == 1
    assert plan.tuples_moved == 1
    assert plan.tuples_replicated == 0
    assert [step.action for step in plan.steps] == ["copy", "drop"]
    copy, drop = plan.steps
    assert copy.tuple_id == TupleId("account", (2,))
    assert (copy.source, copy.target) == (0, 1)
    assert (drop.tuple_id, drop.source) == (TupleId("account", (2,)), 0)


def test_plan_widening_replication_has_no_drops():
    old = _assignment(2, {1: {0}})
    new = _assignment(2, {1: {0, 1}})
    plan = plan_migration(old.partitions_of, new)
    assert plan.tuples_replicated == 1
    assert plan.tuples_moved == 0
    assert len(plan.copies) == 1 and not plan.drops


def test_plan_orders_all_copies_before_all_drops():
    old = _assignment(2, {1: {0}, 2: {1}})
    new = _assignment(2, {1: {1}, 2: {0}})
    plan = plan_migration(old.partitions_of, new)
    actions = [step.action for step in plan.steps]
    assert actions == ["copy", "copy", "drop", "drop"]


def test_plan_unknown_current_placement_raises():
    new = _assignment(2, {1: {0}})
    with pytest.raises(ValueError):
        plan_migration(lambda tuple_id: frozenset(), new)


def test_executor_moves_rows_and_counts_messages(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    new = _assignment(2, {1: {0}, 2: {1}, 3: {0}, 4: {1}, 5: {0, 1}})
    plan = plan_migration(router.strategy.partitions_for_tuple, new)
    migrator, sink = _migrator(cluster, router, plan, batch_size=1)
    report = migrator.run()
    assert sink.load().state == "completed"
    assert report.copies == 2  # tuple 2 moved, tuple 5 replicated
    assert report.drops == 1
    assert report.skipped == 0
    # 2 messages per source read + 2 per target write + 2 per drop.
    assert report.messages == 2 * (2 + 2) + 2
    assert report.bytes_copied > 0
    assert report.progress[-1] == (2, 1)
    # Physical placement matches the new assignment.
    assert cluster.database(1).get_row(TupleId("account", (2,))) is not None
    assert cluster.database(0).get_row(TupleId("account", (2,))) is None
    assert cluster.database(0).get_row(TupleId("account", (5,))) is not None
    assert cluster.database(1).get_row(TupleId("account", (5,))) is not None


def test_executor_is_idempotent(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    plan = plan_migration(router.strategy.partitions_for_tuple, _assignment(2, {2: {1}}))
    _migrator(cluster, router, plan)[0].run()
    # Replay the whole plan: the copy finds the row gone from its source.
    report = _migrator(cluster, router, plan)[0].run()
    assert report.copies == 0
    assert report.drops == 0
    assert report.skipped == 2
    assert cluster.database(1).get_row(TupleId("account", (2,))) is not None


def test_swap_routing_is_atomic_and_complete(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    old_table = router.strategy.assignment
    new = _assignment(2, {1: {1}, 2: {0}, 3: {0}, 4: {1}, 5: {1}})
    plan = plan_migration(router.strategy.partitions_for_tuple, new)
    migrator, _ = _migrator(cluster, router, plan, flip_mode="swap")
    _step_until(migrator, "flipped")
    assert migrator.report.lookup_swapped
    assert router.strategy.assignment is not old_table
    assert router.strategy.assignment.placements == new.placements
    assert router.placement_of(TupleId("account", (1,))) == {1}
    # The old table object is untouched (readers mid-flight see a consistent view).
    assert old_table.partitions_of(TupleId("account", (1,))) == {0}


def test_executor_partition_mismatch(bank_database):
    cluster, router = _deployment(bank_database, {1: {0}})
    plan = plan_migration(
        router.strategy.partitions_for_tuple, _assignment(3, {1: {2}})
    )
    with pytest.raises(ValueError):
        _migrator(cluster, router, plan)


def test_delta_flip_over_a_strategy_without_entries_is_refused(bank_database):
    """A delta flip rewrites per-tuple entries; over a hash router it would
    report the flip done while routing still names the old partition."""
    strategy = HashPartitioning(2)
    cluster = Cluster.from_database(bank_database, strategy)
    router = Router(strategy, bank_database.schema)
    tuple_id = TupleId("account", (2,))
    home = strategy.partitions_for_tuple(tuple_id)
    (other,) = {0, 1} - home
    plan = plan_migration(strategy.partitions_for_tuple, _assignment(2, {2: {other}}))
    with pytest.raises(ValueError, match="per-tuple"):
        _migrator(cluster, router, plan)
    # Refused before any step: data and routing are where they were.
    assert cluster.tuple_locations(tuple_id) == home
    assert router.placement_of(tuple_id) == home


def test_plan_records_routing_changes():
    old = _assignment(2, {1: {0}, 2: {0}})
    new = _assignment(2, {1: {0}, 2: {1}})
    plan = plan_migration(old.partitions_of, new)
    assert plan.changes == [(TupleId("account", (2,)), frozenset({1}))]


def test_split_execution_copies_then_drops(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    plan = plan_migration(router.strategy.partitions_for_tuple, _assignment(2, {2: {1}}))
    migrator, _ = _migrator(cluster, router, plan)
    _step_until(migrator, "dual-window")
    # Dually resident between the phases: both placements answer reads.
    assert cluster.tuple_locations(TupleId("account", (2,))) == {0, 1}
    assert migrator.report.copies == 1 and migrator.report.drops == 0
    migrator.run()
    assert cluster.tuple_locations(TupleId("account", (2,))) == {1}
    assert migrator.report.drops == 1


def test_apply_routing_delta_updates_live_table_in_place(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    live_table = router.strategy.assignment
    new = _assignment(2, {2: {1}, 3: {0, 1}})
    plan = plan_migration(router.strategy.partitions_for_tuple, new)
    migrator, _ = _migrator(cluster, router, plan)
    _step_until(migrator, "flipped")
    # Same table object, only the changed entries re-written.
    assert router.strategy.assignment is live_table
    assert live_table.partitions_of(TupleId("account", (2,))) == {1}
    assert live_table.partitions_of(TupleId("account", (3,))) == {0, 1}
    assert live_table.partitions_of(TupleId("account", (1,))) == {0}
    assert router.placement_of(TupleId("account", (2,))) == {1}
    assert migrator.report.lookup_swapped


@pytest.mark.parametrize("flip_mode", ["delta", "swap"])
def test_cancel_after_the_flip_restores_the_deployed_placement(bank_database, flip_mode):
    cluster, router = _deployment(bank_database, DEPLOYED)
    new = _assignment(2, {2: {1}, 3: {0, 1}})
    plan = plan_migration(router.strategy.partitions_for_tuple, new)
    migrator, _ = _migrator(cluster, router, plan, flip_mode=flip_mode)
    _step_until(migrator, "dropping")
    assert router.placement_of(TupleId("account", (2,))) == {1}
    migrator.cancel()
    migrator.run()
    assert migrator.journal.state == "cancelled"
    for key, partitions in DEPLOYED.items():
        tuple_id = TupleId("account", (key,))
        assert router.placement_of(tuple_id) == partitions
        assert cluster.tuple_locations(tuple_id) == partitions


def test_replayed_copies_report_skips_not_copies(bank_database):
    cluster, router = _deployment(bank_database, DEPLOYED)
    plan = plan_migration(router.strategy.partitions_for_tuple, _assignment(2, {2: {1}}))
    migrator, sink = _migrator(cluster, router, plan)
    _step_until(migrator, "copying")
    before_batch = sink.load()  # the last record a crash mid-batch leaves behind
    _step_until(migrator, "dual-window")
    # Crash-retry between the copy and its journal record: the replica
    # already exists, so the replay writes nothing and accounts a skip (and
    # no write messages).
    replay, _ = _migrator(cluster, router, plan, journal=before_batch)
    _step_until(replay, "dual-window")
    report = replay.report
    assert report.copies == 0
    assert report.skipped == 1
    assert report.messages == 2  # the source read only
