"""Crash-safety of the journaled migrator: kill at every record, then
resume to completion or cancel to rollback — the cluster must come out
consistent either way.

The scenario is a 12-tuple 2 -> 4 resize in ``flip_mode="swap"`` (the
elastic path: the hash modulus changes, every tuple is re-homed by
``i % k``), stepped in batches of 3 so the journal writes a record stream
long enough to kill at interesting points: mid-copy, at the dual-window
transition, at the flip, mid-drop, and at completion.  A seeded
``CoordinatorKill`` raises :class:`CoordinatorDeath` *after* the targeted
record was persisted — the crash model is persist-then-kill — so a fresh
migrator attached to the reloaded journal replays at most one idempotent
batch.
"""

from __future__ import annotations

import json

import pytest

from repro.catalog.schema import Schema, Table, integer_column, string_column
from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning
from repro.distributed.cluster import Cluster
from repro.distributed.faults import CoordinatorDeath, CoordinatorKill, FaultPlan
from repro.engine.database import Database
from repro.graph.assignment import PartitionAssignment
from repro.online.migration import (
    FileJournalSink,
    JournaledMigrator,
    JournalFormatError,
    MemoryJournalSink,
    MigrationJournal,
    plan_migration,
)
from repro.routing.router import Router

NUM_TUPLES = 12
OLD_K = 2
NEW_K = 4
BATCH = 3


def _tid(i: int) -> TupleId:
    return TupleId("users", (i,))


def _build():
    """A deployed 2-partition cluster plus the journal of its 4-way resize."""
    schema = Schema(
        "smoke",
        [
            Table(
                "users",
                [integer_column("id"), string_column("name")],
                primary_key=["id"],
            )
        ],
    )
    old = PartitionAssignment(OLD_K)
    for i in range(NUM_TUPLES):
        old.assign(_tid(i), {i % OLD_K})
    database = Database(schema)
    for i in range(NUM_TUPLES):
        database.insert_row("users", {"id": i, "name": f"u{i}"})
    strategy = LookupTablePartitioning(OLD_K, old, "hash")
    cluster = Cluster.from_database(database, strategy)
    router = Router(strategy, schema)
    new = PartitionAssignment(NEW_K)
    for i in range(NUM_TUPLES):
        new.assign(_tid(i), {i % NEW_K})
    plan = plan_migration(strategy.partitions_for_tuple, new)
    journal = MigrationJournal.for_plan(
        plan,
        kind="resize",
        old_num_partitions=OLD_K,
        new_num_partitions=NEW_K,
    )
    return cluster, router, journal


def _assert_consistent(cluster, router):
    """Every tuple stored exactly where the router says it lives."""
    locations = cluster.tuple_locations_map()
    assert set(locations) == {_tid(i) for i in range(NUM_TUPLES)}
    for tuple_id in locations:
        assert router.placement_of(tuple_id) == locations[tuple_id], tuple_id


def _total_records() -> int:
    """Journal records a fault-free run of this scenario writes."""
    cluster, router, journal = _build()
    JournaledMigrator(
        cluster, router, journal, sink=MemoryJournalSink(), batch_size=BATCH
    ).run()
    assert journal.state == "completed"
    return journal.records


TOTAL_RECORDS = _total_records()


def test_forward_run_completes_and_is_consistent():
    cluster, router, journal = _build()
    sink = MemoryJournalSink()
    report = JournaledMigrator(
        cluster, router, journal, sink=sink, batch_size=BATCH
    ).run()
    assert journal.state == "completed"
    assert cluster.num_partitions == NEW_K
    assert report.copies == journal.plan.replicas_added
    assert report.drops == journal.plan.replicas_dropped
    _assert_consistent(cluster, router)
    # The sink holds the terminal snapshot, reloadable byte-identically.
    assert sink.load().dumps() == journal.dumps()


@pytest.mark.parametrize("kill_at", range(1, TOTAL_RECORDS + 1))
def test_kill_at_every_record_then_resume_completes(kill_at):
    cluster, router, journal = _build()
    sink = MemoryJournalSink()
    injector = FaultPlan(
        seed=7, coordinator_kills=(CoordinatorKill(at_record=kill_at),)
    ).build()
    migrator = JournaledMigrator(
        cluster, router, journal, sink=sink, batch_size=BATCH, injector=injector
    )
    with pytest.raises(CoordinatorDeath):
        migrator.run()
    # persist-then-kill: the record the kill targeted reached the sink.
    resumed = sink.load()
    assert resumed.records == kill_at
    JournaledMigrator(cluster, router, resumed, sink=sink, batch_size=BATCH).run()
    assert resumed.state == "completed"
    assert cluster.num_partitions == NEW_K
    _assert_consistent(cluster, router)


@pytest.mark.parametrize("kill_at", range(1, TOTAL_RECORDS + 1))
def test_kill_at_every_record_then_cancel_rolls_back(kill_at):
    cluster, router, journal = _build()
    sink = MemoryJournalSink()
    injector = FaultPlan(
        seed=7, coordinator_kills=(CoordinatorKill(at_record=kill_at),)
    ).build()
    migrator = JournaledMigrator(
        cluster, router, journal, sink=sink, batch_size=BATCH, injector=injector
    )
    with pytest.raises(CoordinatorDeath):
        migrator.run()
    resumed = sink.load()
    if resumed.is_terminal:
        # Killed at the final "completed" record: nothing left to cancel,
        # and cancelling a terminal journal must refuse.
        with pytest.raises(ValueError):
            JournaledMigrator(
                cluster, router, resumed, sink=sink, batch_size=BATCH
            ).cancel()
        return
    recovery = JournaledMigrator(cluster, router, resumed, sink=sink, batch_size=BATCH)
    recovery.cancel()
    recovery.run()
    assert resumed.state == "cancelled"
    # Rollback undoes everything: back at the old k, old placement.
    assert cluster.num_partitions == OLD_K
    _assert_consistent(cluster, router)


def test_cancel_before_any_step_rolls_back_cleanly():
    cluster, router, journal = _build()
    migrator = JournaledMigrator(
        cluster, router, journal, sink=MemoryJournalSink(), batch_size=BATCH
    )
    migrator.cancel()
    migrator.run()
    assert journal.state == "cancelled"
    assert cluster.num_partitions == OLD_K
    _assert_consistent(cluster, router)


def test_journal_serialisation_is_byte_deterministic():
    _, _, journal = _build()
    text = journal.dumps()
    reloaded = MigrationJournal.loads(text)
    assert reloaded.dumps() == text
    assert reloaded.plan.tuples_moved == journal.plan.tuples_moved
    assert reloaded.plan.replicas_added == journal.plan.replicas_added
    assert reloaded.state == journal.state


def test_journal_rejects_foreign_payloads():
    with pytest.raises(JournalFormatError):
        MigrationJournal.loads("{}")
    _, _, journal = _build()
    tampered = journal.dumps().replace(
        '"repro-migration-journal"', '"something-else"'
    )
    with pytest.raises(JournalFormatError):
        MigrationJournal.loads(tampered)


def _damaged(edit):
    """The test journal's text after ``edit`` mutated its parsed payload."""

    def damage():
        _, _, journal = _build()
        payload = journal.to_payload()
        payload = edit(payload) or payload
        return json.dumps(payload)

    return damage


def _set(path, value):
    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


def _truncated():
    _, _, journal = _build()
    text = journal.dumps()
    return text[: len(text) // 2]


DAMAGED_JOURNALS = {
    "json-array": _damaged(lambda payload: [payload]),
    "truncated-text": _truncated,
    "missing-copies": _damaged(lambda payload: payload.pop("copies") and None),
    "missing-kind": _damaged(lambda payload: payload.pop("kind") and None),
    "three-element-copy-row": _damaged(
        lambda payload: payload["copies"].__setitem__(0, payload["copies"][0][:3])
    ),
    "reordered-copy-row": _damaged(
        lambda payload: payload["copies"].__setitem__(
            0, payload["copies"][0][2:] + payload["copies"][0][:2]
        )
    ),
    "key-not-a-list": _damaged(lambda payload: payload["drops"][0].__setitem__(1, "7")),
    "partition-not-an-int": _damaged(lambda payload: payload["drops"][0].__setitem__(2, "0")),
    "version-true": _damaged(_set(("version",), True)),
    "version-zero": _damaged(_set(("version",), 0)),
    "version-string": _damaged(_set(("version",), "1")),
    "cursor-not-an-object": _damaged(_set(("cursor",), [])),
    "unknown-state": _damaged(_set(("cursor", "state"), "half-done")),
    "cursor-past-copies": _damaged(_set(("cursor", "copies_done"), 10_000)),
    "negative-cursor": _damaged(_set(("cursor", "drops_done"), -1)),
    "change-without-previous": _damaged(lambda payload: payload["previous"].pop(0) and None),
}


@pytest.mark.parametrize("damage", DAMAGED_JOURNALS.values(), ids=DAMAGED_JOURNALS.keys())
def test_damaged_journal_is_a_classified_error(damage, tmp_path):
    text = damage()
    with pytest.raises(JournalFormatError) as raised:
        MigrationJournal.loads(text)
    assert "\n" not in str(raised.value)
    path = tmp_path / "damaged.journal"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(JournalFormatError):
        FileJournalSink(path).load()


def test_resume_preserves_progress_cursors():
    cluster, router, journal = _build()
    sink = MemoryJournalSink()
    migrator = JournaledMigrator(
        cluster, router, journal, sink=sink, batch_size=BATCH
    )
    # Step past planning and one copy batch, then reload mid-flight.
    migrator.step()
    migrator.step()
    assert journal.state == "copying"
    snapshot = sink.load()
    assert snapshot.copies_done == journal.copies_done > 0
    assert snapshot.state == "copying"
    # A new migrator on the snapshot finishes from the cursor, not from zero.
    JournaledMigrator(cluster, router, snapshot, sink=sink, batch_size=BATCH).run()
    assert snapshot.state == "completed"
    _assert_consistent(cluster, router)
