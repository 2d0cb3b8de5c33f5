"""Kill-at-every-journal-record matrix for the real-storage migrator.

The storage mirror of ``tests/online/test_journaled_migration.py``: a
12-tuple 2 -> 4 resize, but the tuples are rows in SQLite partition files
owned by worker processes and every copy/drop is a real cross-partition row
movement through the ``_repro_applied`` dedup table.  For every journal
record index the migration coordinator is killed right after that record
became durable (persist-then-kill), and the surviving cluster must reach a
consistent end state both ways:

* **resume**: a fresh session attached to the reloaded journal
  (:meth:`StorageDeployment.attach_resize`) completes the resize, replaying
  at most one idempotent batch;
* **cancel**: the fresh session rolls the resize back, restoring the
  pre-migration placement and deleting the added partitions' files.

Either way the SQLite files are audited row by row against the oracle
database: no lost rows, no phantoms, no unreachable tuples, exact tuple
conservation.  The record count is derived from a fault-free dry run of the
*identical* plan on the simulated cluster — same state machine, same batch
size — so collection never spawns worker processes.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Schema, Table, integer_column, string_column
from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning, hash_home
from repro.distributed.cluster import Cluster
from repro.distributed.faults import CoordinatorDeath, CoordinatorKill, FaultPlan
from repro.engine.database import Database
from repro.graph.assignment import PartitionAssignment
from repro.online.migration import (
    JournaledMigrator,
    MemoryJournalSink,
    MigrationJournal,
    plan_migration,
)
from repro.routing.router import Router
from repro.storage import StorageDeployment

pytestmark = [pytest.mark.storage, pytest.mark.slow]

NUM_TUPLES = 12
OLD_K = 2
NEW_K = 4
BATCH = 3
MIGRATION_ID = "matrix"


def _tid(i: int) -> TupleId:
    return TupleId("account", (i,))


def _schema() -> Schema:
    return Schema(
        "bank",
        [
            Table(
                "account",
                [integer_column("id"), string_column("name"), integer_column("bal")],
                primary_key=["id"],
            )
        ],
    )


def _database() -> Database:
    database = Database(_schema())
    for i in range(NUM_TUPLES):
        database.insert_row("account", {"id": i, "name": f"acct-{i}", "bal": 100 + i})
    return database


def _old_assignment() -> PartitionAssignment:
    old = PartitionAssignment(OLD_K)
    for i in range(NUM_TUPLES):
        old.assign(_tid(i), {i % OLD_K})
    return old


def _dry_run_records() -> int:
    """Fault-free record count of this exact scenario, no worker processes.

    ``plan_storage_resize`` re-homes every singleton to ``hash_home`` at the
    new partition count; replaying that same plan through the *simulated*
    cluster walks the identical journal record stream (the state machine and
    batch size are shared), giving the matrix bound without any subprocess
    at collection time.
    """
    database = _database()
    old = _old_assignment()
    strategy = LookupTablePartitioning(OLD_K, old, "hash")
    cluster = Cluster.from_database(database, strategy)
    router = Router(strategy, database.schema)
    new = PartitionAssignment(NEW_K)
    for i in range(NUM_TUPLES):
        new.assign(_tid(i), hash_home(_tid(i), NEW_K))
    plan = plan_migration(strategy.partitions_for_tuple, new)
    journal = MigrationJournal.for_plan(
        plan,
        kind="resize",
        old_num_partitions=OLD_K,
        new_num_partitions=NEW_K,
    )
    JournaledMigrator(
        cluster, router, journal, sink=MemoryJournalSink(), batch_size=BATCH
    ).run()
    assert journal.state == "completed"
    return journal.records


TOTAL_RECORDS = _dry_run_records()


def _deploy(tmp_path):
    """A started 2-partition deployment plus its (never written) oracle."""
    database = _database()
    strategy = LookupTablePartitioning(OLD_K, _old_assignment(), "hash")
    return StorageDeployment.start(strategy, database, tmp_path / "cluster"), database


def _assert_files_match_oracle(deployment, database, expected_k: int) -> None:
    """Audit the closed cluster's SQLite files row by row against the oracle."""
    cluster, router = deployment.cluster, deployment.router
    assert cluster.num_partitions == expected_k
    deployment.close()
    locations: dict[TupleId, set[int]] = {}
    for partition in range(cluster.num_partitions):
        store = cluster.open_store(partition)
        try:
            for key, row in store.all_rows("account").items():
                tuple_id = TupleId("account", key)
                locations.setdefault(tuple_id, set()).add(partition)
                assert database.get_row(tuple_id) == row, tuple_id  # lost/phantom
        finally:
            store.close()
    assert set(locations) == set(database.all_tuple_ids())  # conservation
    for tuple_id, resident in locations.items():
        placement = router.placement_of(tuple_id)
        assert any(partition in resident for partition in placement), tuple_id


def _kill_matrix_setup(tmp_path, kill_at: int):
    """Run the migration into a coordinator kill at record ``kill_at``."""
    deployment, database = _deploy(tmp_path)
    sink = MemoryJournalSink()
    injector = FaultPlan(
        seed=7, coordinator_kills=(CoordinatorKill(at_record=kill_at),)
    ).build()
    try:
        session = deployment.begin_resize(
            NEW_K, migration_id=MIGRATION_ID, sink=sink, batch_size=BATCH, injector=injector
        )
        with pytest.raises(CoordinatorDeath):
            session.run_to_completion()
    except BaseException:
        deployment.close()
        raise
    resumed = sink.load()
    # persist-then-kill: the record the kill targeted reached the sink.
    assert resumed.records == kill_at
    assert resumed.migration_id == MIGRATION_ID
    assert resumed.backend == "storage"
    return deployment, database, sink, resumed


def test_forward_run_completes_and_files_are_consistent(tmp_path):
    deployment, database = _deploy(tmp_path)
    with deployment:
        sink = MemoryJournalSink()
        session = deployment.begin_resize(
            NEW_K, migration_id=MIGRATION_ID, sink=sink, batch_size=BATCH
        )
        # the planned journal is durable before the first step runs.
        assert sink.load().state == "planned" and sink.load().records == 0
        journal = session.journal
        report = session.run_to_completion()
        assert journal.state == "completed"
        assert journal.records == TOTAL_RECORDS
        assert report.copies == len(journal.plan.copies)
        assert report.drops == len(journal.plan.drops)
        assert report.skipped == 0
        assert report.bytes_copied > 0
        _assert_files_match_oracle(deployment, database, NEW_K)


@pytest.mark.parametrize("kill_at", range(1, TOTAL_RECORDS + 1))
def test_kill_at_every_record_then_resume_completes(tmp_path, kill_at):
    deployment, database, sink, resumed = _kill_matrix_setup(tmp_path, kill_at)
    with deployment:
        deployment.attach_resize(resumed, sink=sink, batch_size=BATCH).run_to_completion()
        assert resumed.state == "completed"
        _assert_files_match_oracle(deployment, database, NEW_K)


@pytest.mark.parametrize("kill_at", range(1, TOTAL_RECORDS + 1))
def test_kill_at_every_record_then_cancel_rolls_back(tmp_path, kill_at):
    deployment, database, sink, resumed = _kill_matrix_setup(tmp_path, kill_at)
    with deployment:
        recovery = deployment.attach_resize(resumed, sink=sink, batch_size=BATCH)
        if resumed.is_terminal:
            # Killed at the final record: nothing left to cancel, and
            # cancelling a terminal journal must refuse.
            with pytest.raises(ValueError):
                recovery.cancel()
            _assert_files_match_oracle(deployment, database, NEW_K)
            return
        recovery.cancel()
        recovery.run_to_completion()
        assert resumed.state == "cancelled"
        # Rollback undoes everything: back at the old k, the added
        # partitions' files deleted, the old placement routable.
        _assert_files_match_oracle(deployment, database, OLD_K)
        for partition in range(OLD_K, NEW_K):
            assert not (tmp_path / "cluster" / f"partition-{partition}.sqlite").exists()


def test_worker_sigkill_mid_copy_rides_through(tmp_path):
    """A SIGKILLed partition worker mid-migration is waited out, not fatal."""
    deployment, database = _deploy(tmp_path)
    with deployment:
        session = deployment.begin_resize(
            NEW_K, migration_id=MIGRATION_ID, sink=MemoryJournalSink(), batch_size=BATCH
        )
        session.tick()  # planned -> copying (window open)
        session.tick()  # first copy batch
        assert session.journal.state == "copying"
        deployment.cluster.kill_worker(0)
        session.run_to_completion()
        assert session.journal.state == "completed"
        assert deployment.cluster.restart_count() >= 1
        _assert_files_match_oracle(deployment, database, NEW_K)


def test_begin_resize_rejects_bad_partition_count(tmp_path):
    deployment, _ = _deploy(tmp_path)
    with deployment:
        with pytest.raises(ValueError, match="must be positive"):
            deployment.begin_resize(0, migration_id=MIGRATION_ID, sink=MemoryJournalSink())
