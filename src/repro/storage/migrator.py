"""Journaled live migration over the real SQLite worker cluster.

This is the integration seam between the two halves of the repo: the
crash-safe migration state machine of :mod:`repro.online.migration` (journal,
dual-write window, pacing, rollback) executing against the worker-process
storage backend of :mod:`repro.storage` (durable SQLite files, supervised
restarts, exactly-once application).

:class:`SqliteMigrationBackend` adapts a running
:class:`~repro.storage.cluster.SqliteStorageCluster` to the
:class:`~repro.online.migration.MigrationBackend` contract.  Three properties
make the steps safe under concurrent client traffic and SIGKILLs:

* **Exactly-once movement.**  Every copy/drop step applies through the
  partition's ``_repro_applied`` dedup table with a transaction id derived
  from the journal's ``migration_id`` plus the step's (action, tuple,
  partitions) — stable across resumes, unique across successive migrations.
  A step replayed after a crash reports ``duplicate``/``present``/``absent``
  and is counted as a skip, exactly like the simulated backend.
* **Step atomicity vs live writers.**  A copy reads the source replica and
  writes the destination as two worker round-trips; a client update landing
  between them would be lost at the destination after the flip.  The backend
  therefore acquires the same :class:`~repro.storage.coordinator.LockManager`
  tokens a single-key writer takes, for the duration of the step — share the
  coordinator's lock manager and copies serialise with conflicting client
  writes.  Tokens are acquired in the global sort order and only one tuple's
  tokens are held at a time, so no deadlock can form.
* **Crash patience.**  Worker requests ride the seeded
  :class:`~repro.storage.retry.RetryPolicy` and, like the coordinator, keep
  waiting out a supervisor restart window patiently rather than failing the
  migration on the first exhausted budget.

:func:`plan_storage_resize` builds a resize journal from the cluster's
*actual* tuple locations.  The executor is the backend-agnostic
:class:`~repro.online.migration.JournaledMigrator`, paced by a
:class:`~repro.online.migration.MigrationSession`; both are bound to this
backend in one place, :class:`~repro.storage.deployment.StorageDeployment`,
which is what shares the coordinator's lock manager and router with it.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.catalog.tuples import TupleId
from repro.core.strategies import hash_home, placement_at
from repro.graph.assignment import PartitionAssignment
from repro.online.migration import MigrationJournal, plan_migration
from repro.storage.cluster import SqliteStorageCluster
from repro.storage.coordinator import (
    PATIENT_ATTEMPTS,
    PATIENT_DELAY_S,
    LockManager,
)
from repro.storage.retry import RetryBudgetExhausted, RetryPolicy
from repro.utils.canonical_json import dumps_canonical


class SqliteMigrationBackend:
    """Adapts the worker cluster to the migration executor's backend contract."""

    def __init__(
        self,
        cluster: SqliteStorageCluster,
        *,
        migration_id: str,
        locks: LockManager,
        policy: RetryPolicy,
    ) -> None:
        self.cluster = cluster
        self.migration_id = migration_id
        self.locks = locks
        self.policy = policy

    # -- cluster shape -----------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self.cluster.num_partitions

    def grow_to(self, num_partitions: int) -> None:
        self.cluster.grow_to(num_partitions)

    def shrink_to(self, num_partitions: int) -> None:
        self.cluster.shrink_to(num_partitions)

    # -- worker requests ---------------------------------------------------------------
    def _request(self, partition: int, op: str, payload: object) -> object:
        return self.cluster.handle(partition).request(
            op, payload, timeout_s=self.policy.options.timeout_s
        )

    def _patiently(self, operation: str, key: object, attempt: Callable[[], object]) -> object:
        """Retry through restart windows like the coordinator's apply path."""
        last_error: RetryBudgetExhausted | None = None
        for _ in range(PATIENT_ATTEMPTS):
            try:
                return self.policy.run(operation, key, attempt)
            except RetryBudgetExhausted as error:
                last_error = error
                time.sleep(PATIENT_DELAY_S)
        assert last_error is not None
        raise last_error

    # -- step execution ----------------------------------------------------------------
    def _tokens(self, tuple_id: TupleId) -> list[tuple]:
        # The same tokens a single-key client write takes (see
        # write_lock_tokens), in the same global sort order.
        return sorted(
            [("key", tuple_id.table, tuple(tuple_id.key)), ("table-s", tuple_id.table)],
            key=repr,
        )

    def copy_tuple(self, tuple_id: TupleId, source: int, target: int) -> int | None:
        """Move one replica: export from ``source``, exactly-once apply to
        ``target``.  ``None`` = vanished at source, ``0`` = already present
        at target (dedup replay, or a dual-write landed it first)."""
        key = tuple(tuple_id.key)
        txn_id = (
            f"{self.migration_id}:copy:{tuple_id.table}:{key!r}:{source}->{target}"
        )
        tokens = self.locks.acquire(self._tokens(tuple_id))
        try:
            row = self._patiently(
                "migrate-export",
                (txn_id, "export"),
                lambda: self._request(source, "export_row", (tuple_id.table, key)),
            )
            if row is None:
                return None
            outcome = self._patiently(
                "migrate-in",
                (txn_id, "apply"),
                lambda: self._request(
                    target, "migrate_in", (txn_id, tuple_id.table, key, row)
                ),
            )
            if outcome == "applied":
                return len(dumps_canonical(row))
            return 0
        finally:
            self.locks.release(tokens)

    def drop_tuple(self, tuple_id: TupleId, partition: int) -> bool:
        """Exactly-once removal of a stale replica; ``False`` = already gone."""
        key = tuple(tuple_id.key)
        txn_id = f"{self.migration_id}:drop:{tuple_id.table}:{key!r}:{partition}"
        tokens = self.locks.acquire(self._tokens(tuple_id))
        try:
            outcome = self._patiently(
                "migrate-out",
                (txn_id, "apply"),
                lambda: self._request(
                    partition, "migrate_out", (txn_id, tuple_id.table, key)
                ),
            )
            return outcome == "applied"
        finally:
            self.locks.release(tokens)

    def tuple_locations_map(self) -> dict[TupleId, frozenset[int]]:
        """Where every tuple physically lives, by asking each worker."""
        locations: dict[TupleId, set[int]] = {}
        for partition in range(self.cluster.num_partitions):
            rows = self._patiently(
                "migrate-locations",
                ("locations", partition),
                lambda p=partition: self._request(p, "tuple_ids", None),
            )
            for table, key in rows:
                tuple_id = TupleId(table, tuple(key))
                locations.setdefault(tuple_id, set()).add(partition)
        return {
            tuple_id: frozenset(partitions)
            for tuple_id, partitions in locations.items()
        }


def plan_storage_resize(
    backend: SqliteMigrationBackend, new_num_partitions: int
) -> MigrationJournal:
    """Build the resize journal for a running cluster from its real contents.

    Singleton tuples re-home to their hash placement at the new partition
    count (the same target rule as the simulated controller's resize);
    replicated tuples keep every location that survives the resize.  The
    returned journal has ``backend="storage"`` and carries the backend's
    ``migration_id``, so any later executor over it — including one attached
    after a crash — derives the same exactly-once transaction ids.
    """
    if new_num_partitions <= 0:
        raise ValueError("new_num_partitions must be positive")
    if new_num_partitions == backend.num_partitions:
        # Re-homing every singleton to its hash home at the *same* k would
        # silently replace the deployed placement with hash partitioning.
        raise ValueError("resize to the current partition count is a no-op")
    locations = backend.tuple_locations_map()
    assignment = PartitionAssignment(new_num_partitions)
    for tuple_id, resident in sorted(locations.items()):
        if len(resident) > 1:
            assignment.assign(
                tuple_id, placement_at(tuple_id, resident, new_num_partitions)
            )
        else:
            assignment.assign(tuple_id, hash_home(tuple_id, new_num_partitions))
    plan = plan_migration(lambda tuple_id: locations[tuple_id], assignment)
    return MigrationJournal.for_plan(
        plan,
        kind="resize",
        old_num_partitions=backend.num_partitions,
        new_num_partitions=new_num_partitions,
        migration_id=backend.migration_id,
        backend="storage",
    )
