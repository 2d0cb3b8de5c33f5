"""One plan standing on SQLite — and the only way to resize it.

The paper's runtime is one router over one placement in front of the
partitions (§3, App. C.1–C.2).  :class:`StorageDeployment` is that runtime
on the real backend, composed of the public pieces
(:class:`~repro.routing.router.Router`,
:class:`~repro.storage.cluster.SqliteStorageCluster`,
:class:`~repro.storage.coordinator.StorageCoordinator`,
:class:`~repro.online.migration.JournaledMigrator` over
:class:`~repro.storage.migrator.SqliteMigrationBackend`).  It adds no
behaviour; it is where the conditions a hand-wired copy must remember hold
by construction — ``docs/ARCHITECTURE.md``, "Migration on real storage",
states them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.strategies import PartitioningStrategy
from repro.distributed.faults import FaultInjector
from repro.engine.database import Database
from repro.online.migration import (
    MIGRATION_BATCH_SIZE,
    FileJournalSink,
    JournaledMigrator,
    MemoryJournalSink,
    MigrationJournal,
    MigrationSession,
)
from repro.online.policy import MigrationPacer
from repro.routing.router import Router
from repro.storage.cluster import SqliteStorageCluster
from repro.storage.coordinator import StorageCoordinator
from repro.storage.migrator import SqliteMigrationBackend, plan_storage_resize
from repro.storage.retry import RetryOptions


@dataclass
class StorageDeployment:
    """A started worker cluster and the coordinator in front of it; a context
    manager that stops the workers on exit (the files stay for the audits)."""

    cluster: SqliteStorageCluster
    coordinator: StorageCoordinator

    @classmethod
    def start(
        cls,
        strategy: PartitioningStrategy,
        database: Database,
        directory: str | Path,
        *,
        oracle: Database | None = None,
        retry_options: RetryOptions | None = None,
        seed: int = 0,
    ) -> "StorageDeployment":
        """Load ``database`` into files under ``directory`` by ``strategy``,
        put a coordinator in front of them, and start the workers.

        The router routes by the same strategy the files are loaded with.
        ``oracle`` receives every committed write (the audits'
        reference); ``retry_options``/``seed`` are the coordinator's and
        every later resize's.
        """
        router = Router(strategy, database.schema)
        cluster = SqliteStorageCluster.from_database(directory, database, strategy)
        coordinator = StorageCoordinator(
            cluster, router, oracle=oracle, retry_options=retry_options, seed=seed
        )
        # Last, so nothing can fail between starting the workers and handing
        # the caller the object whose exit stops them.
        cluster.start()
        return cls(cluster, coordinator)

    @property
    def router(self) -> Router:
        """The router client traffic and migrations share."""
        return self.coordinator.router

    def close(self) -> None:
        """Stop the workers."""
        self.cluster.close()

    def __enter__(self) -> "StorageDeployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- live resize -------------------------------------------------------------------
    def _backend(self, migration_id: str) -> SqliteMigrationBackend:
        # Read at call time: a lock-order witness or tracing proxy installed
        # on the coordinator is then the one the migrator uses too.
        return SqliteMigrationBackend(
            self.cluster,
            migration_id=migration_id,
            locks=self.coordinator.locks,
            policy=self.coordinator.policy,
        )

    def begin_resize(
        self,
        new_num_partitions: int,
        *,
        migration_id: str,
        sink: MemoryJournalSink | FileJournalSink,
        pacer: MigrationPacer | None = None,
        batch_size: int = MIGRATION_BATCH_SIZE,
        injector: FaultInjector | None = None,
    ) -> MigrationSession:
        """Plan a resize from the files' real contents, make the planned
        journal durable in ``sink``, and return the session that executes it.

        Raises ``ValueError`` for a non-positive or the current partition
        count (see :func:`~repro.storage.migrator.plan_storage_resize`).
        """
        journal = plan_storage_resize(self._backend(migration_id), new_num_partitions)
        sink.write(journal.dumps())
        return self.attach_resize(
            journal, sink=sink, pacer=pacer, batch_size=batch_size, injector=injector
        )

    def attach_resize(
        self,
        journal: MigrationJournal,
        *,
        sink: MemoryJournalSink | FileJournalSink,
        pacer: MigrationPacer | None = None,
        batch_size: int = MIGRATION_BATCH_SIZE,
        injector: FaultInjector | None = None,
    ) -> MigrationSession:
        """A session over ``journal`` — fresh from :meth:`begin_resize`, or
        reloaded from the sink after the previous migrator died (resume it
        with ``tick``/``run_to_completion``, or ``cancel`` it first)."""
        migrator = JournaledMigrator(
            self._backend(journal.migration_id),
            self.coordinator.router,
            journal,
            sink=sink,
            batch_size=batch_size,
            injector=injector,
        )
        return MigrationSession(migrator, pacer=pacer)
