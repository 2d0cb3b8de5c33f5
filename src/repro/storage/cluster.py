"""The durable cluster: one SQLite file per partition, workers supervised.

:class:`SqliteStorageCluster` owns a directory of ``partition-N.sqlite``
files and the :class:`~repro.storage.supervisor.WorkerSupervisor` running a
worker process over each.  Bulk loading happens in the parent *before* the
workers start (each file is opened once, filled in one transaction, and
closed), so workers begin life on an already-consistent snapshot — the same
placement semantics as the simulated
:meth:`repro.distributed.cluster.Cluster.from_database`, with replicated
tuples landing on every partition their placement names.

After :meth:`close`, :meth:`open_store` reopens a partition's file directly
for the audit walks — reading the bytes that actually survived, not any
in-memory mirror.
"""

from __future__ import annotations

from pathlib import Path

from repro.catalog.schema import Schema
from repro.catalog.tuples import TupleId
from repro.core.strategies import PartitioningStrategy
from repro.engine.database import Database
from repro.obs import get_telemetry
from repro.storage.sqlite_store import SqlitePartitionStore
from repro.storage.supervisor import WorkerSupervisor
from repro.storage.worker import WorkerHandle


def partition_path(directory: str | Path, partition: int) -> Path:
    """The SQLite file backing ``partition`` inside ``directory``."""
    return Path(directory) / f"partition-{partition}.sqlite"


class SqliteStorageCluster:
    """A set of supervised partition workers over durable SQLite files."""

    def __init__(
        self,
        directory: str | Path,
        schema: Schema,
        num_partitions: int,
        *,
        journal_sink: object | None = None,
        health_interval_s: float = 0.05,
        startup_deadline_s: float = 30.0,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.schema = schema
        self.num_partitions = num_partitions
        self.paths = {
            partition: partition_path(self.directory, partition)
            for partition in range(num_partitions)
        }
        self.supervisor = WorkerSupervisor(
            {partition: str(path) for partition, path in self.paths.items()},
            schema,
            journal_sink=journal_sink,
            health_interval_s=health_interval_s,
            startup_deadline_s=startup_deadline_s,
        )
        self._started = False
        self._closed = False
        self._kills = get_telemetry().metrics.counter(
            "storage.worker_kills", "worker processes killed by the chaos harness"
        )

    @classmethod
    def from_database(
        cls,
        directory: str | Path,
        database: Database,
        strategy: PartitioningStrategy,
        **kwargs: object,
    ) -> "SqliteStorageCluster":
        """Materialise and load a cluster by placing every tuple of ``database``.

        Replicated tuples are copied to every partition ``strategy`` names
        for them (pass the strategy the router routes by).  Workers are
        *not* started — call :meth:`start` once loading is done.
        """
        cluster = cls(directory, database.schema, strategy.num_partitions, **kwargs)
        per_partition: dict[int, dict[str, list[dict]]] = {
            partition: {} for partition in range(strategy.num_partitions)
        }
        for table in database.schema.tables:
            for key, row in database.rows(table.name).items():
                placements = strategy.partitions_for_tuple(TupleId(table.name, key), row)
                for partition in placements:
                    per_partition[partition].setdefault(table.name, []).append(row)
        for partition, tables in per_partition.items():
            with SqlitePartitionStore(cluster.paths[partition], database.schema) as store:
                for table_name, rows in tables.items():
                    store.bulk_load(table_name, rows)
        return cluster

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> "SqliteStorageCluster":
        """Start every worker process and the supervisor's health loop."""
        if self._started:
            return self
        self.supervisor.start()
        self._started = True
        return self

    def close(self) -> None:
        """Stop the supervisor and every worker; files stay on disk."""
        if self._closed:
            return
        self.supervisor.close()
        self._closed = True

    # -- access ------------------------------------------------------------------------
    def handle(self, partition: int) -> WorkerHandle:
        """The live handle of ``partition`` (via the supervisor)."""
        return self.supervisor.handle(partition)

    def kill_worker(self, partition: int) -> None:
        """SIGKILL one partition's worker process (chaos entry point)."""
        self.supervisor.kill_worker(partition)
        self._kills.inc()

    def restart_count(self) -> int:
        """Worker restarts the supervisor has performed."""
        return self.supervisor.restart_count()

    # -- elastic resizing --------------------------------------------------------------
    def grow_to(self, num_partitions: int) -> None:
        """Add empty partitions (with live workers when started) up to
        ``num_partitions``.  Idempotent: re-attaching a resumed migration
        finds the partitions already present and does nothing."""
        if num_partitions <= self.num_partitions:
            return
        for partition in range(self.num_partitions, num_partitions):
            path = partition_path(self.directory, partition)
            # Run the DDL in the parent so the worker's own open (and any
            # direct audit open) finds the schema already materialised.
            SqlitePartitionStore(path, self.schema).close()
            self.paths[partition] = path
            self.supervisor.add_partition(partition, str(path))
        self.num_partitions = num_partitions

    def shrink_to(self, num_partitions: int) -> None:
        """Remove the evacuated partitions above ``num_partitions`` — their
        workers stop and their files are deleted.  Idempotent like
        :meth:`grow_to`."""
        if num_partitions >= self.num_partitions:
            return
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        for partition in range(num_partitions, self.num_partitions):
            self.supervisor.remove_partition(partition)
            path = self.paths.pop(partition, None)
            if path is None:
                continue
            for suffix in ("", "-wal", "-shm"):
                sidecar = path.with_name(path.name + suffix)
                if sidecar.exists():
                    sidecar.unlink()
        self.num_partitions = num_partitions

    def open_store(self, partition: int) -> SqlitePartitionStore:
        """Open a partition's file directly (audits; cluster must be closed)."""
        if self._started and not self._closed:
            raise RuntimeError("close the cluster before opening stores directly")
        return SqlitePartitionStore(self.paths[partition], self.schema)
