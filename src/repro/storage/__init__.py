"""Real-storage cluster backend: SQLite partitions behind worker processes.

This package is the physical counterpart of :mod:`repro.distributed`: where
the simulated layer *counts* messages against in-memory dicts, here every
partition is a real SQLite database file (WAL mode) owned by a worker
**process**, crashes are processes dying (``SIGKILL``), and recovery is
SQLite's write-ahead log doing its job when a supervised replacement worker
reopens the file.

Layers, bottom to top:

* :mod:`repro.storage.sql` — compiles the mini-dialect statement ASTs to
  parameterised SQLite SQL;
* :mod:`repro.storage.sqlite_store` — one partition's database file: DDL
  from the catalog :class:`~repro.catalog.schema.Schema`, WAL journaling,
  and exactly-once transaction application via a dedup table;
* :mod:`repro.storage.worker` — the worker process owning one store, plus
  the parent-side :class:`~repro.storage.worker.WorkerHandle` speaking a
  sequence-numbered pipe protocol with per-request deadlines;
* :mod:`repro.storage.supervisor` — health-checks workers and restarts
  crashed ones, journaling each restart through the fsync'd
  :class:`~repro.online.migration.FileJournalSink`;
* :mod:`repro.storage.retry` — seeded retry/timeout/backoff policy whose
  schedules are byte-deterministic (:class:`~repro.utils.rng.SeededRng`
  fork per operation key), with retryable-vs-fatal error classification;
* :mod:`repro.storage.cluster` — the set of partition workers plus their
  supervisor, bulk loading, and chaos (:meth:`SqliteStorageCluster.kill_worker`);
* :mod:`repro.storage.coordinator` — routes statements with the existing
  :class:`~repro.routing.router.Router`, holds per-key write locks, retries
  with backoff, falls back to replicas for reads, and completes in-doubt
  transactions forward;
* :mod:`repro.storage.driver` — closed-loop concurrent clients measuring
  wall-clock throughput/latency/abort-rate, with the process-kill chaos
  hook;
* :mod:`repro.storage.migrator` — the journaled live migration's backend
  here: exactly-once cross-partition row movement through the dedup table,
  resumable after coordinator or worker kills;
* :mod:`repro.storage.deployment` — the layers above as one object: a plan
  stood up on SQLite behind one router, and the only way to resize it (the
  migrator runs under the coordinator's own locks and router).
"""

from repro.storage.cluster import SqliteStorageCluster
from repro.storage.coordinator import StorageCoordinator, StorageOutcome
from repro.storage.deployment import StorageDeployment
from repro.storage.driver import ClosedLoopDriver, DriverReport
from repro.storage.migrator import SqliteMigrationBackend, plan_storage_resize
from repro.storage.retry import (
    FATAL,
    RETRYABLE,
    RetryBudgetExhausted,
    RetryOptions,
    RetryPolicy,
    classify_error,
)
from repro.storage.sqlite_store import SqlitePartitionStore, StoreConstraintError
from repro.storage.supervisor import WorkerSupervisor
from repro.storage.worker import WorkerHandle, WorkerTimeout, WorkerUnavailable

__all__ = [
    "SqliteStorageCluster",
    "StorageCoordinator",
    "StorageOutcome",
    "ClosedLoopDriver",
    "DriverReport",
    "SqliteMigrationBackend",
    "StorageDeployment",
    "plan_storage_resize",
    "RetryOptions",
    "RetryPolicy",
    "RetryBudgetExhausted",
    "RETRYABLE",
    "FATAL",
    "classify_error",
    "SqlitePartitionStore",
    "StoreConstraintError",
    "WorkerSupervisor",
    "WorkerHandle",
    "WorkerTimeout",
    "WorkerUnavailable",
]
