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

from __future__ import annotations

import importlib

#: public name -> defining module, imported on first access (PEP 562): a
#: worker process imports :mod:`repro.storage.worker` through this package
#: and must not pay for the coordinator, the router and the planner behind
#: it -- it runs SQLite and nothing else.
_EXPORTS = {
    "SqliteStorageCluster": "repro.storage.cluster",
    "StorageCoordinator": "repro.storage.coordinator",
    "StorageOutcome": "repro.storage.coordinator",
    "ClosedLoopDriver": "repro.storage.driver",
    "DriverReport": "repro.storage.driver",
    "SqliteMigrationBackend": "repro.storage.migrator",
    "StorageDeployment": "repro.storage.deployment",
    "plan_storage_resize": "repro.storage.migrator",
    "RetryOptions": "repro.storage.retry",
    "RetryPolicy": "repro.storage.retry",
    "RetryBudgetExhausted": "repro.storage.retry",
    "RETRYABLE": "repro.storage.retry",
    "FATAL": "repro.storage.retry",
    "classify_error": "repro.storage.retry",
    "SqlitePartitionStore": "repro.storage.sqlite_store",
    "StoreConstraintError": "repro.storage.sqlite_store",
    "WorkerSupervisor": "repro.storage.supervisor",
    "WorkerHandle": "repro.storage.worker",
    "WorkerTimeout": "repro.storage.worker",
    "WorkerUnavailable": "repro.storage.worker",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
