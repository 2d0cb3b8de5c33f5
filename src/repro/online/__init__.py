"""Online adaptivity layer: closing the loop from live traffic to placement.

The offline Schism pipeline (:mod:`repro.pipeline`) partitions from a
static training trace and then freezes the system — the limitation the paper
itself flags when workloads drift.  This package keeps the partitioning
live:

* :mod:`repro.online.monitor` — streaming workload monitor: sliding window,
  transaction rate and a drift detector (distributed fraction,
  per-partition load skew, hot-tuple churn vs. the baseline); it feeds the
  maintainer and reads its hot set and read fractions from it.
* :mod:`repro.online.maintainer` — incremental tuple-graph maintenance:
  decayed edge/node-weight deltas applied to a mutable
  :class:`~repro.graph.model.Graph`, re-frozen to CSR only on demand; its
  node weights and read/write splits are the loop's one decayed per-tuple
  access ledger.
* :mod:`repro.online.repartitioner` — budgeted re-partitioning that
  warm-starts from the *current* assignment with an explicit migration-cost
  term, so small drifts produce small placement deltas.
* :mod:`repro.online.migration` — live migration planning and execution:
  ordered copy-before-drop steps run by the journaled, crash-safe
  :class:`JournaledMigrator` against any migration backend, paced between
  live transactions by :class:`MigrationSession`.
* :mod:`repro.online.policy` — the elastic resize policy and the SLO-aware
  migration pacer: pure functions of observed rates.
* :mod:`repro.online.controller` — :class:`OnlineSchism`, the loop wiring
  monitor -> maintainer -> re-partitioner -> migration over any
  :class:`~repro.online.migration.MigrationBackend`.

:func:`start_online`, defined here, deploys a plan on the simulated cluster
as such a controller.
"""

from __future__ import annotations

from repro.distributed.cluster import Cluster
from repro.engine.database import Database
from repro.online.controller import (
    AdaptationRecord,
    OnlineOptions,
    OnlineSchism,
    ResizeRecord,
)
from repro.online.maintainer import IncrementalGraphMaintainer, StarExpansion
from repro.online.migration import (
    JournaledMigrator,
    MigrationPlan,
    MigrationReport,
    MigrationSession,
    MigrationStep,
    plan_migration,
)
from repro.online.monitor import DriftReport, MonitorOptions, WindowStats, WorkloadMonitor
from repro.online.policy import ElasticOptions
from repro.online.repartitioner import (
    BudgetedRepartitioner,
    RepartitionOptions,
    RepartitionResult,
    ReplicatedRepartitionResult,
    align_partition_labels,
)
from repro.pipeline.plan import PartitionPlan
from repro.routing.router import Router
from repro.workload.rwsets import AccessTrace

__all__ = [
    "AdaptationRecord",
    "BudgetedRepartitioner",
    "DriftReport",
    "ElasticOptions",
    "IncrementalGraphMaintainer",
    "JournaledMigrator",
    "MigrationPlan",
    "MigrationReport",
    "MigrationSession",
    "MigrationStep",
    "MonitorOptions",
    "OnlineOptions",
    "OnlineSchism",
    "RepartitionOptions",
    "RepartitionResult",
    "ReplicatedRepartitionResult",
    "ResizeRecord",
    "StarExpansion",
    "WindowStats",
    "WorkloadMonitor",
    "align_partition_labels",
    "plan_migration",
    "start_online",
]


def start_online(
    plan: PartitionPlan,
    database: Database,
    online_options: OnlineOptions | None = None,
    warm_up_trace: AccessTrace | None = None,
) -> OnlineSchism:
    """Deploy a partitioning decision as a live, self-adapting system.

    Materialises the cluster from ``database`` under the deployment
    strategy of ``plan``, builds the router, and returns an
    :class:`OnlineSchism` controller.  The controller closes the loop on
    live traffic (``observe`` / ``observe_batches``): it detects drift,
    re-partitions under a migration budget — widening read-hot tuples into
    **replica sets** when their decayed read/write ratio clears the
    ``OnlineOptions.replication_*`` thresholds — and, when
    ``OnlineOptions.elastic`` is enabled, grows or shrinks
    ``num_partitions`` to follow the offered load.  Its live placement can
    be exported back as a plan at any time
    (:meth:`OnlineSchism.export_plan`), closing the offline -> online ->
    artifact loop.

    Parameters
    ----------
    plan:
        The :class:`PartitionPlan` to deploy — fresh from a pipeline run
        (``run.plan()``) or loaded from disk.
    database:
        The loaded database the cluster is materialised from.
    online_options:
        :class:`OnlineOptions` for the loop (monitor/repartition knobs,
        replication thresholds, elastic policy); defaults throughout when
        omitted.
    warm_up_trace:
        Optional trace to seed the monitor/maintainer with (the offline
        training trace, ``run.state.training_trace``, typically).  Without
        it the controller starts from an empty drift baseline — the common
        case for a plan loaded from a file, which deliberately does not
        embed the trace.

    The deployment is always a lookup table of explicit placements — live
    migration updates per-tuple placements, which only it can express — over
    the candidate that won the offline validation
    (:meth:`PartitionPlan.deployment_strategy`).  The last resort for a
    tuple neither layer places is ``"hash"`` whatever the plan recorded:
    implicit full replication would make every later write to an untracked
    tuple a cluster-wide transaction.
    """
    strategy = plan.deployment_strategy("hash")
    cluster = Cluster.from_database(database, strategy)
    router = Router(strategy, database.schema)
    controller = OnlineSchism(cluster, router, online_options)
    controller.source_plan = plan
    if warm_up_trace is not None:
        controller.warm_up(warm_up_trace)
    else:
        controller.monitor.set_baseline()
    return controller
