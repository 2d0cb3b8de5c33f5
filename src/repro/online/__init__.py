"""Online adaptivity layer: closing the loop from live traffic to placement.

The offline Schism pipeline (:mod:`repro.pipeline`) partitions from a
static training trace and then freezes the system — the limitation the paper
itself flags when workloads drift.  This package keeps the partitioning
live:

* :mod:`repro.online.monitor` — streaming workload monitor: sliding-window /
  exponentially-decayed access statistics plus a drift detector (distributed
  fraction, per-partition load skew, hot-tuple churn vs. the baseline).
* :mod:`repro.online.maintainer` — incremental tuple-graph maintenance:
  decayed edge/node-weight deltas applied to a mutable
  :class:`~repro.graph.model.Graph`, re-frozen to CSR only on demand.
* :mod:`repro.online.repartitioner` — budgeted re-partitioning that
  warm-starts from the *current* assignment with an explicit migration-cost
  term, so small drifts produce small placement deltas.
* :mod:`repro.online.migration` — live migration planning and execution:
  ordered copy-before-drop steps run by the journaled, crash-safe
  :class:`JournaledMigrator` against any migration backend, paced between
  live transactions by :class:`MigrationSession`.
* :mod:`repro.online.controller` — :class:`OnlineSchism`, the controller
  wiring monitor -> maintainer -> re-partitioner -> migration, and
  :func:`start_online`, which deploys a plan as such a controller.
"""

from repro.online.controller import (
    AdaptationRecord,
    ElasticOptions,
    OnlineOptions,
    OnlineSchism,
    ResizeRecord,
    start_online,
)
from repro.online.maintainer import (
    IncrementalGraphMaintainer,
    MaintainerOptions,
    StarExpansion,
)
from repro.online.migration import (
    JournaledMigrator,
    MigrationPlan,
    MigrationReport,
    MigrationSession,
    MigrationStep,
    plan_migration,
)
from repro.online.monitor import DriftReport, MonitorOptions, WindowStats, WorkloadMonitor
from repro.online.repartitioner import (
    BudgetedRepartitioner,
    RepartitionOptions,
    RepartitionResult,
    ReplicatedRepartitionResult,
    align_partition_labels,
)

__all__ = [
    "AdaptationRecord",
    "BudgetedRepartitioner",
    "DriftReport",
    "ElasticOptions",
    "IncrementalGraphMaintainer",
    "JournaledMigrator",
    "MaintainerOptions",
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
