"""Online-drift experiments: adaptation cost, replication, elasticity.

Not figures from the paper — the paper stops at the one-shot pipeline and
explicitly flags workload drift as an open problem.  Three experiments close
the loop:

* :func:`run_online_drift` — train offline on phase 0 of a rotating-hotspot
  workload, stream phase 1 through the
  :class:`~repro.online.controller.OnlineSchism` controller, and compare the
  **budgeted** adaptation (warm-started, migration-cost-aware) against a
  **from-scratch** re-partition of the same maintained graph (label-aligned
  so moves are genuine) on distributed fraction recovered vs. tuples moved.
* :func:`run_read_hot_drift` — phase 1 of a read-hot-skew workload makes a
  few tuples read-hot; the **replication-aware** adaptation widens them into
  replica sets (at a bounded migration budget) and the distributed fraction
  of the drifted traffic collapses, while the rare writes to the replicated
  tuples keep paying the all-replica consistency cost.
* :func:`run_elastic_scaling` — offered load rises then falls; the elastic
  policy grows and then shrinks ``num_partitions`` through the live
  copy-before-drop path, keeping every tuple reachable throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost import evaluate_strategy
from repro.online import start_online
from repro.online.controller import OnlineOptions, OnlineSchism
from repro.online.monitor import MonitorOptions
from repro.online.policy import ElasticOptions
from repro.online.repartitioner import RepartitionOptions
from repro.pipeline import Pipeline, SchismOptions
from repro.workload.rwsets import extract_access_trace
from repro.workload.trace import iter_chunks
from repro.workloads.drifting import generate_read_hot_skew, generate_rotating_hotspot


def _deploy_offline(
    database, training_workload, num_partitions: int, options: OnlineOptions,
    workload_name: str | None = None,
) -> OnlineSchism:
    """Run the offline pipeline and deploy its plan as a live controller.

    The offline->online handoff every experiment here shares: the pipeline
    produces a :class:`~repro.pipeline.plan.PartitionPlan`, ``start_online``
    consumes it, and the training trace warms the monitor/maintainer so the
    loop starts from what the offline phase learned.
    """
    run = Pipeline(SchismOptions(num_partitions=num_partitions)).run(
        database, training_workload
    )
    plan = run.plan(created_by="experiments.online_drift", workload=workload_name)
    return start_online(
        plan, database, options, warm_up_trace=run.state.training_trace
    )


@dataclass
class OnlineDriftReport:
    """Outcome of one online-drift run."""

    num_partitions: int
    #: distributed fraction of the drifted traffic before any adaptation.
    distributed_before: float
    #: after the budgeted adaptation.
    distributed_budgeted: float
    #: what a from-scratch re-partition would have achieved.
    distributed_full: float
    tuples_moved_budgeted: int
    tuples_moved_full: int
    cut_before: float
    cut_budgeted: float
    cut_full: float
    drift_detected: bool

    @property
    def move_fraction(self) -> float:
        """Budgeted moves as a fraction of from-scratch moves."""
        if self.tuples_moved_full == 0:
            return 0.0
        return self.tuples_moved_budgeted / self.tuples_moved_full


def run_online_drift(
    num_partitions: int = 4,
    num_rows: int = 1200,
    transactions_per_phase: int = 800,
    uniform_fraction: float = 0.3,
    seed: int = 0,
) -> OnlineDriftReport:
    """Run the drift-and-adapt scenario and return the comparison report."""
    bundle = generate_rotating_hotspot(
        num_rows=num_rows,
        transactions_per_phase=transactions_per_phase,
        num_phases=2,
        uniform_fraction=uniform_fraction,
        seed=seed,
    )
    database = bundle.database
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=400, min_window_fill=100),
        repartition=RepartitionOptions(
            migration_cost_weight=0.25, imbalance=0.10, max_passes=12
        ),
    )
    controller = _deploy_offline(
        database, bundle.training, num_partitions, options, bundle.name
    )
    drifted_trace = extract_access_trace(database, bundle.phases[1])
    observation = controller.observe(drifted_trace, auto_adapt=False)
    distributed_before = evaluate_strategy(
        controller.strategy, drifted_trace, database
    ).distributed_fraction
    drift_detected = any(report.drifted for report in observation.drift_reports)

    # From-scratch baseline: previewed (not applied), labels aligned.
    tuples = controller.maintainer.tuples()
    full = controller.preview_full_repartition()
    full_strategy = controller.strategy.with_assignment(
        num_partitions,
        controller.merged_placements(
            tuples, [frozenset({part}) for part in full.assignment]
        ),
    )
    distributed_full = evaluate_strategy(
        full_strategy, drifted_trace, database
    ).distributed_fraction

    record = controller.adapt()
    distributed_budgeted = evaluate_strategy(
        controller.strategy, drifted_trace, database
    ).distributed_fraction
    return OnlineDriftReport(
        num_partitions=num_partitions,
        distributed_before=distributed_before,
        distributed_budgeted=distributed_budgeted,
        distributed_full=distributed_full,
        tuples_moved_budgeted=record.repartition.num_moved,
        tuples_moved_full=full.num_moved,
        cut_before=record.repartition.cut_before,
        cut_budgeted=record.repartition.cut_after,
        cut_full=full.cut_after,
        drift_detected=drift_detected,
    )


@dataclass
class ReadHotDriftReport:
    """Outcome of one replication-aware read-hot drift run."""

    num_partitions: int
    #: distributed fraction of the drifted traffic before any adaptation.
    distributed_before: float
    #: after the replication-aware budgeted adaptation.
    distributed_after: float
    #: hot tuples the adaptation left replicated / total hot tuples.
    hot_replicated: int
    num_hot: int
    #: tuples whose replica set changed, and the copies that cost.
    tuples_changed: int
    replica_copies: int
    migration_budget: float
    migration_cost: float
    drift_detected: bool
    #: mean decayed read fraction of the hot tuples as the monitor saw them
    #: (the signal that makes them replication candidates).
    monitor_hot_read_fraction: float = 0.0

    @property
    def improvement(self) -> float:
        """How many times smaller the distributed fraction became."""
        if self.distributed_after <= 0.0:
            return float("inf")
        return self.distributed_before / self.distributed_after


def run_read_hot_drift(
    num_partitions: int = 4,
    num_rows: int = 1200,
    transactions_per_phase: int = 800,
    num_hot: int = 8,
    migration_budget: float = 120.0,
    seed: int = 0,
) -> ReadHotDriftReport:
    """Run the read-hot drift scenario through the replication-aware loop.

    The migration budget bounds what the adaptation may copy; the hot set is
    small, so widening it into replica sets fits comfortably while a
    whole-placement reshuffle would not.
    """
    bundle = generate_read_hot_skew(
        num_rows=num_rows,
        transactions_per_phase=transactions_per_phase,
        num_hot=num_hot,
        seed=seed,
    )
    database = bundle.database
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=400, min_window_fill=100),
        repartition=RepartitionOptions(
            migration_cost_weight=0.25,
            imbalance=0.10,
            max_passes=12,
            migration_budget=migration_budget,
        ),
        # The scenario writes each hot tuple ~5% of the time; a couple of
        # unlucky draws can push a tuple's decayed read fraction just below
        # the 0.9 default, so give the candidate filter a little slack.
        replication_min_read_fraction=0.85,
    )
    controller = _deploy_offline(
        database, bundle.training, num_partitions, options, bundle.name
    )
    drifted = extract_access_trace(database, bundle.phases[1])
    observation = controller.observe(drifted, auto_adapt=False)
    distributed_before = evaluate_strategy(
        controller.strategy, drifted, database
    ).distributed_fraction
    record = controller.adapt()
    distributed_after = evaluate_strategy(
        controller.strategy, drifted, database
    ).distributed_fraction
    hot_keys = bundle.metadata["hot_keys"]
    assignment = controller.strategy.assignment
    from repro.catalog.tuples import TupleId

    hot_replicated = sum(
        1
        for key in hot_keys
        if assignment.is_replicated(TupleId("usertable", (key,)))
    )
    monitor = controller.monitor
    hot_read_fraction = sum(
        monitor.read_fraction(TupleId("usertable", (key,))) for key in hot_keys
    ) / len(hot_keys)
    return ReadHotDriftReport(
        num_partitions=num_partitions,
        distributed_before=distributed_before,
        distributed_after=distributed_after,
        hot_replicated=hot_replicated,
        num_hot=num_hot,
        tuples_changed=record.plan.tuples_changed,
        replica_copies=record.plan.replicas_added,
        migration_budget=migration_budget,
        migration_cost=record.repartition.migration_cost,
        drift_detected=any(report.drifted for report in observation.drift_reports),
        monitor_hot_read_fraction=hot_read_fraction,
    )


def format_read_hot_drift(report: ReadHotDriftReport) -> str:
    """Render the replication-aware adaptation outcome as text."""
    return "\n".join(
        [
            "Read-hot drift: replication-aware adaptation",
            f"  distributed fraction: {report.distributed_before:.1%} -> "
            f"{report.distributed_after:.1%} ({report.improvement:.1f}x better)",
            f"  hot tuples replicated: {report.hot_replicated}/{report.num_hot} "
            f"(monitor-observed read fraction {report.monitor_hot_read_fraction:.1%})",
            f"  tuples changed: {report.tuples_changed} "
            f"({report.replica_copies} replica copies, "
            f"cost {report.migration_cost:.0f} of budget {report.migration_budget:.0f})",
            f"  drift detected: {report.drift_detected}",
        ]
    )


@dataclass
class ElasticScalingReport:
    """Outcome of one elastic grow-then-shrink run."""

    initial_partitions: int
    #: partition count after each resize, in order.
    partition_trajectory: list[int] = field(default_factory=list)
    #: (old, new, copies, drops) per resize.
    resizes: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: tuples stored in the cluster that the router could not reach, checked
    #: after every resize (must stay 0 throughout).
    unreachable_tuples: int = 0

    @property
    def grew(self) -> bool:
        """Whether at least one resize added partitions."""
        return any(new > old for old, new, _, _ in self.resizes)

    @property
    def shrank(self) -> bool:
        """Whether at least one resize removed partitions."""
        return any(new < old for old, new, _, _ in self.resizes)


def run_elastic_scaling(
    num_partitions: int = 2,
    num_rows: int = 600,
    transactions_per_phase: int = 900,
    high_batch: int = 300,
    low_batch: int = 30,
    target_rate_per_partition: float = 50.0,
    seed: int = 0,
) -> ElasticScalingReport:
    """Offered load rises then falls; the elastic policy follows it.

    Phase-1 traffic of a rotating-hotspot stream is replayed twice: first in
    ``high_batch``-sized epochs (high offered load — the policy grows), then
    in ``low_batch``-sized epochs (load collapse — the policy shrinks).
    Batches are fed one at a time, so the whole cluster is audited for
    unreachable tuples immediately after every batch that resized.
    """
    bundle = generate_rotating_hotspot(
        num_rows=num_rows,
        transactions_per_phase=transactions_per_phase,
        num_phases=2,
        hot_window=150,
        seed=seed,
    )
    database = bundle.database
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=400, min_window_fill=100),
        repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
        elastic=ElasticOptions(
            enabled=True,
            target_rate_per_partition=target_rate_per_partition,
            min_partitions=2,
            max_partitions=16,
            cooldown_batches=2,
        ),
    )
    controller = _deploy_offline(
        database, bundle.training, num_partitions, options, bundle.name
    )
    drifted = extract_access_trace(database, bundle.phases[1])
    report = ElasticScalingReport(initial_partitions=controller.num_partitions)

    def audit() -> int:
        unreachable = 0
        for tuple_id in controller.cluster.all_tuple_ids():
            placement = controller.strategy.partitions_for_tuple(tuple_id)
            if not any(
                controller.cluster.has_tuple(tuple_id, part) for part in placement
            ):
                unreachable += 1
        return unreachable

    for batch_size in (high_batch, low_batch):
        for batch in iter_chunks(drifted.accesses, batch_size):
            observation = controller.observe_batches([batch])
            for resize in observation.resizes:
                report.partition_trajectory.append(resize.new_partitions)
                report.resizes.append(
                    (
                        resize.old_partitions,
                        resize.new_partitions,
                        resize.migration.copies,
                        resize.migration.drops,
                    )
                )
            if observation.resizes:
                report.unreachable_tuples += audit()
    return report


def format_elastic_scaling(report: ElasticScalingReport) -> str:
    """Render the elastic trajectory as text."""
    trajectory = " -> ".join(
        str(k) for k in [report.initial_partitions, *report.partition_trajectory]
    )
    lines = [
        "Elastic scaling: load-driven partition count",
        f"  partitions: {trajectory}",
    ]
    for old, new, copies, drops in report.resizes:
        direction = "grow" if new > old else "shrink"
        lines.append(f"  {direction} {old} -> {new}: {copies} copies, {drops} drops")
    lines.append(f"  unreachable tuples observed: {report.unreachable_tuples}")
    return "\n".join(lines)


def format_online_drift(report: OnlineDriftReport) -> str:
    """Render the comparison as a text table."""
    lines = [
        "Online drift: budgeted adaptation vs. from-scratch re-partition",
        f"{'':>24} {'distributed':>12} {'tuples moved':>13} {'cut':>8}",
        f"{'before adaptation':>24} {report.distributed_before:>12.1%} "
        f"{'-':>13} {report.cut_before:>8.0f}",
        f"{'budgeted adaptation':>24} {report.distributed_budgeted:>12.1%} "
        f"{report.tuples_moved_budgeted:>13} {report.cut_budgeted:>8.0f}",
        f"{'from-scratch baseline':>24} {report.distributed_full:>12.1%} "
        f"{report.tuples_moved_full:>13} {report.cut_full:>8.0f}",
        f"budgeted migration = {report.move_fraction:.1%} of from-scratch "
        f"(drift detected: {report.drift_detected})",
    ]
    return "\n".join(lines)
