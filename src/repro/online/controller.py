"""The :class:`OnlineSchism` controller: traffic in, placement deltas out.

Wiring of the online loop:

1. live transactions stream in as chunked batches (one code path with the
   offline trace pipeline, see :meth:`AccessTrace.iter_batches`);
2. each batch feeds the :class:`~repro.online.monitor.WorkloadMonitor`
   (statistics + drift detection), which folds it into its
   :class:`~repro.online.maintainer.IncrementalGraphMaintainer` (decayed
   graph deltas, the loop's one per-tuple access ledger);
3. when the monitor reports drift, :meth:`OnlineSchism.adapt` freezes the
   maintained graph — with the read-hot tuples expanded into **replication
   stars** (decayed read/write ratios decide the candidates, mirroring the
   offline builder's §3.1 expansion) — warm-starts the
   :class:`~repro.online.repartitioner.BudgetedRepartitioner` from the
   deployed placement, and deploys the resulting replica sets: copies
   (one per added replica), then the routing update — an in-place delta
   of the deployed strategy's entries — then drops of the stale replicas;
4. independently of cut drift, the **elastic policy**
   (:class:`~repro.online.policy.ElasticOptions`) watches the monitor's
   decayed transaction rate and proposes growing or shrinking
   ``num_partitions``;
   :meth:`OnlineSchism.resize` re-seeds the k-way kernel at the new k and
   deploys through the same budgeted copy-before-drop path, publishing the
   new strategy in one atomic swap and pinning every tuple the deployed
   strategy routed implicitly (a resize changes the hash
   default policy's modulus, so implicit placements must become explicit
   or those tuples would become unreachable).

Tuples that the maintained graph has decayed out of keep their deployed
placement untouched (except during a resize, which must touch every
implicitly-routed tuple for the reachability reason above).

There is one adaptation path: every placement is a replica set, a
singleton being the star that stayed together.  The controller reaches its
cluster only through the six methods of
:class:`~repro.online.migration.MigrationBackend`, so the same loop drives
the simulated cluster or any other backend; the resize and pacing policies
live in :mod:`repro.online.policy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning, placement_at
from repro.distributed.faults import FaultInjector
from repro.graph.assignment import PartitionAssignment
from repro.online.migration import (
    MIGRATION_BATCH_SIZE,
    FileJournalSink,
    JournaledMigrator,
    MemoryJournalSink,
    MigrationBackend,
    MigrationJournal,
    MigrationPlan,
    MigrationReport,
    MigrationSession,
    migration_steps_counter,
    plan_migration,
)
from repro.obs import get_telemetry
from repro.online.monitor import DriftReport, MonitorOptions, WorkloadMonitor
from repro.online.policy import ElasticOptions, MigrationPacer, PacingOptions
from repro.online.repartitioner import (
    BudgetedRepartitioner,
    RepartitionOptions,
    RepartitionResult,
    ReplicatedRepartitionResult,
    repartition_from_scratch,
)
from repro.pipeline.plan import PartitionPlan, PlanProvenance
from repro.routing.router import Router
from repro.workload.rwsets import AccessTrace
from repro.workload.trace import TransactionAccess, iter_chunks

#: suppress re-adaptation for this many batches after an adaptation.
ADAPT_COOLDOWN_BATCHES = 2
#: transactions per ingest batch of :meth:`OnlineSchism.observe` and
#: :meth:`OnlineSchism.warm_up` (= one monitor epoch).
INGEST_BATCH_SIZE = 100
#: retention hysteresis: a tuple that is *already replicated* stays a
#: replication candidate down to ``replication_min_read_fraction`` minus
#: this slack, so decay noise around the entry bar cannot trigger
#: drop/re-copy churn of replicas the budget just paid for.  (The min-cut
#: still consolidates retained candidates whose replicas stop earning their
#: write cost.)
REPLICATION_RETENTION_SLACK = 0.05


@dataclass
class OnlineOptions:
    """Configuration of the online adaptivity loop."""

    monitor: MonitorOptions = field(default_factory=MonitorOptions)
    repartition: RepartitionOptions = field(default_factory=RepartitionOptions)
    elastic: ElasticOptions = field(default_factory=ElasticOptions)
    #: SLO-aware migration pacing; None runs migrations unpaced.  When set,
    #: :meth:`OnlineSchism.begin_resize` builds a :class:`MigrationPacer`
    #: from it for every session that is not handed one explicitly.
    pacing: PacingOptions | None = None
    #: minimum decayed read fraction for a tuple to be widened into a replica
    #: set during adaptation (0.9 mirrors the paper's "read-mostly" bar of
    #: < 10% writes).
    replication_min_read_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.replication_min_read_fraction <= 1.0:
            raise ValueError("replication_min_read_fraction must be in [0, 1]")


@dataclass
class AdaptationRecord:
    """Everything produced by one adaptation (re-partition + migration)."""

    trigger: DriftReport | None
    repartition: ReplicatedRepartitionResult
    plan: MigrationPlan
    migration: MigrationReport
    distributed_fraction_before: float
    distributed_fraction_after: float

    @property
    def replicated_count(self) -> int:
        """Tuples the adaptation left on more than one partition (0 = none)."""
        return self.repartition.replicated_count

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        return (
            f"adaptation: moved {self.repartition.num_moved} nodes "
            f"(cost {self.repartition.migration_cost:.0f}, "
            f"{self.replicated_count} replicated), "
            f"cut {self.repartition.cut_before:.0f} -> {self.repartition.cut_after:.0f}, "
            f"distributed {self.distributed_fraction_before:.1%} -> "
            f"{self.distributed_fraction_after:.1%}"
        )


@dataclass
class ResizeRecord:
    """Everything produced by one elastic resize (grow or shrink)."""

    old_partitions: int
    new_partitions: int
    #: the decayed transaction rate that triggered the proposal (None when
    #: :meth:`OnlineSchism.resize` was called directly).
    trigger_rate: float | None
    #: None when the record comes from a migration resumed off a journal,
    #: where the planning-time repartition context no longer exists.
    repartition: ReplicatedRepartitionResult | None
    plan: MigrationPlan
    migration: MigrationReport
    #: previously implicitly-routed tuples pinned to explicit entries.
    tuples_pinned: int

    @property
    def grew(self) -> bool:
        """Whether the cluster gained partitions."""
        return self.new_partitions > self.old_partitions

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        direction = "grow" if self.grew else "shrink"
        return (
            f"resize ({direction}): {self.old_partitions} -> {self.new_partitions} "
            f"partitions, {self.migration.copies} copies, {self.migration.drops} drops, "
            f"{self.tuples_pinned} pinned"
        )


class _ResizeSession(MigrationSession):
    """One in-flight journaled resize the controller interleaves with traffic.

    Created by :meth:`OnlineSchism.begin_resize` /
    :meth:`OnlineSchism.attach_session`.  On top of the paced ticks of
    :class:`~repro.online.migration.MigrationSession` it owns
    *finalisation*: the first tick that observes a terminal journal state
    performs the controller bookkeeping (monitor rebaseline,
    :class:`ResizeRecord`, cooldowns) — including when the terminal state
    was reached by a different process and this session merely resumed the
    journal.
    """

    def __init__(
        self,
        controller: "OnlineSchism",
        journal: MigrationJournal,
        *,
        trigger_rate: float | None = None,
        repartition: ReplicatedRepartitionResult | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> None:
        if pacer is None and controller.options.pacing is not None:
            pacer = MigrationPacer(controller.options.pacing)
        super().__init__(
            JournaledMigrator(
                controller.cluster,
                controller.router,
                journal,
                sink=sink,
                batch_size=batch_size or MIGRATION_BATCH_SIZE,
                injector=injector,
            ),
            pacer=pacer,
        )
        self.controller = controller
        self.trigger_rate = trigger_rate
        self.repartition = repartition
        #: set by the terminal tick; stays None when the resize was cancelled.
        self.record: ResizeRecord | None = None
        self._finalized = False
        self._finalize_if_terminal()

    def tick(self, idle: bool = False) -> int:
        """One paced batch (see the base class), finalising on the terminal one."""
        executed = super().tick(idle)
        self._finalize_if_terminal()
        return executed

    def run_to_completion(self, max_ticks: int = 1_000_000) -> ResizeRecord | None:
        """Tick to a terminal state; the record (None when cancelled)."""
        super().run_to_completion(max_ticks)
        return self.record

    def _finalize_if_terminal(self) -> None:
        if self.journal.is_terminal and not self._finalized:
            self._finalized = True
            self.record = self.controller._finish_resize(self)


@dataclass
class ObservationResult:
    """Outcome of streaming a trace through the controller."""

    batches: int = 0
    transactions: int = 0
    drift_reports: list[DriftReport] = field(default_factory=list)
    adaptations: list[AdaptationRecord] = field(default_factory=list)
    resizes: list[ResizeRecord] = field(default_factory=list)


class OnlineSchism:
    """Controller closing the loop from live traffic back to placement.

    Feed it traffic with :meth:`observe` (fixed-size epochs) or
    :meth:`observe_batches` (caller-defined epochs, which lets the elastic
    policy see the offered load); it detects drift, adapts the placement
    under a migration budget (:meth:`adapt` — replication-aware: read-hot
    tuples widen into replica sets), and scales the partition count
    (:meth:`resize`) when the elastic policy proposes it.

    Parameters
    ----------
    cluster:
        Whatever holds the data, behind the six
        :class:`~repro.online.migration.MigrationBackend` methods (the
        simulated :class:`~repro.distributed.cluster.Cluster` satisfies them
        natively).  Resizes grow/shrink it in place.
    router:
        The deployed router; its strategy must be a
        :class:`LookupTablePartitioning` (fine-grained placement is what
        live migration updates).  A resize republishes the strategy
        wholesale via :meth:`Router.replace_strategy`.
    options:
        Loop configuration (:class:`OnlineOptions`): monitor / repartition
        knobs, the ``replication_*`` thresholds and the
        :class:`~repro.online.policy.ElasticOptions` policy.
    """

    def __init__(
        self,
        cluster: MigrationBackend,
        router: Router,
        options: OnlineOptions | None = None,
    ) -> None:
        if not isinstance(router.strategy, LookupTablePartitioning):
            raise TypeError("OnlineSchism requires a lookup-table routing strategy")
        if cluster.num_partitions != router.num_partitions:
            raise ValueError("cluster and router disagree on the number of partitions")
        self.cluster = cluster
        self.router = router
        #: the PartitionPlan this deployment came from (set by
        #: ``start_online``); :meth:`export_plan` carries its routing
        #: config forward so a deploy/export cycle with no adaptations
        #: round-trips the artifact.
        self.source_plan: PartitionPlan | None = None
        self.options = options or OnlineOptions()
        self.monitor = WorkloadMonitor(self.options.monitor, router)
        #: the monitor's access ledger: the decayed tuple graph adaptation freezes.
        self.maintainer = self.monitor.maintainer
        # Declared at construction so the family shows in metric snapshots
        # of deployments that never migrate.
        migration_steps_counter()
        self.adaptations: list[AdaptationRecord] = []
        self.resizes: list[ResizeRecord] = []
        self._cooldown = 0
        self._elastic_cooldown = 0
        metrics = get_telemetry().metrics
        self._adapt_counter = metrics.counter(
            "online.adaptations", "drift-triggered placement adaptations"
        )
        self._resize_counter = metrics.counter(
            "online.resizes", "elastic resize migrations planned", labels=("direction",)
        )

    @property
    def strategy(self) -> LookupTablePartitioning:
        """The deployed fine-grained strategy (shared with the router)."""
        strategy = self.router.strategy
        assert isinstance(strategy, LookupTablePartitioning)
        return strategy

    @property
    def num_partitions(self) -> int:
        """Number of partitions of the deployed placement."""
        return self.router.num_partitions

    # -- ingest -----------------------------------------------------------------------
    def warm_up(self, trace: AccessTrace | Iterable[TransactionAccess]) -> None:
        """Seed the monitor and its ledger from the training trace, then baseline.

        Gives the online loop the same starting knowledge the offline
        pipeline trained on: the maintained graph starts as the (decayed)
        training graph instead of empty, and the drift baseline reflects
        steady-state traffic.
        """
        accesses = trace.accesses if isinstance(trace, AccessTrace) else trace
        for batch in iter_chunks(accesses, INGEST_BATCH_SIZE):
            self.monitor.ingest_batch(batch)
        self.monitor.set_baseline()

    def observe(
        self,
        trace: AccessTrace | Iterable[TransactionAccess],
        auto_adapt: bool = True,
    ) -> ObservationResult:
        """Stream live traffic through the loop, adapting on drift.

        ``trace`` may be a recorded :class:`AccessTrace` or any iterable of
        transaction accesses (a live feed); it is consumed in
        ``INGEST_BATCH_SIZE`` chunks.  Because the re-chunking makes the
        monitor's transactions-per-epoch rate a constant, elastic
        proposals are **suppressed** here — a constant is not a load signal,
        and acting on it would resize the cluster to fit a config value.
        Feed :meth:`observe_batches` real arrival batches to drive
        elasticity.
        """
        accesses = trace.accesses if isinstance(trace, AccessTrace) else trace
        return self.observe_batches(
            iter_chunks(accesses, INGEST_BATCH_SIZE),
            auto_adapt,
            elastic=False,
        )

    def observe_batches(
        self,
        batches: Iterable[list[TransactionAccess]],
        auto_adapt: bool = True,
        elastic: bool = True,
    ) -> ObservationResult:
        """Stream pre-batched live traffic; each batch is one monitor epoch.

        The batch boundaries are the loop's notion of *time*: a live feed
        that hands over whatever arrived in a tick makes the monitor's
        transactions-per-epoch rate track the offered load, which is the
        signal the elastic policy scales ``num_partitions`` by.  ``elastic``
        gates those proposals; :meth:`observe` passes False because its
        fixed re-chunking produces a meaningless constant rate.
        """
        elastic_options = self.options.elastic if elastic else None
        result = ObservationResult()
        for batch in batches:
            self.monitor.ingest_batch(batch)
            result.batches += 1
            result.transactions += len(batch)
            # Elastic scaling watches offered load, not placement quality, so
            # it is checked regardless of the adaptation cooldown (with its
            # own, separate cooldown).
            if self._elastic_cooldown > 0:
                self._elastic_cooldown -= 1
            elif auto_adapt and elastic_options is not None:
                proposal = elastic_options.propose(
                    self.monitor.transaction_rate(), self.num_partitions
                )
                if proposal is not None:
                    result.resizes.append(
                        self.resize(proposal, trigger_rate=self.monitor.transaction_rate())
                    )
                    # The resize already re-partitioned and re-baselined at
                    # the new k; a same-batch adaptation would be redundant.
                    continue
            if self._cooldown > 0:
                self._cooldown -= 1
                continue
            report = self.monitor.check_drift()
            result.drift_reports.append(report)
            if report.drifted and auto_adapt:
                result.adaptations.append(self.adapt(report))
        return result

    # -- adaptation -------------------------------------------------------------------
    def current_placements(self, num_partitions: int) -> list[frozenset[int]]:
        """Deployed replica set of every maintained tuple, clamped to ``num_partitions``.

        Includes tuples placed by the lookup table's default policy, which
        is where they physically live.  Clamping matters during a shrink: a
        tuple homed only on partitions being removed warm-starts at its
        post-shrink hash home (the physical copy is still planned from where
        the tuple actually lives).  Every move costs one tuple.
        """
        strategy = self.strategy
        return [
            placement_at(tuple_id, strategy.partitions_for_tuple(tuple_id), num_partitions)
            for tuple_id in self.maintainer.tuples()
        ]

    def replication_candidates(self) -> list[int]:
        """Maintained-graph nodes the next adaptation will star-expand.

        Currently-replicated tuples qualify at a lower (retention) bar, so
        a replica set the budget just paid for is not collapsed by decay
        noise around the entry threshold — see
        ``REPLICATION_RETENTION_SLACK``.
        """
        min_read_fraction = self.options.replication_min_read_fraction
        strategy = self.strategy
        retained = [
            node
            for node, tuple_id in enumerate(self.maintainer.tuples())
            if len(strategy.partitions_for_tuple(tuple_id)) > 1
        ]
        retention = max(0.0, min_read_fraction - REPLICATION_RETENTION_SLACK)
        return self.maintainer.replication_candidates(
            min_read_fraction, retained, retention
        )

    def _repartition(
        self, num_partitions: int
    ) -> tuple[ReplicatedRepartitionResult, PartitionAssignment]:
        """Budgeted replica-set re-partition of the maintained graph at ``num_partitions``.

        The one path :meth:`adapt` and :meth:`begin_resize` share: warm start
        from the clamped deployed placement, read-hot candidates expanded
        into stars (none = every placement stays a singleton).  Returns the
        result and the target assignment of the maintained tuples.
        """
        current = self.current_placements(num_partitions)
        csr, tuples, star = self.maintainer.freeze_replicated(
            self.replication_candidates(), [min(placement) for placement in current]
        )
        result = BudgetedRepartitioner(self.options.repartition).repartition_replicated(
            csr, star, current, num_partitions
        )
        target = PartitionAssignment(num_partitions)
        for node, tuple_id in enumerate(tuples):
            target.assign(tuple_id, result.placements[node])
        return result, target

    def adapt(self, trigger: DriftReport | None = None) -> AdaptationRecord:
        """Re-partition with a migration budget and migrate the delta live.

        The maintained graph is frozen with its read-hot (read-mostly)
        tuples expanded into replication stars and the re-partitioner emits
        **replica sets**: a widened placement costs one migration copy per
        added replica, while writes to a replicated tuple keep involving all
        its replicas — so replication only wins where reads dominate.  With
        no candidates the expansion is empty and every placement comes back
        a singleton.

        Sequencing is copies -> routing update -> drops: while the routing
        state changes, every affected tuple is resident at both its old and
        new location, so reads routed under either placement succeed.  The
        plan and routing update touch only the maintained graph's tuples —
        O(drifted working set), not O(all deployed tuples).
        """
        self._adapt_counter.inc()
        with get_telemetry().tracer.span("online.adapt", k=self.num_partitions) as span:
            record = self._adapt(trigger)
            span.set_attribute("tuples_changed", record.plan.tuples_changed)
            return record

    def _adapt(self, trigger: DriftReport | None) -> AdaptationRecord:
        before = self.monitor.window_stats().distributed_fraction
        result, target = self._repartition(self.num_partitions)
        plan = plan_migration(self.strategy.partitions_for_tuple, target)
        journal = MigrationJournal.for_plan(
            plan,
            kind="adapt",
            old_num_partitions=self.num_partitions,
            default_policy=self.strategy.default_policy,
        )
        migration = JournaledMigrator(self.cluster, self.router, journal).run()
        self.monitor.rebaseline(self.router.strategy)
        after = self.monitor.window_stats().distributed_fraction
        record = AdaptationRecord(trigger, result, plan, migration, before, after)
        self.adaptations.append(record)
        self._cooldown = ADAPT_COOLDOWN_BATCHES
        return record

    # -- elastic scaling --------------------------------------------------------------
    def resize(
        self, new_partitions: int, trigger_rate: float | None = None
    ) -> ResizeRecord:
        """Grow or shrink the cluster to ``new_partitions`` partitions, live.

        Convenience wrapper: opens a journaled session via
        :meth:`begin_resize` and drives it to completion in one call.  Use
        :meth:`begin_resize` directly to interleave the migration with live
        traffic (paced ticks), attach a journal sink for crash recovery, or
        inject faults.
        """
        session = self.begin_resize(new_partitions, trigger_rate=trigger_rate)
        record = session.run_to_completion()
        assert record is not None  # the session was never cancelled
        return record

    def begin_resize(
        self,
        new_partitions: int,
        *,
        trigger_rate: float | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> _ResizeSession:
        """Plan a resize and return the journaled session that executes it.

        Re-seeds the k-way kernel at the new k (budgeted warm start from the
        clamped current placement, replication candidates included) and
        plans through the same copy-before-drop path as :meth:`adapt`, with
        two resize-specific obligations:

        * **every stored tuple the lookup table routed implicitly is pinned
          to an explicit entry**: a hash modulus changes with k, and a base
          rule may name a partition being removed, so an implicit placement
          computed at the old k could point at the wrong partition — the pin
          keeps every tuple reachable without moving it.  (The routing flip
          re-walks storage, so tuples inserted while the migration is in
          flight are pinned too.)
        * the routing state is republished by **atomic wholesale swap**
          (a new strategy, entries included, at the new k): an in-place
          entry delta cannot express the change of k, which invalidates
          every implicit placement at once.

        Growing adds the empty partitions *before* the copies (so data can
        land on them); shrinking removes the evacuated partitions only
        *after* the drops.  In between, reads routed under the old table
        find a resident replica, and the router's dual-write window carries
        writes to both placements of every in-flight tuple.

        ``sink`` makes every journal record durable (crash recovery picks
        up from the last persisted record via :meth:`attach_session`);
        ``pacer`` gates each tick's step budget by the live SLO (defaults
        to one built from ``options.pacing`` when that is set); ``injector``
        subjects migration steps and journal persists to the fault plan.
        """
        if new_partitions <= 0:
            raise ValueError("new_partitions must be positive")
        old_partitions = self.num_partitions
        if new_partitions == old_partitions:
            raise ValueError("resize to the current partition count is a no-op")
        self._resize_counter.inc(
            direction="grow" if new_partitions > old_partitions else "shrink"
        )
        with get_telemetry().tracer.span(
            "online.resize.plan", old_k=old_partitions, new_k=new_partitions
        ):
            result, journal = self._plan_resize(new_partitions, old_partitions)
            return _ResizeSession(
                self,
                journal,
                trigger_rate=trigger_rate,
                repartition=result,
                sink=sink,
                pacer=pacer,
                injector=injector,
                batch_size=batch_size,
            )

    def _plan_resize(
        self, new_partitions: int, old_partitions: int
    ) -> tuple[ReplicatedRepartitionResult, MigrationJournal]:
        result, target = self._repartition(new_partitions)
        # Pin everything else where it lives (clamped); evacuees with no
        # surviving replica go to their new-k hash home.  One storage walk
        # supplies the physical locations for both the pinning loop and the
        # migration planning below.
        locations_of = self.cluster.tuple_locations_map()
        deployed = self.strategy.assignment
        tuples_pinned = 0
        for tuple_id in sorted(locations_of):
            if tuple_id in target:
                continue
            target.assign(
                tuple_id, placement_at(tuple_id, locations_of[tuple_id], new_partitions)
            )
            if tuple_id not in deployed:
                tuples_pinned += 1

        def physical_placement(tuple_id: TupleId) -> frozenset[int]:
            locations = locations_of.get(tuple_id)
            # A maintained tuple absent from the snapshot was deleted by live
            # traffic; fall back to its routed placement (the copy step will
            # no-op and report a skip).
            return locations or self.strategy.partitions_for_tuple(tuple_id)

        plan = plan_migration(physical_placement, target)
        journal = MigrationJournal.for_plan(
            plan,
            kind="resize",
            old_num_partitions=old_partitions,
            new_num_partitions=new_partitions,
            default_policy=self.strategy.default_policy,
        )
        journal.tuples_pinned = tuples_pinned
        return result, journal

    def attach_session(
        self,
        journal: MigrationJournal,
        *,
        trigger_rate: float | None = None,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        pacer: MigrationPacer | None = None,
        injector: FaultInjector | None = None,
        batch_size: int | None = None,
    ) -> _ResizeSession:
        """Resume (or take over) a journaled resize from its last record.

        The crash-recovery entry point: after a coordinator death, load the
        journal from its sink and hand it here — the new session re-opens
        the dual-write window appropriate to the journalled state and
        continues (or, after :meth:`MigrationSession.cancel`, rolls back).
        The planning-time repartition context died with the old coordinator,
        so a finished resumed session records ``repartition=None``.
        """
        return _ResizeSession(
            self,
            journal,
            trigger_rate=trigger_rate,
            sink=sink,
            pacer=pacer,
            injector=injector,
            batch_size=batch_size,
        )

    def _finish_resize(self, session: _ResizeSession) -> ResizeRecord | None:
        """Controller bookkeeping once a session's journal turns terminal."""
        journal = session.journal
        # Whether completed or rolled back, the routing strategy object may
        # have been republished: re-anchor the monitor and restart drift
        # tracking from the post-migration placement.
        self.monitor.rebaseline(self.router.strategy)
        self._elastic_cooldown = self.options.elastic.cooldown_batches
        self._cooldown = max(self._cooldown, ADAPT_COOLDOWN_BATCHES)
        if journal.state != "completed":
            return None
        record = ResizeRecord(
            journal.old_num_partitions,
            journal.new_num_partitions,
            session.trigger_rate,
            session.repartition,
            journal.plan,
            session.report,
            journal.tuples_pinned,
        )
        self.resizes.append(record)
        return record

    def export_plan(self, created_by: str = "online-export") -> PartitionPlan:
        """The current live placement as a serializable :class:`PartitionPlan`.

        Closes the loop between offline and online: a deployment that has
        adapted (migrations, replica sets, resizes) can persist its state as
        the same artifact the offline pipeline produces — diffable against
        the originally deployed plan, re-deployable via ``start_online``.

        When the controller was deployed from a plan (``start_online`` sets
        :attr:`source_plan`) and **nothing has changed the placement** (no
        adaptations, no resizes), that plan is exported again under fresh
        provenance, so a deploy/export cycle round-trips the artifact
        identically.  Once the loop has adapted, the export instead
        describes the live deployment truthfully: a ``lookup-table`` plan
        with the router's actual default policy, because the offline rule
        sets no longer describe the adapted placements and rebuilding the
        offline winner from them would discard every migrated tuple.  Every
        stored tuple a base rule still routes is named at its location, as
        the exported lookup table has no rules under it.
        """
        assignment = self.strategy.assignment
        stats = self.monitor.window_stats()
        provenance = PlanProvenance(
            created_by=created_by,
            metrics={
                "distributed_fraction": stats.distributed_fraction,
                "window_transactions": stats.transactions,
                "adaptations": len(self.adaptations),
                "resizes": len(self.resizes),
                "replicated_count": assignment.replicated_count,
            },
        )
        template = self.source_plan
        if (
            template is not None
            and template.num_partitions == self.num_partitions
            and not self.adaptations
            and not self.resizes
        ):
            return replace(template, provenance=provenance)
        placements = dict(assignment.placements)
        if self.strategy.base is not None:
            # Tuples still routed by the base rules have no explicit entry;
            # a lookup-table plan must name them to put them back there.
            for tuple_id, locations in self.cluster.tuple_locations_map().items():
                placements.setdefault(tuple_id, locations)
        return PartitionPlan(
            num_partitions=self.num_partitions,
            placements=placements,
            strategy="lookup-table",
            lookup_default_policy=self.strategy.default_policy,
            provenance=provenance,
        )

    def preview_full_repartition(self) -> RepartitionResult:
        """What a from-scratch re-partition would do right now (not applied).

        Used by experiments and tests to compare the budgeted delta against
        the full-reshuffle baseline (labels aligned, so moves are genuine).
        """
        csr, _ = self.maintainer.freeze()
        warm = [min(placement) for placement in self.current_placements(self.num_partitions)]
        return repartition_from_scratch(csr, warm, self.num_partitions)

    def merged_placements(
        self, tuples: list[TupleId], placements: list[frozenset[int]]
    ) -> PartitionAssignment:
        """Full placement from per-tuple replica sets: deployed entries overridden.

        Public so that experiments can evaluate a previewed (not applied)
        re-partition exactly as :meth:`adapt` would deploy it.
        """
        merged = PartitionAssignment(self.num_partitions)
        deployed = self.strategy.assignment
        for tuple_id in deployed:
            placement = deployed.partitions_of(tuple_id)
            assert placement is not None
            merged.assign(tuple_id, placement)
        for node, tuple_id in enumerate(tuples):
            merged.assign(tuple_id, placements[node])
        return merged

