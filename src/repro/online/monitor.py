"""Streaming workload monitor with drift detection.

The monitor ingests :class:`~repro.workload.trace.TransactionAccess` objects
one batch at a time (the same chunked batches the offline pipeline can
stream through :meth:`AccessTrace.iter_batches`) and maintains:

* a **sliding window** of the most recent transactions, used to re-evaluate
  placement quality (distributed fraction, per-partition load) against the
  *current* routing strategy: a transaction's participants are the
  partitions a router over that strategy sends it to (a scoring router:
  what the monitor routes counts in no serving metric);
* the online loop's **access ledger**, an
  :class:`~repro.online.maintainer.IncrementalGraphMaintainer`: its node
  weights are the exponentially-decayed per-tuple access counts (aged once
  per ingest epoch) from which the current hot set is derived, and its
  decayed **read** and **write** splits identify read-mostly tuples, which
  is what the replication-aware online placement widens into replica sets.
  The monitor keeps no per-tuple counts of its own; it feeds the ledger and
  reads it;
* a decayed **transaction rate** (transactions per ingest epoch), the load
  signal the elastic partition-scaling policy watches;
* a **baseline snapshot** (hot set + distributed fraction) taken right after
  (re-)partitioning, against which drift is measured.

Drift is reported when any of three signals crosses its threshold: the
windowed distributed-transaction fraction rises above the baseline by more
than ``DRIFT_DISTRIBUTED_INCREASE``, the per-partition transaction load skew
(max/mean) exceeds ``DRIFT_SKEW_THRESHOLD``, or the hot-tuple churn (1 -
overlap between the current and baseline hot sets) exceeds
``DRIFT_CHURN_THRESHOLD``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Sequence

from repro.catalog.tuples import TupleId
from repro.core.strategies import PartitioningStrategy
from repro.obs import get_telemetry
from repro.online.maintainer import IncrementalGraphMaintainer
from repro.routing.router import Router, scoring_router
from repro.workload.trace import TransactionAccess

#: Size of the tracked hot-tuple set.
HOT_SET_SIZE = 32
#: Smoothing factor of the decayed transactions-per-epoch rate estimate
#: (EWMA weight of the newest epoch; 1.0 would track only the last epoch).
RATE_SMOOTHING = 0.3
#: Drift when the windowed distributed fraction exceeds the baseline by this much.
DRIFT_DISTRIBUTED_INCREASE = 0.10
#: Drift when max/mean per-partition transaction load exceeds this (and the
#: baseline skew by ``DRIFT_SKEW_INCREASE``).
DRIFT_SKEW_THRESHOLD = 1.75
#: Load skew counts as drift only when it also exceeds the baseline skew by
#: this much (an inherently skewed workload must not re-trigger futile
#: adaptations forever).
DRIFT_SKEW_INCREASE = 0.25
#: Drift when 1 - |hot_now & hot_baseline| / HOT_SET_SIZE exceeds this.
DRIFT_CHURN_THRESHOLD = 0.60
#: Floor of the churn weight-share bar (see
#: :meth:`WorkloadMonitor.churn_weight_share_threshold`): tracking few tuples
#: makes the uniform expectation large, but the bar never drops below this
#: on wide uniform traffic.
CHURN_SHARE_FLOOR = 0.10
#: The churn weight-share bar is this multiple of the uniform expectation
#: ``HOT_SET_SIZE / tracked_tuples``: a hot set must carry meaningfully more
#: weight than chance before its churn means anything.
CHURN_SHARE_LIFT = 1.25


@dataclass
class MonitorOptions:
    """Tuning knobs of the workload monitor."""

    #: number of recent transactions kept in the sliding window.
    window_size: int = 1000
    #: suppress drift reports until the window holds at least this many transactions.
    min_window_fill: int = 50

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        # The window can never fill past its capacity; an uncapped
        # min_window_fill would silently disable drift detection forever.
        self.min_window_fill = min(self.min_window_fill, self.window_size)


@dataclass
class WindowStats:
    """Placement-quality statistics over the monitor's sliding window."""

    transactions: int
    distributed_fraction: float
    load_skew: float
    hot_tuples: tuple[TupleId, ...]
    hot_churn: float
    baseline_distributed_fraction: float


@dataclass
class DriftReport:
    """Outcome of one drift check."""

    drifted: bool
    reasons: list[str] = field(default_factory=list)
    stats: WindowStats | None = None

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        if not self.drifted:
            return "no drift"
        return "drift: " + "; ".join(self.reasons)


class WorkloadMonitor:
    """Streaming monitor over live transaction accesses.

    Parameters
    ----------
    options:
        Monitor tuning knobs.
    router:
        The deployment's router: each observed transaction is routed over
        its strategy and schema.  Adopt a re-partitioned strategy via
        :meth:`rebaseline`.
    """

    def __init__(
        self,
        options: MonitorOptions | None = None,
        router: Router | None = None,
    ) -> None:
        self.options = options or MonitorOptions()
        #: routes observed transactions over the deployed strategy.
        self._router = (
            scoring_router(router.strategy, router.schema) if router is not None else None
        )
        num_partitions = router.num_partitions if router is not None else 0
        #: (access, participant partitions) per window slot.
        self._window: Deque[tuple[TransactionAccess, frozenset[int]]] = deque(
            maxlen=self.options.window_size
        )
        self._window_distributed = 0
        self._partition_load = [0] * num_partitions
        #: the access ledger: the decayed tuple graph whose node weights
        #: and read/write splits are the per-tuple access counts.
        self.maintainer = IncrementalGraphMaintainer()
        # Decayed transactions-per-epoch estimate (the elastic load signal).
        self._epoch_ingested = 0
        self._rate = 0.0
        self._rate_primed = False
        self._baseline_hot: frozenset[TupleId] = frozenset()
        self._baseline_distributed = 0.0
        self._baseline_skew = 1.0
        #: window fill when the baseline was last snapshot (-1 = never).
        self._baseline_window = -1
        metrics = get_telemetry().metrics
        self._batches_counter = metrics.counter(
            "monitor.batches", "traffic batches ingested by the workload monitor"
        )
        self._drift_counter = metrics.counter(
            "monitor.drift_checks", "drift checks by outcome", labels=("drifted",)
        )

    # -- ingest -----------------------------------------------------------------------
    def ingest(self, access: TransactionAccess) -> None:
        """Observe one transaction: window, rate and access ledger."""
        self._observe(access)
        self.maintainer.apply(access)

    def ingest_batch(self, batch: Sequence[TransactionAccess]) -> None:
        """Observe one chunk of transactions, then age everything one epoch.

        The ledger folds the chunk in one batched pass, which also ages it.
        """
        for access in batch:
            self._observe(access)
        self.maintainer.apply_batch(batch)
        self._close_rate_epoch()
        self._batches_counter.inc()

    def advance_epoch(self) -> None:
        """Age the ledger one epoch and fold the epoch into the rate."""
        self.maintainer.advance_epoch()
        self._close_rate_epoch()

    def _observe(self, access: TransactionAccess) -> None:
        """Window slot, partition load and rate count of one transaction."""
        self._slot(access)
        self._epoch_ingested += 1

    def _slot(self, access: TransactionAccess) -> None:
        """Route one transaction into the window and the partition load."""
        participants = (
            self._router.transaction_participants(access.transaction)
            if self._router is not None
            else frozenset()
        )
        if len(self._window) == self._window.maxlen:
            self._evict(self._window[0])
        self._window.append((access, participants))
        if len(participants) > 1:
            self._window_distributed += 1
        for partition in participants:
            self._partition_load[partition] += 1

    def _close_rate_epoch(self) -> None:
        if self._rate_primed:
            self._rate += RATE_SMOOTHING * (self._epoch_ingested - self._rate)
        else:
            # Seed the rate estimate from the first epoch instead of decaying
            # up from zero (which would under-report load for many epochs).
            self._rate = float(self._epoch_ingested)
            self._rate_primed = True
        self._epoch_ingested = 0

    def _evict(self, slot: tuple[TransactionAccess, frozenset[int]]) -> None:
        _, participants = slot
        if len(participants) > 1:
            self._window_distributed -= 1
        for partition in participants:
            self._partition_load[partition] -= 1

    # -- statistics -------------------------------------------------------------------
    def read_fraction(self, tuple_id: TupleId) -> float:
        """Decayed fraction of accesses to ``tuple_id`` that are reads.

        1.0 for read-only tuples, 0.0 for write-only ones (and for tuples
        never observed — an unknown tuple must not look replication-worthy).
        """
        node = self.maintainer.node_of(tuple_id)
        return 0.0 if node is None else self.maintainer.read_fraction(node)

    def transaction_rate(self) -> float:
        """Decayed transactions-per-epoch estimate (the elastic load signal)."""
        return self._rate

    def hot_tuples(self) -> tuple[TupleId, ...]:
        """The ``HOT_SET_SIZE`` most-accessed tuples (ties rank by tuple id)."""
        ledger = self.maintainer
        return tuple(ledger.tuple_of(node) for node in ledger.heaviest(HOT_SET_SIZE))

    def window_stats(self) -> WindowStats:
        """Current window statistics (distributed fraction, skew, churn)."""
        window = len(self._window)
        distributed = self._window_distributed / window if window else 0.0
        load = self._partition_load
        total_load = sum(load)
        if load and total_load > 0:
            mean = total_load / len(load)
            skew = max(load) / mean
        else:
            skew = 1.0
        hot = self.hot_tuples()
        if self._baseline_hot:
            overlap = len(self._baseline_hot & frozenset(hot))
            churn = 1.0 - overlap / max(1, min(len(self._baseline_hot), HOT_SET_SIZE))
        else:
            churn = 0.0
        return WindowStats(
            transactions=window,
            distributed_fraction=distributed,
            load_skew=skew,
            hot_tuples=hot,
            hot_churn=churn,
            baseline_distributed_fraction=self._baseline_distributed,
        )

    # -- drift ------------------------------------------------------------------------
    def set_baseline(self) -> None:
        """Snapshot the current hot set and distributed fraction as "normal".

        Call right after (re-)partitioning: subsequent drift is measured
        against this snapshot.
        """
        self._baseline_hot = frozenset(self.hot_tuples())
        window = len(self._window)
        self._baseline_distributed = self._window_distributed / window if window else 0.0
        self._baseline_skew = self.window_stats().load_skew
        self._baseline_window = window

    @property
    def strategy(self) -> PartitioningStrategy | None:
        """The strategy observed transactions are routed over."""
        return self._router.strategy if self._router is not None else None

    def rebaseline(self, strategy: PartitioningStrategy) -> None:
        """Adopt a newly deployed ``strategy`` and reset the drift baseline.

        The window's recorded participant sets reflect routing at observation
        time; they are re-routed under the new strategy so the baseline
        distributed fraction matches the post-migration reality.
        """
        assert self._router is not None
        self._router = scoring_router(strategy, self._router.schema)
        accesses = [access for access, _ in self._window]
        self._window.clear()
        self._window_distributed = 0
        self._partition_load = [0] * strategy.num_partitions
        for access in accesses:
            self._slot(access)
        self.set_baseline()

    def check_drift(self) -> DriftReport:
        """Compare the current window against the baseline snapshot."""
        report = self._check_drift()
        self._drift_counter.inc(drifted="true" if report.drifted else "false")
        return report

    def _check_drift(self) -> DriftReport:
        stats = self.window_stats()
        if stats.transactions < self.options.min_window_fill:
            return DriftReport(False, ["window not yet filled"], stats)
        if self._baseline_window <= 0:
            # The baseline was never taken from real traffic (a cold deploy
            # with no warm-up trace snapshots an empty window): adopt the
            # first *full* window as "normal" instead of reading steady
            # traffic as drift against an all-zero snapshot.  Waiting for a
            # full window (not just min_window_fill) matters because an
            # early window over-represents the few tuples seen so far — its
            # hot set and distributed fraction are not yet "normal".  A
            # baseline from a small-but-real warm-up window is kept — it
            # carries genuine signal to drift against.
            if len(self._window) == self._window.maxlen:
                self.set_baseline()
                return DriftReport(
                    False, ["baseline adopted from first full window"], stats
                )
            return DriftReport(False, ["baseline pending a full window"], stats)
        reasons: list[str] = []
        increase = stats.distributed_fraction - self._baseline_distributed
        if increase > DRIFT_DISTRIBUTED_INCREASE:
            reasons.append(
                f"distributed fraction {stats.distributed_fraction:.1%} "
                f"(baseline {self._baseline_distributed:.1%})"
            )
        if (
            stats.load_skew > DRIFT_SKEW_THRESHOLD
            and stats.load_skew > self._baseline_skew + DRIFT_SKEW_INCREASE
        ):
            reasons.append(
                f"load skew {stats.load_skew:.2f} (baseline {self._baseline_skew:.2f})"
            )
        if (
            self._baseline_hot
            and stats.hot_churn > DRIFT_CHURN_THRESHOLD
            and self.hot_weight_share() >= self.churn_weight_share_threshold()
        ):
            reasons.append(f"hot-tuple churn {stats.hot_churn:.1%}")
        return DriftReport(bool(reasons), reasons, stats)

    def churn_weight_share_threshold(self) -> float:
        """The weight share the hot set must carry for churn to count.

        On near-uniform traffic the "hot set" is sampling noise and its
        churn is perpetual, so without this gate steady uniform workloads
        would read as drifted forever.  The bar adapts to the observed
        distribution: under uniform traffic over N tracked tuples the hot
        set's expected share is ``HOT_SET_SIZE / N``, so requiring
        ``CHURN_SHARE_LIFT`` times that separates "the top-k of noise" from
        genuine skew at any N — a fixed bar cannot, because the uniform
        expectation itself moves with the tracked population (~6% on the
        simplecount deploy, ~50% when only a handful of tuples are tracked).
        Clamped to ``[CHURN_SHARE_FLOOR, 0.95]`` so wide uniform workloads
        keep a 10% bar and a tiny tracked population cannot push the bar
        above what even total skew could reach.
        """
        tracked = self.maintainer.num_tuples
        if tracked <= 0:
            return CHURN_SHARE_FLOOR
        uniform_expectation = min(1.0, HOT_SET_SIZE / tracked)
        derived = CHURN_SHARE_LIFT * uniform_expectation
        return max(CHURN_SHARE_FLOOR, min(0.95, derived))

    def hot_weight_share(self) -> float:
        """Fraction of the total decayed access weight the hot set carries.

        Near 1.0 for genuinely skewed traffic, ~``HOT_SET_SIZE / tuples``
        for uniform traffic (where the "hot set" is just sampling noise).
        The ledger's stored weights share one global scale, so the ratio is
        exact, and both sums run in node-id order, which does not depend on
        the process's string-hash seed.
        """
        weights = self.maintainer.graph.node_weights
        total = sum(weights)
        if total <= 0.0:
            return 0.0
        return sum(weights[node] for node in self.maintainer.heaviest(HOT_SET_SIZE)) / total
