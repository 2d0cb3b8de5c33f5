"""Policies of the online loop: when to resize, how fast to migrate.

Pure functions of observed rates — nothing here touches a cluster or a
router, so the policies can be unit-tested (and reused by the real-storage
migration) without deploying anything:

* :class:`ElasticOptions` turns the monitor's decayed transaction rate into
  a proposed ``num_partitions`` (with a hysteresis dead band);
* :class:`MigrationPacer` (configured by :class:`PacingOptions`, observed
  through :class:`PacerSnapshot`) turns the live latency / abort stream into
  a per-tick migration step budget.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.obs import DEFAULT_BUCKETS, RATE_BUCKETS, get_telemetry

#: sliding window of committed-transaction latencies (the pacer's p99 source).
LATENCY_WINDOW = 128
#: sliding window of attempt outcomes (the pacer's abort-rate source).
ABORT_WINDOW = 256
#: the pacer makes no pacing decision until this many samples arrived.
MIN_SAMPLES = 16
#: the pacer throttles once p99 latency crosses this fraction of its budget.
PRESSURE_RATIO = 0.75
#: ticks the first pause lasts; doubles per consecutive over-budget decision
#: up to ``BACKOFF_MAX`` (exponential backoff), resets once the windows recover.
BACKOFF_INITIAL = 1
BACKOFF_MAX = 16
#: the elastic policy grows only when the ideal partition count exceeds
#: ``k`` times this, and shrinks only when it falls below ``k`` times
#: ``SHRINK_HYSTERESIS`` (the dead band prevents flapping on noisy load).
GROW_HYSTERESIS = 1.3
SHRINK_HYSTERESIS = 0.6


@dataclass
class ElasticOptions:
    """Drift-triggered elastic scaling of ``num_partitions``.

    The policy watches the monitor's decayed transactions-per-epoch rate and
    sizes the cluster so each partition carries about
    ``target_rate_per_partition``: it proposes ``ceil(rate / target)``
    partitions, but only once the implied count leaves the
    ``[SHRINK_HYSTERESIS * k, GROW_HYSTERESIS * k]`` dead band around the
    current ``k`` (hysteresis prevents flapping on noisy load).  Disabled by
    default — elasticity migrates data, so it must be an explicit choice.
    """

    #: master switch; when False :meth:`propose` never fires.
    enabled: bool = False
    #: desired decayed transactions-per-epoch load per partition.
    target_rate_per_partition: float = 100.0
    #: never shrink below / grow above these bounds.
    min_partitions: int = 1
    max_partitions: int = 64
    #: suppress further resize proposals for this many batches after one.
    cooldown_batches: int = 4

    def __post_init__(self) -> None:
        if self.target_rate_per_partition <= 0:
            raise ValueError("target_rate_per_partition must be positive")
        if not 1 <= self.min_partitions <= self.max_partitions:
            raise ValueError("need 1 <= min_partitions <= max_partitions")

    def propose(self, rate: float, num_partitions: int) -> int | None:
        """The partition count the current load calls for (None = keep ``k``).

        >>> policy = ElasticOptions(enabled=True, target_rate_per_partition=100.0)
        >>> policy.propose(rate=450.0, num_partitions=2)
        5
        >>> policy.propose(rate=210.0, num_partitions=2)  # inside the dead band
        >>> policy.propose(rate=40.0, num_partitions=4)
        1
        """
        if not self.enabled:
            return None
        ideal = rate / self.target_rate_per_partition
        if (
            ideal > num_partitions * GROW_HYSTERESIS
            or ideal < num_partitions * SHRINK_HYSTERESIS
        ):
            proposed = max(self.min_partitions, min(self.max_partitions, math.ceil(ideal)))
            if proposed != num_partitions:
                return proposed
        return None


@dataclass
class PacingOptions:
    """SLO-aware pacing of an in-flight migration.

    The pacer watches the live traffic's latency and abort-rate over sliding
    windows and converts them into a per-tick step budget for the journaled
    migrator: full speed while both stay inside budget, a throttled trickle
    when latency nears its budget, and a full pause — with exponential
    backoff — once either budget is exceeded.  Budgets default to ``None``
    (that signal unconstrained); a pacer with no budgets always grants
    ``max_steps``.
    """

    #: pause when the windowed abort rate exceeds this.
    abort_rate_budget: float | None = None
    #: pause when the windowed p99 latency proxy exceeds this.
    p99_latency_budget: float | None = None
    #: step budget granted per tick while traffic is healthy.
    max_steps: int = 64
    #: step budget granted per tick under pressure (but inside budget).
    throttled_steps: int = 8

    def __post_init__(self) -> None:
        if self.abort_rate_budget is not None and not 0.0 < self.abort_rate_budget <= 1.0:
            raise ValueError("abort_rate_budget must be in (0, 1]")
        if self.p99_latency_budget is not None and self.p99_latency_budget <= 0.0:
            raise ValueError("p99_latency_budget must be positive")
        if self.max_steps <= 0 or self.throttled_steps <= 0:
            raise ValueError("step budgets must be positive")
        if self.throttled_steps > self.max_steps:
            raise ValueError("throttled_steps must not exceed max_steps")


@dataclass(frozen=True)
class PacerSnapshot:
    """Read-only view of a :class:`MigrationPacer`'s window state.

    What ``repro status`` renders and what tests assert on — the pacer's
    sliding windows and backoff state without reaching into private fields.
    """

    p99_latency: float
    abort_rate: float
    latency_samples: int
    abort_samples: int
    p99_latency_budget: float | None
    abort_rate_budget: float | None
    paused: bool
    pause_remaining: int
    backoff: int
    #: budget granted by the most recent :meth:`MigrationPacer.plan_steps`
    #: call (None before the first call).
    last_budget: int | None
    proceeds: int
    throttles: int
    pauses: int
    resumes: int


class MigrationPacer:
    """Turns live traffic health into a per-tick migration step budget.

    Feed it every :class:`~repro.distributed.coordinator.TransactionOutcome`
    via :meth:`observe`; each :meth:`plan_steps` call then answers "how many
    migration steps may run this tick" — 0 while paused.  Decision counters
    (``proceeds`` / ``throttles`` / ``pauses`` / ``resumes``) feed the
    resilience experiment's "pacing demonstrably reacted" assertion;
    :meth:`snapshot` exposes the whole window state read-only.
    """

    def __init__(
        self, options: PacingOptions | None = None, *, volatile: bool = False
    ) -> None:
        self.options = options or PacingOptions()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._aborts: deque[int] = deque(maxlen=ABORT_WINDOW)
        self._backoff = BACKOFF_INITIAL
        self._pause_remaining = 0
        self._paused = False
        self._last_budget: int | None = None
        self.proceeds = 0
        self.throttles = 0
        self.pauses = 0
        self.resumes = 0
        metrics = get_telemetry().metrics
        # ``volatile=True`` keeps this pacer's histogram observations out of
        # deterministic metric snapshots — the real-storage migration feeds
        # it wall-clock latencies, which must never reach a byte-compared
        # export.  (The simulated pacer's inputs are virtual-time proxies,
        # so it stays in the default snapshot.)
        self._decisions = metrics.counter(
            "pacer.decisions",
            "pacing decisions per plan_steps call",
            labels=("decision",),
            volatile=volatile,
        )
        self._p99_histogram = metrics.histogram(
            "pacer.p99_latency",
            "windowed p99 latency proxy at each pacing decision",
            buckets=DEFAULT_BUCKETS,
            volatile=volatile,
        )
        self._abort_histogram = metrics.histogram(
            "pacer.abort_rate",
            "windowed abort rate at each pacing decision",
            buckets=RATE_BUCKETS,
            volatile=volatile,
        )

    def snapshot(self) -> PacerSnapshot:
        """The current window state as a read-only :class:`PacerSnapshot`."""
        return PacerSnapshot(
            p99_latency=self.p99_latency(),
            abort_rate=self.abort_rate(),
            latency_samples=len(self._latencies),
            abort_samples=len(self._aborts),
            p99_latency_budget=self.options.p99_latency_budget,
            abort_rate_budget=self.options.abort_rate_budget,
            paused=self._paused,
            pause_remaining=self._pause_remaining,
            backoff=self._backoff,
            last_budget=self._last_budget,
            proceeds=self.proceeds,
            throttles=self.throttles,
            pauses=self.pauses,
            resumes=self.resumes,
        )

    def observe(self, outcome) -> None:
        """Record one transaction attempt (committed or aborted)."""
        self.record(outcome.latency, outcome.aborted)

    def record(self, latency: float, aborted: bool = False) -> None:
        """Record a raw (latency, aborted) sample without an outcome object."""
        self._aborts.append(1 if aborted else 0)
        if not aborted:
            self._latencies.append(latency)

    def p99_latency(self) -> float:
        """Windowed p99 of the committed-transaction latency proxy."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        index = max(0, math.ceil(0.99 * len(ordered)) - 1)
        return ordered[index]

    def abort_rate(self) -> float:
        """Windowed fraction of attempts that aborted."""
        if not self._aborts:
            return 0.0
        return sum(self._aborts) / len(self._aborts)

    def _pressure(self) -> tuple[bool, bool]:
        """(over budget, near budget) for the current windows."""
        options = self.options
        if len(self._latencies) + sum(self._aborts) < MIN_SAMPLES:
            return False, False
        over = False
        near = False
        if options.p99_latency_budget is not None:
            p99 = self.p99_latency()
            if p99 > options.p99_latency_budget:
                over = True
            elif p99 > PRESSURE_RATIO * options.p99_latency_budget:
                near = True
        if options.abort_rate_budget is not None:
            if self.abort_rate() > options.abort_rate_budget:
                over = True
        return over, near

    def plan_steps(self, idle: bool = False) -> int:
        """Migration step budget for this tick (0 = paused).

        ``idle=True`` declares that no live traffic is flowing (a drain
        phase after the workload ended): with nothing to protect, the
        budget opens fully regardless of the frozen windows — otherwise a
        window that ended over budget would pause a drain forever, since
        no new observations can ever slide it back under.
        """
        self._p99_histogram.observe(self.p99_latency())
        self._abort_histogram.observe(self.abort_rate())
        budget, decision = self._decide(idle)
        self._decisions.inc(decision=decision)
        self._last_budget = budget
        return budget

    def _decide(self, idle: bool) -> tuple[int, str]:
        """(step budget, decision label) for this tick; mutates the windows."""
        if idle:
            if self._paused:
                self._paused = False
                self.resumes += 1
            self._pause_remaining = 0
            self._backoff = BACKOFF_INITIAL
            self.proceeds += 1
            return self.options.max_steps, "proceed"
        if self._pause_remaining > 0:
            self._pause_remaining -= 1
            self.pauses += 1
            return 0, "pause"
        over, near = self._pressure()
        if over:
            # Budget exceeded: pause, and double the next pause while the
            # pressure keeps coming back (exponential backoff).
            self.pauses += 1
            self._paused = True
            self._pause_remaining = self._backoff
            self._backoff = min(BACKOFF_MAX, self._backoff * 2)
            return 0, "pause"
        if near:
            self.throttles += 1
            return self.options.throttled_steps, "throttle"
        if self._paused:
            self._paused = False
            self.resumes += 1
            decision = "resume"
        else:
            decision = "proceed"
        self._backoff = BACKOFF_INITIAL
        self.proceeds += 1
        return self.options.max_steps, decision

