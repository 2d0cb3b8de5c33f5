"""Distributed transaction execution with two-phase commit accounting.

The coordinator drives routed transactions against the partition databases of
a :class:`~repro.distributed.cluster.Cluster` and records, per transaction,
the participants and the number of network messages.  Single-partition
transactions commit with a single request/response; multi-partition
transactions pay the full 2PC message complement (prepare + vote + commit +
ack per participant), which is exactly the overhead Section 3 of the paper
blames for the 2x throughput loss.

With a :class:`~repro.distributed.faults.FaultInjector` attached, each
transaction is first routed completely, then every planned message is drawn
against the injector *before* any statement executes: a crashed participant
or a dropped message aborts the transaction with **zero side effects**,
modelling a 2PC prepare-phase failure (the toy engine has no undo log, so an
aborted transaction must never have touched storage).  Aborted attempts pay
the abort message complement and are counted separately from committed
transactions, feeding the migration pacer's abort-rate estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.cluster import Cluster
from repro.distributed.faults import FaultInjector, MessageDropped
from repro.engine.database import StatementResult
from repro.obs import get_telemetry
from repro.routing.router import Router
from repro.workload.trace import Transaction, Workload


@dataclass
class TransactionOutcome:
    """Execution record of one transaction (or one aborted attempt)."""

    transaction: Transaction
    participants: frozenset[int]
    messages: int
    statement_results: list[StatementResult] = field(default_factory=list)
    #: True when a fault aborted the attempt before any statement executed.
    aborted: bool = False
    #: why the attempt aborted (empty for committed transactions).
    abort_reason: str = ""
    #: latency proxy: messages exchanged plus injected delivery delays.
    latency: float = 0.0

    @property
    def is_distributed(self) -> bool:
        """Whether the transaction involved more than one partition."""
        return len(self.participants) > 1


@dataclass
class CoordinatorStatistics:
    """Aggregate statistics across executed transactions.

    ``transactions`` counts *committed* transactions only; aborted attempts
    are tallied in ``aborts`` so the distributed fraction keeps its meaning
    (fraction of committed work that was distributed).
    """

    transactions: int = 0
    distributed_transactions: int = 0
    total_messages: int = 0
    total_participants: int = 0
    aborts: int = 0

    @property
    def distributed_fraction(self) -> float:
        """Fraction of executed transactions that were distributed."""
        if self.transactions == 0:
            return 0.0
        return self.distributed_transactions / self.transactions

    @property
    def mean_messages(self) -> float:
        """Mean network messages per transaction."""
        if self.transactions == 0:
            return 0.0
        return self.total_messages / self.transactions

    @property
    def abort_rate(self) -> float:
        """Aborted attempts as a fraction of all attempts."""
        attempts = self.transactions + self.aborts
        if attempts == 0:
            return 0.0
        return self.aborts / attempts


class TwoPhaseCommitCoordinator:
    """Executes transactions across a cluster using a router."""

    def __init__(
        self,
        cluster: Cluster,
        router: Router,
        injector: FaultInjector | None = None,
    ) -> None:
        if cluster.num_partitions != router.num_partitions:
            raise ValueError("cluster and router disagree on the number of partitions")
        self.cluster = cluster
        self.router = router
        self.injector = injector
        self.statistics = CoordinatorStatistics()
        #: injected delivery delay accumulated by the last fault draw.
        self._delay_total = 0.0
        metrics = get_telemetry().metrics
        self._attempts = metrics.counter(
            "twopc.attempts",
            "transaction attempts by outcome and locality",
            labels=("outcome", "scope"),
        )
        self._abort_reasons = metrics.counter(
            "twopc.aborts", "aborted attempts by (normalised) reason", labels=("reason",)
        )
        self._messages = metrics.counter(
            "twopc.messages", "network messages exchanged"
        )
        self._latency = metrics.histogram(
            "twopc.latency", "per-attempt latency proxy (messages + injected delay)"
        )

    def execute_transaction(self, transaction: Transaction) -> TransactionOutcome:
        """Execute one transaction, returning its outcome and updating statistics."""
        decisions = self.router.route_transaction(transaction)
        participants: set[int] = set()
        messages = 0
        for decision in decisions:
            participants.update(decision.partitions)
            # One request and one response per destination partition.
            messages += 2 * len(decision.partitions)
        if len(participants) > 1:
            # Two-phase commit: prepare + vote + commit + ack per participant.
            messages += 4 * len(participants)
        else:
            # Local commit: single commit request + acknowledgement.
            messages += 2
        latency = float(messages)
        if self.injector is not None:
            self.injector.advance()
            aborted = self._draw_faults(participants, messages)
            if aborted is not None:
                # Prepare failed: every participant is told to abort (or is
                # unreachable) — one request/response pair each, no commit.
                abort_messages = 2 * max(1, len(participants))
                outcome = TransactionOutcome(
                    transaction,
                    frozenset(participants),
                    abort_messages,
                    aborted=True,
                    abort_reason=aborted,
                    latency=float(abort_messages),
                )
                self.statistics.aborts += 1
                scope = "distributed" if len(participants) > 1 else "local"
                self._attempts.inc(outcome="aborted", scope=scope)
                # Bounded label cardinality: "participant N unavailable"
                # normalises to "unavailable" (the outcome keeps the full
                # reason string).
                self._abort_reasons.inc(
                    reason="unavailable" if "unavailable" in aborted else "dropped"
                )
                self._messages.inc(abort_messages)
                self._latency.observe(outcome.latency)
                return outcome
        statement_results: list[StatementResult] = []
        for statement, decision in zip(transaction.statements, decisions):
            merged = StatementResult()
            for partition in sorted(decision.partitions):
                result = self.cluster.database(partition).execute(statement)
                merged.rows.extend(result.rows)
                merged.read_set.update(result.read_set)
                merged.write_set.update(result.write_set)
            statement_results.append(merged)
        outcome = TransactionOutcome(
            transaction,
            frozenset(participants),
            messages,
            statement_results,
            latency=latency + self._delay_total,
        )
        self._record(outcome)
        return outcome

    def _draw_faults(self, participants: set[int], messages: int) -> str | None:
        """Draw every fault outcome for this attempt; returns an abort reason.

        All draws happen before execution so an aborted transaction has zero
        side effects; the delay total of a surviving attempt is left in
        ``_delay_total`` for the latency proxy.
        """
        injector = self.injector
        assert injector is not None
        self._delay_total = 0.0
        down = sorted(
            partition
            for partition in participants
            if not injector.node_available(partition)
        )
        if down:
            injector.statistics.unavailability_hits += 1
            return f"participant {down[0]} unavailable"
        delay = 0.0
        try:
            for _ in range(messages):
                delay += injector.deliver()
        except MessageDropped:
            return "message dropped"
        self._delay_total = delay
        return None

    def execute_with_retries(
        self,
        transaction: Transaction,
        max_attempts: int = 16,
        observer=None,
    ) -> TransactionOutcome:
        """Retry ``transaction`` until it commits or ``max_attempts`` is spent.

        Each attempt advances the injector clock, so a crash window expires
        under retries instead of livelocking them.  ``observer`` (when
        given) is called with *every* attempt's outcome — aborted retries
        included — which is what an SLO pacer needs to see: the final
        outcome alone hides the abort pressure the retries absorbed.
        Returns the final (committed or still-aborted) outcome.
        """
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        outcome = self.execute_transaction(transaction)
        if observer is not None:
            observer(outcome)
        attempts = 1
        while outcome.aborted and attempts < max_attempts:
            outcome = self.execute_transaction(transaction)
            if observer is not None:
                observer(outcome)
            attempts += 1
        return outcome

    def execute_workload(self, workload: Workload) -> list[TransactionOutcome]:
        """Execute every transaction of ``workload`` in order."""
        return [self.execute_transaction(transaction) for transaction in workload]

    def _record(self, outcome: TransactionOutcome) -> None:
        self.statistics.transactions += 1
        self.statistics.total_messages += outcome.messages
        self.statistics.total_participants += len(outcome.participants)
        if outcome.is_distributed:
            self.statistics.distributed_transactions += 1
        self._attempts.inc(
            outcome="committed",
            scope="distributed" if outcome.is_distributed else "local",
        )
        self._messages.inc(outcome.messages)
        self._latency.observe(outcome.latency)
