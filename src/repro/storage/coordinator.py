"""Routed transaction execution against the durable cluster.

:class:`StorageCoordinator` is the client-facing layer: it routes each
transaction's statements with the existing
:class:`~repro.routing.router.Router`, executes reads (falling back across
the plan's replica set when a read-only participant's worker is
unreachable), applies writes partition by partition under the seeded
retry/backoff policy, and mirrors every committed write into an in-memory
**oracle** database for the post-run audits.

**One request per participant, carrying compiled SQL.**  SQL is compiled
once per statement *shape*, not once per statement: the router's analysis
(:mod:`repro.sqlparse.shape`) hands every decision its shape's text and the
statement's bind values, and the wire carries only those ``(sql, params)``
pairs.  A participant that only reads gets one ``read`` request
carrying every read routed there; these go first, in sorted partition order,
before the first apply.  A participant that writes gets its reads inside its
``apply`` request, ``(txn_id, writes, reads)``, where the worker runs them in
the same SQLite transaction just before the writes.  Either way every read
observes its partition's state before this transaction's writes.  A carried
read has its apply's failure handling and no replica fallback: that
partition must answer for the apply anyway.  Regrouping is sound because
statements are routed up front and pre-bound (no read feeds a later
statement) and reads take no locks.

**Commit point and in-doubt completion.**  A transaction's writes are
applied to its participants in sorted partition order; the transaction is
logically committed the moment the *first* participant durably applied its
batch.  Before that point a retry-budget exhaustion aborts cleanly (the
per-partition dedup table proves nothing landed); after it, the classic 2PC
in-doubt rule applies — the only safe direction is forward, so remaining
participants are completed with patient retries that ride through worker
restarts.  Exactly-once application on each partition (dedup by ``txn_id``)
is what makes those blind retries safe.

**Write ordering.**  Concurrent clients applying non-commutative writes
(TPC-C's delta updates) must reach the cluster and the oracle in the same
per-key order, or the audit would flag false lost updates.  The coordinator
holds per-key write locks (plus shared/exclusive table locks for statements
that do not pin a primary key) from before the first partition apply until
after the oracle mirror; tokens are acquired in a global sort order, so
concurrent transactions cannot deadlock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Container, Sequence

from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.obs import get_telemetry
from repro.routing.router import Router, RoutingDecision
from repro.sqlparse.ast import is_write, statement_tables
from repro.storage.cluster import SqliteStorageCluster
from repro.storage.retry import RetryBudgetExhausted, RetryOptions, RetryPolicy
from repro.storage.sql import UnsupportedStatementError
from repro.storage.sqlite_store import CompiledSql, StoreConstraintError
from repro.storage.worker import RemoteStoreError, WorkerTimeout, WorkerUnavailable
from repro.workload.trace import Transaction

#: attempts/backoff-cap of the patient loops (in-doubt completion and
#: commit-point confirmation) — sized to ride through several supervisor
#: restart cycles before giving up loudly.
PATIENT_ATTEMPTS = 60
PATIENT_DELAY_S = 0.05

#: a routed read and its compiled SQL.
_Read = tuple[RoutingDecision, CompiledSql]


class InDoubtError(RuntimeError):
    """A committed transaction could not be completed on every participant."""


@dataclass
class StorageOutcome:
    """What happened to one routed transaction."""

    txn_id: str
    status: str  # "committed" | "aborted"
    scope: str  # "single" | "distributed"
    participants: tuple[int, ...]
    reason: str = ""
    in_doubt_completed: bool = False
    read_fallbacks: int = 0

    @property
    def committed(self) -> bool:
        """Whether the transaction reached its commit point."""
        return self.status == "committed"


# -- write-lock tokens -----------------------------------------------------------------
class _TableLock:
    """Shared/exclusive lock of one table (no fairness; client counts are small)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._shared = 0
        self._exclusive = False

    def acquire(self, exclusive: bool) -> None:
        with self._cond:
            if exclusive:
                while self._exclusive or self._shared:
                    self._cond.wait()
                self._exclusive = True
            else:
                while self._exclusive:
                    self._cond.wait()
                self._shared += 1

    def release(self, exclusive: bool) -> None:
        with self._cond:
            if exclusive:
                self._exclusive = False
            else:
                self._shared -= 1
            self._cond.notify_all()


class LockManager:
    """Token locks ordering concurrent writers.

    Tokens are ``("key", table, key)`` (exclusive mutex per tuple),
    ``("table-s", table)`` (shared: a key-pinned write), and
    ``("table-x", table)`` (exclusive: a write that could touch any row).
    Acquisition follows the tokens' global sort order and holds everything
    until release, so no cycle — and therefore no deadlock — can form.

    A key's mutex exists only while some transaction holds or awaits it:
    each entry counts those transactions and is dropped by the last release,
    so the table does not grow with every key ever written.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        #: key token -> [its mutex, transactions holding or awaiting it].
        self._key_locks: dict[tuple, list] = {}
        self._table_locks: dict[str, _TableLock] = {}

    def _table_lock(self, table: str) -> _TableLock:
        with self._guard:
            lock = self._table_locks.get(table)
            if lock is None:
                lock = self._table_locks[table] = _TableLock()
            return lock

    def acquire(self, tokens: Sequence[tuple]) -> list[tuple]:
        """Acquire ``tokens`` (pre-sorted); returns them for :meth:`release`."""
        for token in tokens:
            if token[0] == "key":
                with self._guard:
                    entry = self._key_locks.get(token)
                    if entry is None:
                        entry = self._key_locks[token] = [threading.Lock(), 0]
                    entry[1] += 1
                entry[0].acquire()
            else:
                self._table_lock(token[1]).acquire(exclusive=token[0] == "table-x")
        return list(tokens)

    def release(self, tokens: Sequence[tuple]) -> None:
        """Release ``tokens`` in reverse acquisition order."""
        for token in reversed(tokens):
            if token[0] == "key":
                with self._guard:
                    entry = self._key_locks[token]
                    entry[0].release()
                    entry[1] -= 1
                    if not entry[1]:
                        del self._key_locks[token]
            else:
                self._table_lock(token[1]).release(exclusive=token[0] == "table-x")


def write_lock_tokens(decisions: Sequence[RoutingDecision]) -> list[tuple]:
    """The sorted lock tokens guarding a transaction's writes, built from the
    keys the router resolved (so read fallbacks and write locks agree on keys)."""
    tokens: set[tuple] = set()
    for decision in decisions:
        if not is_write(decision.statement):
            continue
        table = decision.statement.table
        if decision.keys is None:
            tokens.add(("table-x", table))
        else:
            tokens.add(("table-s", table))
            for key in decision.keys:
                tokens.add(("key", table, tuple(key)))
    return sorted(tokens, key=repr)


# -- the coordinator -------------------------------------------------------------------
class StorageCoordinator:
    """Routes, retries, locks, and audits transactions over the real cluster."""

    def __init__(
        self,
        cluster: SqliteStorageCluster,
        router: Router,
        *,
        oracle: Database | None = None,
        retry_options: RetryOptions | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.cluster = cluster
        self.router = router
        self.oracle = oracle
        self.policy = RetryPolicy(retry_options, seed=seed, sleep=sleep)
        self.locks = LockManager()
        self._oracle_lock = threading.Lock()
        self._sleep = sleep
        metrics = get_telemetry().metrics
        self._requests = metrics.counter(
            "storage.requests",
            "routed worker requests by operation and outcome",
            labels=("op", "outcome"),
        )
        self._transactions = metrics.counter(
            "storage.transactions",
            "routed transactions by outcome and partition scope",
            labels=("outcome", "scope"),
        )
        self._read_statements = metrics.counter(
            "storage.read_statements",
            "read statements answered by a successful read request or inside an apply",
        )
        self._read_fallbacks = metrics.counter(
            "storage.read_fallbacks", "reads answered by a fallback replica"
        )
        self._write_fast_fails = metrics.counter(
            "storage.write_fast_fails",
            "write transactions aborted after exhausting the retry budget",
        )

    # -- worker plumbing ---------------------------------------------------------------
    def _attempt(self, partition: int, op: str, payload: object) -> object:
        """One worker request, always through the *current* handle."""
        handle = self.cluster.handle(partition)
        try:
            result = handle.request(op, payload, timeout_s=self.policy.options.timeout_s)
        except Exception:
            self._requests.inc(op=op, outcome="error")
            raise
        self._requests.inc(op=op, outcome="ok")
        return result

    def _apply_with_retries(self, partition: int, payload: tuple) -> object:
        return self.policy.run(
            "apply", (payload[0], partition), lambda: self._attempt(partition, "apply", payload)
        )

    def _patiently(self, describe: str, attempt: Callable[[], object]) -> object:
        """Retry ``attempt`` through worker restarts; raise :class:`InDoubtError` only
        after the patience budget — this loop runs *past* the commit point, where
        giving up would mean a partially-applied committed transaction."""
        last_error: BaseException | None = None
        for _ in range(PATIENT_ATTEMPTS):
            try:
                return attempt()
            except (WorkerUnavailable, WorkerTimeout, RetryBudgetExhausted, OSError) as error:
                last_error = error
            except RemoteStoreError as error:
                if error.kind != "retryable":
                    raise
                last_error = error
            self._sleep(PATIENT_DELAY_S)
        raise InDoubtError(f"{describe}: gave up after {PATIENT_ATTEMPTS} attempts ({last_error!r})")

    def _confirm_applied(self, partition: int, txn_id: str) -> bool:
        """Whether ``txn_id`` durably applied on ``partition`` (patient probe).

        Authoritative despite earlier timeouts: the worker serves its pipe
        serially, so this probe is answered after any still-in-flight apply;
        and if the worker was restarted instead, the in-flight apply died
        with it and the fresh worker reads the recovered WAL state.
        """
        return bool(
            self._patiently(
                f"confirm txn {txn_id} on partition {partition}",
                lambda: self._attempt(partition, "has_txn", txn_id),
            )
        )

    # -- reads -------------------------------------------------------------------------
    def _read(self, key: tuple, partition: int, reads: list[CompiledSql]) -> list[list[tuple]]:
        """One ``read`` request under the retry policy: a row list per read."""
        rows = self.policy.run("read", key, lambda: self._attempt(partition, "read", reads))
        self._read_statements.inc(len(reads))
        return rows

    def _read_fallback_partitions(self, decision: RoutingDecision) -> list[int]:
        """Replica-set fallbacks of a single-table, single-replica read, nearest-first."""
        if len(decision.partitions) != 1 or decision.keys is None:
            return []
        (table,) = statement_tables(decision.statement)
        replicas: set[int] = set()
        for key in decision.keys:
            replicas.update(self.router.placement_of(TupleId(table, key)))
        return sorted(replicas - decision.partitions)

    def _read_from_fallback(
        self, read: _Read, outcome: StorageOutcome, error: RetryBudgetExhausted
    ) -> list[tuple]:
        """Retry one read of a failed batch alone on its other replicas;
        re-raises ``error`` when none of them answers."""
        decision, pair = read
        for fallback in self._read_fallback_partitions(decision):
            key = (outcome.txn_id, "read-fallback", fallback, repr(decision.statement))
            try:
                (rows,) = self._read(key, fallback, [pair])
            except RetryBudgetExhausted:
                continue
            self._read_fallbacks.inc()
            outcome.read_fallbacks += 1
            return rows
        raise error

    def _execute_reads(
        self, reads: list[_Read], outcome: StorageOutcome, writers: Container[int] = ()
    ) -> list[list[tuple]]:
        """Run the reads routed to partitions outside ``writers`` (whose reads
        ride in their apply), one request per partition in sorted order;
        returns one row list per read, in statement order."""
        batches: dict[int, list[int]] = {}
        for index, (decision, _) in enumerate(reads):
            for partition in decision.partitions:
                if partition not in writers:
                    batches.setdefault(partition, []).append(index)
        rows: list[list[tuple]] = [[] for _ in reads]
        for partition in sorted(batches):
            indexes = batches[partition]
            try:
                results = self._read(
                    (outcome.txn_id, "read", partition),
                    partition,
                    [reads[index][1] for index in indexes],
                )
            except RetryBudgetExhausted as error:
                results = [self._read_from_fallback(reads[i], outcome, error) for i in indexes]
            for index, result in zip(indexes, results):
                rows[index].extend(result)
        return rows

    # -- transactions ------------------------------------------------------------------
    def execute_transaction(self, transaction: Transaction, txn_id: str) -> StorageOutcome:
        """Route and execute one transaction; returns its outcome.

        Each participant gets one request, sent in sorted partition order
        under the transaction's write locks: read-only participants first,
        then each writing participant's apply, which carries its share of the
        reads.  Committed writes are mirrored into the oracle before the locks
        release, so cluster and oracle agree on per-key order.
        """
        decisions = self.router.route_transaction(transaction)
        participants: set[int] = set()
        for decision in decisions:
            participants.update(decision.partitions)
        scope = "single" if len(participants) <= 1 else "distributed"
        outcome = StorageOutcome(
            txn_id=txn_id,
            status="committed",
            scope=scope,
            participants=tuple(sorted(participants)),
        )
        reads: list[_Read] = []
        # partition -> (its write pairs, the reads its apply carries)
        batches: dict[int, tuple[list[CompiledSql], list[CompiledSql]]] = {}
        for decision in decisions:
            if decision.sql is None:
                raise UnsupportedStatementError(f"cannot compile {decision.statement!r}")
            pair = (decision.sql, decision.params)
            if is_write(decision.statement):
                for partition in decision.partitions:
                    batches.setdefault(partition, ([], []))[0].append(pair)
            else:
                reads.append((decision, pair))
        for decision, pair in reads:
            for partition in decision.partitions & batches.keys():
                batches[partition][1].append(pair)
        tokens = (
            write_lock_tokens(decisions) if batches and self.router.schema is not None else []
        )
        self.locks.acquire(tokens)
        try:
            try:
                self._execute_reads(reads, outcome, writers=batches)
            except RetryBudgetExhausted as error:
                outcome.status = "aborted"
                outcome.reason = f"read unavailable: {error.operation}"
                self._transactions.inc(outcome="aborted", scope=scope)
                return outcome
            if batches:
                self._apply_writes(outcome, batches, decisions)
            self._transactions.inc(outcome=outcome.status, scope=scope)
            return outcome
        finally:
            self.locks.release(tokens)

    def _apply_writes(
        self,
        outcome: StorageOutcome,
        batches: dict[int, tuple[list[CompiledSql], list[CompiledSql]]],
        decisions: list[RoutingDecision],
    ) -> None:
        committed = False  # flips once the first participant durably applied
        for partition in sorted(batches):
            writes, reads = batches[partition]
            payload = (outcome.txn_id, writes, reads)
            try:
                if not committed:
                    self._apply_with_retries(partition, payload)
                    committed = True
                else:
                    outcome.in_doubt_completed = (
                        self._complete_forward(partition, payload) or outcome.in_doubt_completed
                    )
                self._read_statements.inc(len(reads))
            except StoreConstraintError as error:
                if committed:  # pragma: no cover - workload never splits constraints
                    raise InDoubtError(
                        f"constraint violation after commit point on partition {partition}"
                    ) from error
                outcome.status = "aborted"
                outcome.reason = f"constraint: {error}"
                return
            except RemoteStoreError as error:
                if error.kind == "fatal":
                    if committed:  # pragma: no cover - as above
                        raise InDoubtError(
                            f"fatal error after commit point on partition {partition}"
                        ) from error
                    outcome.status = "aborted"
                    outcome.reason = f"fatal: {error}"
                    return
                raise  # pragma: no cover - retryable RemoteStoreError is consumed by the policy
            except RetryBudgetExhausted:
                # The budget ran out on the would-be first participant; a
                # timed-out attempt may still have landed, so ask the dedup
                # table which side of the commit point we are on.
                if self._confirm_applied(partition, outcome.txn_id):
                    committed = True
                    continue
                outcome.status = "aborted"
                outcome.reason = "write fast-fail: retry budget exhausted"
                self._write_fast_fails.inc()
                return
        if committed and self.oracle is not None:
            with self._oracle_lock:
                for decision in decisions:
                    if is_write(decision.statement):
                        self.oracle.execute(decision.statement)

    def _complete_forward(self, partition: int, payload: tuple) -> bool:
        """Apply one participant's batch past the commit point (patiently);
        the resent payload's reads are idempotent.

        Returns whether completion needed the patient path (the normal
        retry budget did not suffice)."""
        try:
            self._apply_with_retries(partition, payload)
            return False
        except RetryBudgetExhausted:
            self._patiently(
                f"forward-complete txn {payload[0]} on partition {partition}",
                lambda: self._attempt(partition, "apply", payload),
            )
            return True
