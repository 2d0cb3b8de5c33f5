"""The coordinator's batched read path, driven in-process.

A stub cluster stands in for :class:`SqliteStorageCluster` behind the same
``handle(p).request(op, payload, timeout_s=)`` seam: each partition is a real
:class:`SqlitePartitionStore` served in this process, every request is logged,
and a partition can be declared dead (its requests raise
:class:`WorkerUnavailable`) or down for its next few requests.  That makes the
request *count and order* of a transaction, the reads an apply carries, the
fallback walk, the ``read unavailable`` abort and the apply's failure handling
checkable without worker processes; the last tests send malformed payloads to
a real worker.
"""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning
from repro.graph.assignment import PartitionAssignment
from repro.obs import Telemetry, use_telemetry
from repro.routing.router import Router
from repro.sqlparse.ast import (
    ColumnRef,
    Comparison,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
    eq,
    is_write,
)
from repro.storage import RetryOptions, SqliteStorageCluster, StorageCoordinator
from repro.storage.coordinator import StorageOutcome
from repro.storage.sql import compile_statement
from repro.storage.worker import RemoteStoreError, WorkerHandle, WorkerUnavailable
from repro.workload.trace import Transaction


class StubHandle:
    def __init__(self, cluster: "StubCluster", partition: int) -> None:
        self.cluster = cluster
        self.partition = partition

    def request(self, op: str, payload: object = None, timeout_s: float = 1.0) -> object:
        cluster = self.cluster
        cluster.log.append((self.partition, op, payload))
        if self.partition in cluster.dead:
            raise WorkerUnavailable(self.partition, "stub: declared dead")
        if cluster.down.get(self.partition):
            cluster.down[self.partition] -= 1
            raise WorkerUnavailable(self.partition, "stub: killed, not yet restarted")
        store = cluster.stores[self.partition]
        if op == "read":
            return store.execute_read(payload)
        if op == "apply":
            return store.apply_transaction(*payload)
        if op == "has_txn":
            return store.has_transaction(payload)
        raise AssertionError(f"unexpected worker op {op!r}")


class StubCluster:
    """Bulk-loaded partition files served in-process; workers never start."""

    def __init__(self, directory, database, strategy) -> None:
        files = SqliteStorageCluster.from_database(directory, database, strategy)
        self.num_partitions = files.num_partitions
        self.stores = {p: files.open_store(p) for p in range(files.num_partitions)}
        self.dead: set[int] = set()
        #: partition -> how many of its next requests fail before it answers again.
        self.down: dict[int, int] = {}
        self.log: list[tuple[int, str, object]] = []

    def handle(self, partition: int) -> StubHandle:
        return StubHandle(self, partition)

    def sent(self, op: str) -> list[int]:
        """Partitions that were sent ``op``, in request order."""
        return [partition for partition, sent_op, _ in self.log if sent_op == op]

    def close(self) -> None:
        for store in self.stores.values():
            store.close()


def _read(account_id: int) -> SelectStatement:
    return SelectStatement(("account",), where=eq("id", account_id))


def _debit(account_id: int, amount: int = 10) -> UpdateStatement:
    return UpdateStatement("account", {"bal": ("delta", -amount)}, where=eq("id", account_id))


def _execute_reads(coordinator, decisions, outcome):
    """The coordinator's read path over every decision (none of them writes)."""
    reads = [(decision, compile_statement(decision.statement)) for decision in decisions]
    return coordinator._execute_reads(reads, outcome)


def _audit(cluster, oracle) -> None:
    """Every row on every partition equals the oracle's row."""
    for store in cluster.stores.values():
        for key, row in store.all_rows("account").items():
            assert row == oracle.get_row(TupleId("account", key)), key


def _counter(telemetry, name: str, **labels: object) -> float:
    family = telemetry.metrics.counter(name, labels=tuple(labels))
    return family.labels(**labels).value


@pytest.fixture
def bank(tmp_path, bank_database):
    """Accounts 1, 2 on partition 0; 3, 4 on partition 1; 5 replicated on both."""
    assignment = PartitionAssignment(2)
    for account_id, partitions in ((1, [0]), (2, [0]), (3, [1]), (4, [1]), (5, [0, 1])):
        assignment.assign(TupleId("account", (account_id,)), partitions)
    strategy = LookupTablePartitioning(2, assignment)
    cluster = StubCluster(tmp_path, bank_database, strategy)
    router = Router(strategy, bank_database.schema)
    with use_telemetry(Telemetry.create(seed=0)) as telemetry:
        coordinator = StorageCoordinator(
            cluster,
            router,
            oracle=bank_database,
            retry_options=RetryOptions(max_retries=2),
            sleep=lambda seconds: None,
        )
        try:
            yield cluster, coordinator, telemetry
        finally:
            cluster.close()


def test_one_read_per_read_participant_and_one_apply_per_write_participant(bank):
    cluster, coordinator, telemetry = bank
    transaction = Transaction([_read(3), _read(1), _debit(1), _read(4), _read(2)])
    outcome = coordinator.execute_transaction(transaction, "txn-1")
    assert outcome.committed and outcome.participants == (0, 1)
    # one request per participant: the read-only one first, then the writer's
    # apply, which carries that partition's reads.
    assert [(p, op) for p, op, _ in cluster.log] == [(1, "read"), (0, "apply")]
    # every batch holds compiled pairs of its partition's statements, in statement order.
    assert cluster.log[0][2] == [compile_statement(_read(3)), compile_statement(_read(4))]
    assert cluster.log[1][2] == (
        "txn-1",
        [compile_statement(_debit(1))],
        [compile_statement(_read(1)), compile_statement(_read(2))],
    )
    assert _counter(telemetry, "storage.requests", op="read", outcome="ok") == 1
    assert _counter(telemetry, "storage.requests", op="apply", outcome="ok") == 1
    # carried reads count like batched ones.
    assert _counter(telemetry, "storage.read_statements") == 4


def test_a_carried_read_of_a_row_its_apply_updates_sees_the_old_value(
    bank, bank_database, monkeypatch
):
    cluster, coordinator, _ = bank
    before = bank_database.get_row(TupleId("account", (1,)))["bal"]
    replies = []
    request = StubHandle.request

    def recording(handle, op, payload=None, timeout_s=1.0):
        reply = request(handle, op, payload, timeout_s)
        replies.append((op, reply))
        return reply

    monkeypatch.setattr(StubHandle, "request", recording)
    # the update precedes the read in the transaction, yet the read sees the
    # partition as it was before any of the transaction's writes.
    outcome = coordinator.execute_transaction(Transaction([_debit(1), _read(1)]), "txn-1")
    assert outcome.committed
    ((op, (status, (rows,))),) = replies
    assert (op, status) == ("apply", "applied")
    assert [row[2] for row in rows] == [before]
    assert bank_database.get_row(TupleId("account", (1,)))["bal"] == before - 10
    _audit(cluster, bank_database)


def test_a_killed_first_writer_aborts_cleanly_before_its_carried_apply(bank, bank_database):
    cluster, coordinator, telemetry = bank
    balances = {i: bank_database.get_row(TupleId("account", (i,)))["bal"] for i in (1, 3)}
    cluster.down[0] = 3  # the whole apply budget (max_retries=2) on partition 0
    outcome = coordinator.execute_transaction(
        Transaction([_read(1), _debit(1), _read(3), _debit(3)]), "txn-1"
    )
    assert outcome.status == "aborted"
    assert outcome.reason == "write fast-fail: retry budget exhausted"
    # no read request: both participants write, so their reads ride in the applies.
    assert [(p, op) for p, op, _ in cluster.log] == [(0, "apply")] * 3 + [(0, "has_txn")]
    assert {i: bank_database.get_row(TupleId("account", (i,)))["bal"] for i in (1, 3)} == balances
    assert _counter(telemetry, "storage.read_statements") == 0
    _audit(cluster, bank_database)


def test_a_killed_later_writer_completes_forward_with_its_carried_reads(bank, bank_database):
    cluster, coordinator, telemetry = bank
    cluster.down[1] = 3  # the retry budget runs out past the commit point
    outcome = coordinator.execute_transaction(
        Transaction([_read(1), _debit(1), _read(3), _debit(3)]), "txn-1"
    )
    assert outcome.committed and outcome.in_doubt_completed
    applies = [payload for p, op, payload in cluster.log if op == "apply" and p == 1]
    assert len(applies) == 4 and len(set(map(repr, applies))) == 1  # the same payload resent
    assert applies[0][2] == [compile_statement(_read(3))]
    assert _counter(telemetry, "storage.read_statements") == 2
    _audit(cluster, bank_database)


def test_rows_come_back_per_statement_in_statement_order(bank, bank_database):
    cluster, coordinator, _ = bank
    # the scan pins no key, so it joins both partitions' batches (it leaves out
    # the replicated account 5, which a broadcast read would see once per replica).
    scan = SelectStatement(("account",), where=Comparison(ColumnRef("bal"), ">", 20_000))
    statements = [_read(3), _read(1), scan, _read(4)]
    decisions = coordinator.router.route_transaction(Transaction(statements))
    rows = _execute_reads(coordinator, decisions, StorageOutcome("txn-1", "committed", "", ()))
    assert cluster.sent("read") == [0, 1]
    assert [sorted(statement_rows) for statement_rows in rows] == [
        sorted(tuple(row.values()) for row in bank_database.execute(statement).rows)
        for statement in statements
    ]


def test_batched_reads_match_per_statement_execution_on_a_tpcc_slice(tmp_path, tiny_tpcc):
    database = tiny_tpcc.database
    # the expert placement (by warehouse, ``item`` replicated): pk-hashing would
    # broadcast every insert, and a later scan would see those rows once per copy.
    strategy = tiny_tpcc.manual_strategy(2)
    cluster = StubCluster(tmp_path, database, strategy)
    coordinator = StorageCoordinator(cluster, Router(strategy, database.schema), oracle=database)
    try:
        reads_checked = 0
        for index, transaction in enumerate(tiny_tpcc.workload.transactions[:60]):
            decisions = [
                decision
                for decision in coordinator.router.route_transaction(transaction)
                if not is_write(decision.statement) and not decision.statement.is_join
            ]
            # reads see the pre-transaction state: ask the oracle first.
            expected = [
                sorted(tuple(row.values()) for row in database.execute(d.statement).rows)
                for d in decisions
            ]
            outcome = StorageOutcome(f"txn-{index}", "committed", "", ())
            batched = _execute_reads(coordinator, decisions, outcome)
            assert [sorted(rows) for rows in batched] == expected
            reads_checked += len(decisions)
            before = len(cluster.log)
            outcome = coordinator.execute_transaction(transaction, f"txn-{index}")
            assert outcome.committed
            assert len(cluster.log) - before == len(outcome.participants)
        assert reads_checked > 100
    finally:
        cluster.close()


def test_dead_partition_serves_replicated_reads_from_the_fallback_replica(bank):
    cluster, coordinator, telemetry = bank
    # the router narrows the replicated account 5 to its lowest replica.
    (decision,) = coordinator.router.route_transaction(Transaction([_read(5)]))
    assert decision.partitions == {0}
    cluster.dead.add(0)
    outcome = coordinator.execute_transaction(
        Transaction(
            [
                _read(5),
                _read(5),
                UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 3)),
            ]
        ),
        "txn-1",
    )
    assert outcome.committed
    # one batch (3 attempts) failed, then each statement was retried alone.
    assert outcome.read_fallbacks == 2
    assert _counter(telemetry, "storage.read_fallbacks") == 2
    assert cluster.sent("read") == [0, 0, 0, 1, 1]
    assert _counter(telemetry, "storage.read_statements") == 2
    assert cluster.sent("apply") == [1]


def test_dead_partition_with_an_unreplicated_read_aborts_before_any_write(bank, bank_database):
    cluster, coordinator, telemetry = bank
    cluster.dead.add(0)
    outcome = coordinator.execute_transaction(
        Transaction(
            [
                _read(5),  # replicated: the fallback replica would answer
                _read(1),  # only on the dead partition
                UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 3)),
            ]
        ),
        "txn-1",
    )
    assert outcome.status == "aborted"
    assert outcome.reason == "read unavailable: read"
    assert cluster.sent("apply") == []
    assert bank_database.get_row(TupleId("account", (3,)))["bal"] == 129_000
    assert _counter(telemetry, "storage.transactions", outcome="aborted", scope="distributed") == 1


def test_a_bare_statement_as_read_payload_is_a_fatal_error_and_the_worker_keeps_serving(
    tmp_path, bank_schema
):
    handle = WorkerHandle(0, tmp_path / "p0.sqlite", bank_schema)
    try:
        with pytest.raises(RemoteStoreError) as info:
            handle.request("read", _read(1), timeout_s=10.0)
        assert info.value.kind == "fatal"
        assert handle.request("ping", timeout_s=10.0) == "pong"
        assert handle.request("read", [compile_statement(_read(1))], timeout_s=10.0) == [[]]
    finally:
        handle.close()
    assert not handle.process.is_alive()


@pytest.mark.storage
def test_the_worker_fails_closed_on_anything_but_compiled_sql_and_keeps_serving(
    tmp_path, bank_schema
):
    insert = compile_statement(InsertStatement("account", {"id": 9, "name": "x", "bal": 1}))
    select = compile_statement(_read(9))
    malformed = {
        "statement objects in a read batch": ("read", [_read(9)]),
        "old-format apply of statement objects": ("apply", ("t-1", [_debit(9)])),
        "statement objects in an apply": ("apply", ("t-1", [_debit(9)], [])),
        "read SQL that is not a str": ("read", [(b"SELECT 1", [])]),
        "write SQL that is not a str": ("apply", ("t-1", [(42, [])], [])),
        "a write in a read batch": ("read", [insert]),
        "a write among an apply's reads": ("apply", ("t-1", [], [insert])),
        # the insert runs before the check refuses the SELECT: it must roll back.
        "a read among an apply's writes": ("apply", ("t-1", [insert, select], [])),
    }
    handle = WorkerHandle(0, tmp_path / "p0.sqlite", bank_schema)
    try:
        for case, (op, payload) in malformed.items():
            with pytest.raises(RemoteStoreError) as info:
                handle.request(op, payload, timeout_s=10.0)
            assert info.value.kind == "fatal", case
            assert handle.request("ping", timeout_s=10.0) == "pong", case
        # nothing autocommitted or half-applied, and the txn id is still free.
        assert handle.request("row_count", timeout_s=10.0) == 0
        assert handle.request("has_txn", "t-1", timeout_s=10.0) is False
        assert handle.request("apply", ("t-1", [insert], [select]), timeout_s=10.0) == (
            "applied",
            [[]],
        )
        assert handle.request("read", [select], timeout_s=10.0) == [[(9, "x", 1)]]
    finally:
        handle.close()
    assert not handle.process.is_alive()
