"""The coordinator's batched read path, driven in-process.

A stub cluster stands in for :class:`SqliteStorageCluster` behind the same
``handle(p).request(op, payload, timeout_s=)`` seam: each partition is a real
:class:`SqlitePartitionStore` served in this process, every request is logged,
and a partition can be declared dead (its requests raise
:class:`WorkerUnavailable`).  That makes the request *count and order* of a
transaction, the fallback walk and the ``read unavailable`` abort checkable
without worker processes; one last test sends a malformed ``read`` payload to
a real worker.
"""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning
from repro.graph.assignment import PartitionAssignment
from repro.obs import Telemetry, use_telemetry
from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router
from repro.sqlparse.ast import (
    ColumnRef,
    Comparison,
    SelectStatement,
    UpdateStatement,
    eq,
    is_write,
)
from repro.storage import RetryOptions, SqliteStorageCluster, StorageCoordinator
from repro.storage.coordinator import StorageOutcome
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
    router = Router(strategy, bank_database.schema, build_lookup_table(assignment))
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
    transaction = Transaction(
        [
            _read(3),
            _read(1),
            UpdateStatement("account", {"bal": ("delta", -10)}, where=eq("id", 1)),
            _read(4),
            _read(2),
        ]
    )
    outcome = coordinator.execute_transaction(transaction, "txn-1")
    assert outcome.committed and outcome.participants == (0, 1)
    # sorted partition order, every read before the first apply.
    assert [(p, op) for p, op, _ in cluster.log] == [(0, "read"), (1, "read"), (0, "apply")]
    assert len(cluster.log) <= 2 * len(outcome.participants)
    # each batch carries its partition's statements in statement order.
    assert cluster.log[0][2] == [_read(1), _read(2)]
    assert cluster.log[1][2] == [_read(3), _read(4)]
    assert _counter(telemetry, "storage.requests", op="read", outcome="ok") == 2
    assert _counter(telemetry, "storage.requests", op="apply", outcome="ok") == 1
    assert _counter(telemetry, "storage.read_statements") == 4


def test_rows_come_back_per_statement_in_statement_order(bank, bank_database):
    cluster, coordinator, _ = bank
    # the scan pins no key, so it joins both partitions' batches (it leaves out
    # the replicated account 5, which a broadcast read would see once per replica).
    scan = SelectStatement(("account",), where=Comparison(ColumnRef("bal"), ">", 20_000))
    statements = [_read(3), _read(1), scan, _read(4)]
    decisions = coordinator.router.route_transaction(Transaction(statements))
    rows = coordinator._execute_reads(decisions, StorageOutcome("txn-1", "committed", "", ()))
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
            batched = coordinator._execute_reads(decisions, outcome)
            assert [sorted(rows) for rows in batched] == expected
            reads_checked += len(decisions)
            before = len(cluster.log)
            outcome = coordinator.execute_transaction(transaction, f"txn-{index}")
            assert outcome.committed
            assert len(cluster.log) - before <= 2 * len(outcome.participants)
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
        assert handle.request("read", [_read(1)], timeout_s=10.0) == [[]]
    finally:
        handle.close()
    assert not handle.process.is_alive()
