"""Tests for the statement router."""

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    hash_on,
    range_on,
    replicate,
    stable_hash,
)
from repro.graph.assignment import PartitionAssignment
from repro.routing.router import Router, TransactionRoutingContext
from repro.sqlparse.ast import InsertStatement, SelectStatement, UpdateStatement, eq, in_list
from repro.storage import SqliteStorageCluster
from repro.storage.sql import compile_statement
from repro.storage.sqlite_store import SqlitePartitionStore
from repro.workload.trace import Transaction


def range_strategy(k=2):
    return CompositePartitioning(
        k,
        {"account": range_on("id", [49]), "item": replicate()},
    )


def test_routed_select_single_partition(bank_schema):
    router = Router(range_strategy(), schema=bank_schema)
    decision = router.route_statement(SelectStatement(("account",), where=eq("id", 10)))
    assert decision.partitions == {0}
    assert decision.is_single_partition
    assert not decision.broadcast


def test_unroutable_select_broadcasts(bank_schema):
    router = Router(range_strategy(), schema=bank_schema)
    decision = router.route_statement(SelectStatement(("account",), where=eq("name", "carlo")))
    assert decision.broadcast
    assert decision.partitions == {0, 1}


def test_insert_routed_by_values(bank_schema):
    router = Router(range_strategy(), schema=bank_schema)
    decision = router.route_statement(
        InsertStatement("account", {"id": 80, "name": "x", "bal": 0})
    )
    assert decision.partitions == {1}


def test_replicated_read_prefers_touched_partition(bank_schema):
    strategy = CompositePartitioning(3, {"account": replicate()})
    router = Router(strategy, schema=bank_schema)
    context = TransactionRoutingContext()
    context.touched_partitions.add(2)
    decision = router.route_statement(
        SelectStatement(("account",), where=eq("id", 1)), context
    )
    assert decision.partitions == {2}


def test_replicated_read_with_nothing_touched_is_spread_by_transaction_id(bank_schema):
    router = Router(FullReplication(3), schema=bank_schema)
    read = SelectStatement(("account",), where=eq("id", 1))
    served = [
        router.transaction_participants(Transaction((read,), transaction_id=tid))
        for tid in range(6)
    ]
    assert served == [{0}, {1}, {2}, {0}, {1}, {2}]


def test_replicated_write_goes_everywhere(bank_schema):
    strategy = FullReplication(3)
    router = Router(strategy, schema=bank_schema)
    decision = router.route_statement(
        UpdateStatement("account", {"bal": 1}, where=eq("id", 1))
    )
    assert decision.partitions == {0, 1, 2}


def test_lookup_table_routing(bank_schema):
    assignment = PartitionAssignment(2)
    assignment.assign(TupleId("account", (1,)), {1})
    assignment.assign(TupleId("account", (2,)), {0})
    strategy = LookupTablePartitioning(2, assignment, default_policy="hash")
    router = Router(strategy, schema=bank_schema)
    decision = router.route_statement(SelectStatement(("account",), where=eq("id", 1)))
    assert decision.partitions == {1}
    decision = router.route_statement(SelectStatement(("account",), where=in_list("id", [1, 2])))
    assert decision.partitions == {0, 1}


def test_route_transaction_accumulates_participants(bank_schema):
    router = Router(range_strategy(), schema=bank_schema)
    transaction = Transaction(
        (
            SelectStatement(("account",), where=eq("id", 10)),
            SelectStatement(("account",), where=eq("id", 80)),
        )
    )
    participants = router.transaction_participants(transaction)
    assert participants == {0, 1}
    decisions = router.route_transaction(transaction)
    assert len(decisions) == 2


# -- dual-write migration window -----------------------------------------------------
def _lookup_router(bank_schema, k=4, placements=None):
    assignment = PartitionAssignment(k)
    for key, partitions in (placements or {1: {0}, 2: {1}}).items():
        assignment.assign(TupleId("account", (key,)), set(partitions))
    strategy = LookupTablePartitioning(k, assignment, "hash")
    return Router(strategy, schema=bank_schema)


def test_window_widens_writes_but_not_reads(bank_schema):
    router = _lookup_router(bank_schema)
    tuple_id = TupleId("account", (1,))
    router.migration_window.open([(tuple_id, {2})])
    write = router.route_statement(
        UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 1))
    )
    # The write reaches the copy destination as well as the source replica.
    assert write.partitions == {0, 2}
    read = router.route_statement(SelectStatement(("account",), where=eq("id", 1)))
    # Reads keep preferring the source until the routing flip.
    assert read.partitions == {0}


def test_window_only_affects_in_flight_tuples(bank_schema):
    router = _lookup_router(bank_schema)
    router.migration_window.open([(TupleId("account", (1,)), {2})])
    other = router.route_statement(
        UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 2))
    )
    assert other.partitions == {1}


def test_window_close_restores_plain_routing(bank_schema):
    router = _lookup_router(bank_schema)
    tuple_id = TupleId("account", (1,))
    router.migration_window.open([(tuple_id, {2})])
    assert router.migration_window
    router.migration_window.close()
    assert not router.migration_window
    write = router.route_statement(
        UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 1))
    )
    assert write.partitions == {0}


def test_window_empty_extras_are_dropped(bank_schema):
    router = _lookup_router(bank_schema)
    router.migration_window.open([(TupleId("account", (1,)), frozenset())])
    # An unchanged tuple contributes no entry — the window stays closed.
    assert not router.migration_window
    assert len(router.migration_window) == 0


#: hash placements of ``account`` by balance: each answers an ``IN`` list on
#: ``bal`` with the union of its values' homes, never with a replica set.
HASH_BY_BALANCE = [
    HashPartitioning(2, {"account": ("bal",)}),
    CompositePartitioning(2, {"account": hash_on("bal")}),
]


@pytest.mark.parametrize("strategy", HASH_BY_BALANCE, ids=["hash", "composite"])
def test_hash_in_list_covering_every_partition_reads_every_partition(bank_schema, strategy):
    assert {stable_hash((1,)) % 2, stable_hash((2,)) % 2} == {0, 1}  # one home each
    router = Router(strategy, bank_schema)
    for transaction_id in range(3):
        decision = router.route_statement(
            SelectStatement(("account",), where=in_list("bal", [1, 2])),
            TransactionRoutingContext(transaction_id=transaction_id),
        )
        assert decision.partitions == frozenset({0, 1})


@pytest.mark.parametrize("strategy", HASH_BY_BALANCE, ids=["hash", "composite"])
def test_routed_in_list_read_on_sqlite_matches_the_unpartitioned_answer(
    tmp_path, bank_database, strategy
):
    balances = [80_000, 12_000]  # one home each at k = 2
    assert {stable_hash((value,)) % 2 for value in balances} == {0, 1}
    statement = SelectStatement(("account",), where=in_list("bal", balances))
    cluster = SqliteStorageCluster.from_database(tmp_path / "cluster", bank_database, strategy)
    decision = Router(strategy, bank_database.schema).route_statement(statement)
    served = []
    for partition in sorted(decision.partitions):
        with SqlitePartitionStore(cluster.paths[partition], bank_database.schema) as store:
            [rows] = store.execute_read([compile_statement(statement)])
            served.extend(rows)
    expected = [tuple(row.values()) for row in bank_database.execute(statement).rows]
    assert len(expected) == 2
    assert sorted(served) == sorted(expected)
