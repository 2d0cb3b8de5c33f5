"""Tests for the distributed-transaction cost model."""

from repro.catalog.tuples import TupleId
from repro.core.cost import evaluate_strategy, transaction_partitions
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    range_on,
)
from repro.graph.assignment import PartitionAssignment
from repro.sqlparse.ast import SelectStatement, eq
from repro.workload.rwsets import AccessTrace, access_from_tuple_sets
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess


def make_access(read_ids, write_ids=(), transaction_id=0):
    statement = SelectStatement(("t",), where=eq("id", 0))
    transaction = Transaction((statement,), transaction_id=transaction_id)
    return access_from_tuple_sets(
        transaction,
        [TupleId("t", (i,)) for i in read_ids],
        [TupleId("t", (i,)) for i in write_ids],
    )


def make_statements(read_write_sets):
    """One statement access per ``(read_set, write_set)`` pair, in order."""
    statements = [SelectStatement(("t",), where=eq("id", 0)) for _ in read_write_sets]
    return TransactionAccess(
        Transaction(tuple(statements)),
        tuple(
            StatementAccess(statement, reads, writes)
            for statement, (reads, writes) in zip(statements, read_write_sets)
        ),
    )


def block_strategy(num_partitions: int, block: int = 100) -> CompositePartitioning:
    return CompositePartitioning(
        num_partitions,
        {"t": range_on("id", [block * (i + 1) - 1 for i in range(num_partitions - 1)])},
    )


class TestTransactionPartitions:
    def test_single_partition_transaction(self):
        strategy = block_strategy(2)
        access = make_access([1, 2, 3])
        partitions = transaction_partitions(strategy, access, row_cache={
            TupleId("t", (i,)): {"id": i} for i in (1, 2, 3)
        })
        assert partitions == {0}

    def test_cross_partition_transaction(self):
        strategy = block_strategy(2)
        access = make_access([1, 150])
        partitions = transaction_partitions(strategy, access, row_cache={
            TupleId("t", (1,)): {"id": 1},
            TupleId("t", (150,)): {"id": 150},
        })
        assert partitions == {0, 1}

    def test_replicated_read_uses_one_partition(self):
        strategy = FullReplication(4)
        access = make_access([1, 2, 3])
        assert len(transaction_partitions(strategy, access)) == 1

    def test_replicated_write_touches_all(self):
        strategy = FullReplication(4)
        access = make_access([], write_ids=[1])
        assert transaction_partitions(strategy, access) == {0, 1, 2, 3}

    def test_read_prefers_partition_already_involved(self):
        # The write pins tuple 5's partition 1; the replicated tuple 2 is read
        # from there, although transaction 0 would otherwise be spread to 0.
        assignment = PartitionAssignment(3)
        assignment.assign(TupleId("t", (5,)), {1})
        assignment.assign(TupleId("t", (2,)), {0, 1, 2})
        strategy = LookupTablePartitioning(3, assignment)
        write = (frozenset(), frozenset({TupleId("t", (5,))}))
        read = (frozenset({TupleId("t", (2,))}), frozenset())
        assert transaction_partitions(strategy, make_statements([write, read])) == {1}
        # Statement order, as the router serves it: a read that comes first
        # cannot know where a later write will go.
        assert transaction_partitions(strategy, make_statements([read, write])) == {0, 1}

    def test_uncovered_replicated_reads_spread_over_the_replicas(self):
        strategy = FullReplication(3)
        counts = [0, 0, 0]
        for transaction_id in range(10):
            access = make_access([7], transaction_id=transaction_id)
            (partition,) = transaction_partitions(strategy, access)
            counts[partition] += 1
        assert min(counts) >= 1 and max(counts) - min(counts) <= 1


class TestEvaluateStrategy:
    def make_trace(self):
        trace = AccessTrace("test")
        trace.accesses.append(make_access([1, 2]))       # same block
        trace.accesses.append(make_access([1, 150]))     # crosses blocks
        trace.accesses.append(make_access([150, 199]))   # same block
        return trace

    def row_cache(self):
        return {TupleId("t", (i,)): {"id": i} for i in (1, 2, 150, 199)}

    def test_counts_and_fraction(self):
        report = evaluate_strategy(block_strategy(2), self.make_trace(), row_cache=self.row_cache())
        assert report.total_transactions == 3
        assert report.distributed_transactions == 1
        assert report.single_partition_transactions == 2
        assert abs(report.distributed_fraction - 1 / 3) < 1e-9
        assert report.mean_participants > 1.0

    def test_partition_counts(self):
        report = evaluate_strategy(block_strategy(2), self.make_trace(), row_cache=self.row_cache())
        assert report.partition_transaction_counts == [2, 2]
        assert report.partition_load_imbalance() == 1.0

    def test_empty_transactions_ignored(self):
        trace = self.make_trace()
        trace.accesses.append(make_access([]))
        report = evaluate_strategy(block_strategy(2), trace, row_cache=self.row_cache())
        assert report.empty_transactions == 1
        assert abs(report.distributed_fraction - 1 / 3) < 1e-9

    def test_hash_partitioning_splits_pairs(self):
        trace = AccessTrace("pairs")
        for i in range(0, 200, 2):
            trace.accesses.append(make_access([i, i + 1]))
        report = evaluate_strategy(HashPartitioning(2), trace)
        # Uniform random pairs land on the same of two partitions about half the time.
        assert 0.3 < report.distributed_fraction < 0.7

    def test_describe_contains_percentages(self):
        report = evaluate_strategy(block_strategy(2), self.make_trace(), row_cache=self.row_cache())
        assert "%" in report.describe()
