"""Tests for the distributed-transaction cost model.

Every trace is SQL executed against a :class:`KeyedTable`, and the cost
model routes it as a deployment would: a transaction costs the partitions
the router cannot skip.
"""

from repro.catalog.tuples import TupleId
from repro.core.cost import evaluate_strategy
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    range_on,
)
from repro.graph.assignment import PartitionAssignment
from repro.sqlparse.ast import SelectStatement, between, eq


def block_strategy(num_partitions: int, block: int = 100) -> CompositePartitioning:
    return CompositePartitioning(
        num_partitions,
        {"t": range_on("id", [block * (i + 1) - 1 for i in range(num_partitions - 1)])},
    )


def score(strategy, keyed, *transactions):
    return evaluate_strategy(strategy, keyed.trace(*transactions), keyed.database)


class TestTransactionPartitions:
    def test_single_partition_transaction(self, keyed):
        report = score(block_strategy(2), keyed, [keyed.read(1, 2, 3)])
        assert report.partition_transaction_counts == [1, 0]
        assert report.distributed_transactions == 0

    def test_cross_partition_transaction(self, keyed):
        report = score(block_strategy(2), keyed, [keyed.read(1), keyed.read(150)])
        assert report.partition_transaction_counts == [1, 1]
        assert report.distributed_transactions == 1

    def test_replicated_read_uses_one_partition(self, keyed):
        report = score(FullReplication(4), keyed, [keyed.read(1, 2), keyed.read(3)])
        assert report.total_participations == 1

    def test_replicated_write_touches_all(self, keyed):
        report = score(FullReplication(4), keyed, [keyed.write(1)])
        assert report.partition_transaction_counts == [1, 1, 1, 1]

    def test_read_prefers_partition_already_involved(self, keyed):
        # The write pins tuple 5's partition 1; the replicated tuple 2 is read
        # from there, although transaction 0 would otherwise be spread to 0.
        assignment = PartitionAssignment(3)
        assignment.assign(TupleId("t", (5,)), {1})
        assignment.assign(TupleId("t", (2,)), {0, 1, 2})
        strategy = LookupTablePartitioning(3, assignment)
        report = score(strategy, keyed, [keyed.write(5), keyed.read(2)])
        assert report.partition_transaction_counts == [0, 1, 0]
        # Statement order, as the router serves it: a read that comes first
        # cannot know where a later write will go.
        report = score(strategy, keyed, [keyed.read(2), keyed.write(5)])
        assert report.partition_transaction_counts == [1, 1, 0]
        # Scoring routes a copy: the candidate's entries are untouched.
        assert assignment.placements == {
            TupleId("t", (5,)): frozenset({1}),
            TupleId("t", (2,)): frozenset({0, 1, 2}),
        }

    def test_uncovered_replicated_reads_spread_over_the_replicas(self, keyed):
        report = score(FullReplication(3), keyed, *([keyed.read(7)] for _ in range(10)))
        counts = report.partition_transaction_counts
        assert sum(counts) == 10
        assert min(counts) >= 1 and max(counts) - min(counts) <= 1


class TestEvaluateStrategy:
    def make_transactions(self, keyed):
        return (
            [keyed.read(1, 2)],  # same block
            [keyed.read(1, 150)],  # crosses blocks
            [keyed.read(150, 199)],  # same block
        )

    def test_counts_and_fraction(self, keyed):
        report = score(block_strategy(2), keyed, *self.make_transactions(keyed))
        assert report.total_transactions == 3
        assert report.distributed_transactions == 1
        assert report.total_transactions - report.distributed_transactions == 2
        assert abs(report.distributed_fraction - 1 / 3) < 1e-9
        assert report.mean_participants > 1.0

    def test_partition_counts(self, keyed):
        report = score(block_strategy(2), keyed, *self.make_transactions(keyed))
        assert report.partition_transaction_counts == [2, 2]
        assert report.partition_load_imbalance() == 1.0

    def test_a_statement_no_key_pins_is_served_everywhere(self, keyed):
        # The rows it reads all live in block 0, but the router cannot tell
        # from ``v = 0``: the partitions it cannot skip are the cost.
        scan = SelectStatement(("t",), where=eq("v", 0))
        report = score(block_strategy(2), keyed, [keyed.read(1), scan])
        assert report.partition_transaction_counts == [1, 1]
        assert report.distributed_fraction == 1.0

    def test_a_scan_reaches_the_blocks_its_range_spans(self, keyed):
        def scan(low, high):
            return [SelectStatement(("t",), where=between("id", low, high))]

        report = score(block_strategy(3), keyed, scan(10, 20), scan(150, 250))
        assert report.partition_transaction_counts == [1, 1, 1]
        assert report.distributed_transactions == 1
        # Rows on every partition are read from every partition, not from the
        # one replica a replicated read would take.
        report = score(block_strategy(2), keyed, scan(95, 105))
        assert report.partition_transaction_counts == [1, 1]

    def test_hash_partitioning_splits_pairs(self, keyed):
        pairs = ([keyed.read(i, i + 1)] for i in range(0, 200, 2))
        report = score(HashPartitioning(2), keyed, *pairs)
        # Uniform random pairs land on the same of two partitions about half the time.
        assert 0.3 < report.distributed_fraction < 0.7

    def test_describe_contains_percentages(self, keyed):
        report = score(block_strategy(2), keyed, *self.make_transactions(keyed))
        assert "%" in report.describe()
