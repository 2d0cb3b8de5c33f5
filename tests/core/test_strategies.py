"""Tests for partitioning strategies."""

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    RangePredicatePartitioning,
    hash_on,
    range_on,
    replicate,
    stable_hash,
)
from repro.explain.rules import PredicateRule, RuleCondition, RuleSet
from repro.graph.assignment import PartitionAssignment
from repro.sqlparse.predicates import AttributeCondition


def condition(column: str, value: object) -> AttributeCondition:
    return AttributeCondition(None, column, "=", value)


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash("x") != stable_hash("y")


class TestHashPartitioning:
    def test_pk_hash_assigns_single_partition(self):
        strategy = HashPartitioning(4)
        placements = strategy.partitions_for_tuple(TupleId("t", (7,)))
        assert len(placements) == 1
        assert placements == strategy.partitions_for_tuple(TupleId("t", (7,)))

    def test_pk_hash_spreads_tuples(self):
        strategy = HashPartitioning(4)
        used = set()
        for key in range(100):
            used.update(strategy.partitions_for_tuple(TupleId("t", (key,))))
        assert used == {0, 1, 2, 3}

    def test_attribute_hash_colocates_across_tables(self):
        strategy = HashPartitioning(4, {"orders": ("w_id",), "stock": ("w_id",)})
        order = strategy.partitions_for_tuple(TupleId("orders", (9, 1)), {"w_id": 3})
        stock = strategy.partitions_for_tuple(TupleId("stock", (3, 55)), {"w_id": 3})
        assert order == stock

    def test_routing_by_conditions(self):
        strategy = HashPartitioning(4, {"stock": ("w_id",)})
        routed = strategy.partitions_for_conditions("stock", [condition("w_id", 3)])
        assert routed == strategy.partitions_for_tuple(TupleId("stock", (3, 1)), {"w_id": 3})
        assert strategy.partitions_for_conditions("stock", [condition("other", 3)]) is None
        assert HashPartitioning(4).partitions_for_conditions("stock", [condition("w_id", 3)]) is None


class TestFullReplication:
    def test_all_partitions(self):
        strategy = FullReplication(5)
        assert strategy.partitions_for_tuple(TupleId("t", (1,))) == frozenset(range(5))
        assert strategy.partitions_for_conditions("t", []) == frozenset(range(5))


class TestRangePredicatePartitioning:
    def make_strategy(self, fallback: str = "replicate") -> RangePredicatePartitioning:
        rules = RuleSet(
            "stock",
            (
                PredicateRule((RuleCondition("s_w_id", "<=", 1),), "1", 10, 0.0),
                PredicateRule((RuleCondition("s_w_id", ">", 1),), "0", 10, 0.0),
            ),
            default_label="0",
            attributes=("s_w_id",),
        )
        return RangePredicatePartitioning(2, {"stock": rules}, fallback=fallback)

    def test_placement_follows_rules(self):
        strategy = self.make_strategy()
        assert strategy.partitions_for_tuple(TupleId("stock", (1, 5)), {"s_w_id": 1}) == {1}
        assert strategy.partitions_for_tuple(TupleId("stock", (2, 5)), {"s_w_id": 2}) == {0}

    def test_unknown_table_fallback(self):
        assert self.make_strategy("replicate").partitions_for_tuple(TupleId("other", (1,))) == {0, 1}
        assert len(self.make_strategy("hash").partitions_for_tuple(TupleId("other", (1,)))) == 1

    def test_routing(self):
        strategy = self.make_strategy()
        assert strategy.partitions_for_conditions("stock", [condition("s_w_id", 1)]) == {1}
        assert strategy.partitions_for_conditions("stock", [condition("s_i_id", 9)]) is None

    def test_invalid_fallback(self):
        with pytest.raises(ValueError):
            RangePredicatePartitioning(2, {}, fallback="bogus")

    def test_without_a_row_the_key_is_classified_or_the_fallback_answers(self):
        """Never a guessed partition: the rule columns come from the key, or
        the table follows the fallback like one without rules."""
        rules = self.make_strategy().rule_sets["stock"]
        keyed = RangePredicatePartitioning(
            2, {"stock": rules}, primary_keys={"stock": ("s_w_id", "s_i_id")}
        )
        assert keyed.partitions_for_tuple(TupleId("stock", (1, 5))) == {1}
        assert keyed.partitions_for_tuple(TupleId("stock", (2, 5))) == {0}
        unkeyed = RangePredicatePartitioning(
            2, {"stock": rules}, primary_keys={"stock": ("s_id",)}
        )
        assert unkeyed.partitions_for_tuple(TupleId("stock", (1,))) == {0, 1}
        assert unkeyed.partitions_for_tuple(TupleId("stock", (1,)), {"s_w_id": 1}) == {1}
        # Without primary keys the rules see an empty row: their default label.
        assert self.make_strategy().partitions_for_tuple(TupleId("stock", (1, 5))) == {0}

    def test_resized_drops_partitions_that_no_longer_exist(self):
        strategy = self.make_strategy("hash")
        tuple_id = TupleId("stock", (1, 5))
        assert strategy.partitions_for_tuple(tuple_id, {"s_w_id": 1}) == {1}
        shrunk = strategy.resized(1)
        assert shrunk.num_partitions == 1 and strategy.num_partitions == 2
        assert shrunk.partitions_for_tuple(tuple_id, {"s_w_id": 1}) == {0}
        assert shrunk.partitions_for_conditions("stock", [condition("s_w_id", 1)]) is None
        assert strategy.partitions_for_tuple(tuple_id, {"s_w_id": 1}) == {1}


class TestLookupTablePartitioning:
    def make_assignment(self) -> PartitionAssignment:
        assignment = PartitionAssignment(2)
        assignment.assign(TupleId("t", (1,)), {0})
        assignment.assign(TupleId("t", (2,)), {0, 1})
        return assignment

    def test_known_tuples(self):
        strategy = LookupTablePartitioning(2, self.make_assignment())
        assert strategy.partitions_for_tuple(TupleId("t", (1,))) == {0}
        assert strategy.partitions_for_tuple(TupleId("t", (2,))) == {0, 1}

    def test_default_policies(self):
        hash_default = LookupTablePartitioning(2, self.make_assignment(), "hash")
        replicate_default = LookupTablePartitioning(2, self.make_assignment(), "replicate")
        unknown = TupleId("t", (99,))
        assert len(hash_default.partitions_for_tuple(unknown)) == 1
        assert replicate_default.partitions_for_tuple(unknown) == {0, 1}

    def test_base_on_key_columns_then_row_on_first_sight_then_default(self):
        rules = TestRangePredicatePartitioning().make_strategy().rule_sets["stock"]
        history = RuleSet(
            "history",
            (PredicateRule((RuleCondition("h_w_id", "<=", 1),), "1", 1, 0.0),),
            default_label="0",
            attributes=("h_w_id",),
        )
        base = RangePredicatePartitioning(2, {"stock": rules, "history": history})
        keys = {"stock": ("s_w_id", "s_i_id"), "history": ("h_id",)}
        strategy = LookupTablePartitioning(2, PartitionAssignment(2), "hash", base, keys)
        stock = TupleId("stock", (1, 5))
        assert strategy.resolve(stock) == ({1}, 1)  # the base, on the key alone
        strategy.place([(stock, {0})])
        assert strategy.resolve(stock) == ({0}, 0)  # an explicit entry wins
        # history is not placed by its key: last resort until a row is seen ...
        row_less = TupleId("history", (7,))
        placement, mechanism = strategy.resolve(row_less)
        assert mechanism == 2 and len(placement) == 1
        # ... and the first row seen places it for good.
        assert strategy.resolve(row_less, {"h_id": 7, "h_w_id": 1}) == ({1}, 1)
        assert strategy.resolve(row_less) == ({1}, 0)
        # stock holds a stray entry now, history does not.
        assert strategy.partitions_for_conditions("stock", [condition("s_w_id", 1)]) is None
        assert strategy.partitions_for_conditions("history", [condition("h_w_id", 1)]) == {1}
        # Placing a history tuple without its row cannot be checked: broadcast.
        strategy.place([(TupleId("history", (8,)), {1})])
        assert strategy.partitions_for_conditions("history", [condition("h_w_id", 1)]) is None

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            LookupTablePartitioning(2, self.make_assignment(), "bogus")


class TestCompositePartitioning:
    def make_strategy(self) -> CompositePartitioning:
        return CompositePartitioning(
            2,
            {
                "warehouse": range_on("w_id", [1]),
                "item": replicate(),
                "customer": hash_on("c_w_id"),
            },
            name="manual",
        )

    def test_range_policy(self):
        strategy = self.make_strategy()
        assert strategy.partitions_for_tuple(TupleId("warehouse", (1,)), {"w_id": 1}) == {0}
        assert strategy.partitions_for_tuple(TupleId("warehouse", (2,)), {"w_id": 2}) == {1}

    def test_replicate_policy(self):
        assert self.make_strategy().partitions_for_tuple(TupleId("item", (5,))) == {0, 1}

    def test_hash_policy_uses_row_columns(self):
        strategy = self.make_strategy()
        first = strategy.partitions_for_tuple(TupleId("customer", (1, 1, 7)), {"c_w_id": 1})
        second = strategy.partitions_for_tuple(TupleId("customer", (1, 2, 9)), {"c_w_id": 1})
        assert first == second

    def test_condition_routing(self):
        strategy = self.make_strategy()
        assert strategy.partitions_for_conditions("item", []) == {0, 1}
        assert strategy.partitions_for_conditions("warehouse", [condition("w_id", 2)]) == {1}
        assert strategy.partitions_for_conditions("customer", [condition("c_id", 3)]) is None

    def test_default_policy_for_unlisted_table(self):
        strategy = self.make_strategy()
        placements = strategy.partitions_for_tuple(TupleId("unlisted", (3,)))
        assert len(placements) == 1


def test_num_partitions_must_be_positive():
    with pytest.raises(ValueError):
        HashPartitioning(0)
