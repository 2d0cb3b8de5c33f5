"""Tests for the router's lookup table: the deployed strategy's own assignment."""

import pytest

from repro.catalog.tuples import TupleId
from repro.core.strategies import EXPLICIT, HashPartitioning, LookupTablePartitioning
from repro.graph.assignment import PartitionAssignment
from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router


@pytest.fixture
def assignment() -> PartitionAssignment:
    assignment = PartitionAssignment(4)
    for key in range(100):
        assignment.assign(TupleId("t", (key,)), {key % 4})
    assignment.assign(TupleId("t", (100,)), {0, 2})
    return assignment


def test_lookup_table_resolves_known_tuples(assignment):
    strategy = LookupTablePartitioning(4, assignment)
    for key in range(100):
        assert strategy.resolve(TupleId("t", (key,))) == (frozenset({key % 4}), EXPLICIT)
    assert strategy.resolve(TupleId("t", (100,))) == (frozenset({0, 2}), EXPLICIT)


def test_dict_backend_exact(assignment):
    table = build_lookup_table(assignment)
    assert table.partitions_of(TupleId("t", (3,))) == {3}
    assert table.partitions_of(TupleId("t", (999,))) is None
    assert len(table) == 101


def test_memory_accounting(assignment):
    # ~100 B per entry: the figure the benchmark reports as routing.lookup_bytes.
    assert build_lookup_table(assignment).memory_bytes() == 100 * 101
    assert PartitionAssignment(4).memory_bytes() == 0


# -- update path (live migration's routing flip) ----------------------------------------
def test_place_overwrites_single_partition(assignment):
    strategy = LookupTablePartitioning(4, assignment)
    tuple_id = TupleId("t", (7,))
    strategy.place([(tuple_id, frozenset({1}))])
    assert strategy.partitions_for_tuple(tuple_id) == {1}


def test_place_narrows_replicated_to_single(assignment):
    # A replicated tuple collapsing to one copy (migration dropped replicas)
    # must not keep answering the stale replica set.
    strategy = LookupTablePartitioning(4, assignment)
    replicated = TupleId("t", (100,))
    assert strategy.partitions_for_tuple(replicated) == {0, 2}
    strategy.place([(replicated, frozenset({2}))])
    assert strategy.partitions_for_tuple(replicated) == {2}


# -- one source of placements ----------------------------------------------------------
def test_router_accepts_only_its_strategys_assignment(assignment):
    strategy = LookupTablePartitioning(4, assignment)
    assert Router(strategy, None, build_lookup_table(strategy.assignment)).strategy is strategy
    copy = PartitionAssignment(4, dict(assignment.placements))
    with pytest.raises(ValueError):
        Router(strategy, None, copy)
    with pytest.raises(ValueError):
        Router(HashPartitioning(2), None, PartitionAssignment(2))


def test_router_placements_follow_the_strategys_entries(assignment):
    strategy = LookupTablePartitioning(4, assignment)
    router = Router(strategy)
    tuple_id = TupleId("t", (5,))
    assert router.placement_of(tuple_id) == {1}
    strategy.place([(tuple_id, frozenset({3}))])
    assert router.placement_of(tuple_id) == {3}
    assert router.placement_of(TupleId("t", (500,))) == strategy.partitions_for_tuple(
        TupleId("t", (500,))
    )
