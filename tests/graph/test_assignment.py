"""Tests for PartitionAssignment."""

import pytest

from repro.catalog.tuples import TupleId
from repro.graph.assignment import PartitionAssignment


def make_assignment() -> PartitionAssignment:
    assignment = PartitionAssignment(4)
    assignment.assign(TupleId("t", (1,)), {0})
    assignment.assign(TupleId("t", (2,)), {1})
    assignment.assign(TupleId("t", (3,)), {0, 2})
    return assignment


def test_assign_and_lookup():
    assignment = make_assignment()
    assert assignment.partitions_of(TupleId("t", (1,))) == frozenset({0})
    assert assignment.partitions_of(TupleId("t", (9,))) is None
    assert TupleId("t", (2,)) in assignment
    assert len(assignment) == 3


def test_replication_detection_and_count():
    assignment = make_assignment()
    assert assignment.is_replicated(TupleId("t", (3,)))
    assert not assignment.is_replicated(TupleId("t", (1,)))
    assert assignment.replicated_count == 1


def test_out_of_range_partition_rejected():
    assignment = PartitionAssignment(2)
    with pytest.raises(ValueError):
        assignment.assign(TupleId("t", (1,)), {5})
    with pytest.raises(ValueError):
        assignment.assign(TupleId("t", (1,)), set())


def test_partition_counts_and_weights():
    assignment = make_assignment()
    assert assignment.partition_tuple_counts() == [2, 1, 1, 0]
    weights = assignment.partition_weights({TupleId("t", (1,)): 10.0})
    # Tuples missing from the weight mapping contribute zero weight.
    assert weights[0] == 10.0
    assert weights[1] == 0.0
    # Without explicit weights each tuple counts once per replica.
    assert assignment.partition_weights() == [2.0, 1.0, 1.0, 0.0]


def test_replication_labels():
    assignment = make_assignment()
    assert assignment.replication_label(TupleId("t", (1,))) == "0"
    assert assignment.replication_label(TupleId("t", (3,))) == "R0_2"


def test_invalid_partition_count():
    with pytest.raises(ValueError):
        PartitionAssignment(0)
