"""Tests for the workload -> graph builder."""

from repro.catalog.tuples import TupleId
from repro.graph.builder import GraphBuildOptions, build_tuple_graph
from repro.workload.rwsets import extract_access_trace


def test_bank_graph_structure(bank_database, bank_workload):
    trace = extract_access_trace(bank_database, bank_workload)
    options = GraphBuildOptions(replication=False, coalesce_tuples=False)
    tuple_graph = build_tuple_graph(trace, bank_database, options)
    # Five accounts are touched; without replication each is one node.
    assert tuple_graph.num_tuples == 5
    assert tuple_graph.num_nodes == 5
    # Figure 2: edges {1,2}, {1,3}, {2,5} plus the clique of the bulk update
    # over accounts with bal < 100k.
    assert tuple_graph.num_edges >= 3


def test_replication_explodes_frequent_tuples(bank_database, bank_workload):
    trace = extract_access_trace(bank_database, bank_workload)
    options = GraphBuildOptions(replication=True, coalesce_tuples=False)
    tuple_graph = build_tuple_graph(trace, bank_database, options)
    # Tuple 1 (carlo) is accessed by three transactions -> a star of 4 nodes.
    group = tuple_graph.group_of(TupleId("account", (1,)))
    assert group is not None and group.exploded
    assert len(group.satellites) == 3
    assert tuple_graph.num_nodes > 5


def test_coalescing_merges_identical_signatures(bank_database):
    from repro.sqlparse.ast import SelectStatement, in_list
    from repro.workload.trace import Workload

    workload = Workload("coalesce")
    for _ in range(3):
        workload.add_statements([SelectStatement(("account",), where=in_list("id", [1, 2]))])
    trace = extract_access_trace(bank_database, workload)
    merged = build_tuple_graph(trace, bank_database, GraphBuildOptions(coalesce_tuples=True, replication=False))
    separate = build_tuple_graph(trace, bank_database, GraphBuildOptions(coalesce_tuples=False, replication=False))
    assert merged.num_nodes == 1
    assert separate.num_nodes == 2
    # Both tuples map to the same group after coalescing.
    assert merged.group_of(TupleId("account", (1,))) is merged.group_of(TupleId("account", (2,)))


def test_data_size_weighting(bank_database, bank_workload):
    trace = extract_access_trace(bank_database, bank_workload)
    options = GraphBuildOptions(node_weighting="data_size", replication=False, coalesce_tuples=False)
    tuple_graph = build_tuple_graph(trace, bank_database, options)
    row_size = bank_database.table("account").row_byte_size
    assert all(weight == row_size for weight in tuple_graph.graph.node_weights)


def test_workload_weighting_counts_accesses(bank_database, bank_workload):
    trace = extract_access_trace(bank_database, bank_workload)
    options = GraphBuildOptions(node_weighting="workload", replication=False, coalesce_tuples=False)
    tuple_graph = build_tuple_graph(trace, bank_database, options)
    group = tuple_graph.group_of(TupleId("account", (1,)))
    assert tuple_graph.graph.node_weights[group.center_node] == 3.0


def test_to_partition_assignment_with_replication(bank_database, bank_workload):
    trace = extract_access_trace(bank_database, bank_workload)
    tuple_graph = build_tuple_graph(trace, bank_database, GraphBuildOptions())
    # Force every node to partition 0 except one satellite of a replicated tuple.
    assignment_vector = [0] * tuple_graph.num_nodes
    exploded = next(group for group in tuple_graph.groups if group.exploded)
    some_satellite = next(iter(exploded.satellites.values()))
    assignment_vector[some_satellite] = 1
    assignment = tuple_graph.to_partition_assignment(assignment_vector, 2)
    member = exploded.members[0]
    assert assignment.partitions_of(member) == frozenset({0, 1})
    assert assignment.is_replicated(member)


def test_transaction_sampling_reduces_graph(bank_database, tiny_tpcc):
    trace = extract_access_trace(tiny_tpcc.database, tiny_tpcc.workload)
    full = build_tuple_graph(trace, tiny_tpcc.database, GraphBuildOptions(seed=1))
    sampled = build_tuple_graph(
        trace,
        tiny_tpcc.database,
        GraphBuildOptions(transaction_sample_fraction=0.3, tuple_sample_fraction=0.5, seed=1),
    )
    assert sampled.num_transactions < full.num_transactions
    assert sampled.num_nodes < full.num_nodes


def test_invalid_weighting_rejected():
    import pytest

    with pytest.raises(ValueError):
        GraphBuildOptions(node_weighting="bogus")
