"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Schema, Table, integer_column
from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    deployed_form,
)
from repro.explain.rules import decode_label
from repro.graph.assignment import PartitionAssignment
from repro.graph.model import Graph
from repro.graph.partitioner import PartitionerOptions, cut_weight, partition_graph, partition_weights
from repro.routing.router import Router
from repro.sqlparse.ast import DeleteStatement, SelectStatement, in_list
from repro.workload.trace import Transaction


# ---------------------------------------------------------------------------
# graph / partitioner invariants
# ---------------------------------------------------------------------------
graph_strategy = st.builds(
    lambda n, edges: (n, edges),
    st.integers(min_value=2, max_value=40),
    st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39), st.floats(0.1, 5.0)),
        max_size=120,
    ),
)


def build_graph(spec) -> Graph:
    num_nodes, edges = spec
    graph = Graph()
    graph.add_nodes(num_nodes, 1.0)
    for u, v, weight in edges:
        if u < num_nodes and v < num_nodes and u != v:
            graph.add_edge(u, v, weight)
    return graph


@given(graph_strategy, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_partitioner_assigns_every_node_a_valid_partition(spec, k):
    graph = build_graph(spec)
    assignment = partition_graph(graph, k, PartitionerOptions(seed=0, initial_trials=2))
    assert len(assignment) == graph.num_nodes
    assert all(0 <= part < k for part in assignment)


@given(graph_strategy)
@settings(max_examples=30, deadline=None)
def test_partitioner_balance_invariant_two_way(spec):
    graph = build_graph(spec)
    options = PartitionerOptions(seed=1, imbalance=0.05, initial_trials=2)
    assignment = partition_graph(graph, 2, options)
    weights = partition_weights(graph, assignment, 2)
    ideal = graph.total_node_weight() / 2
    max_node = max(graph.node_weights)
    assert max(weights) <= ideal * 1.05 + max_node + 1e-6


@given(graph_strategy)
@settings(max_examples=30, deadline=None)
def test_cut_weight_never_exceeds_total_edge_weight(spec):
    graph = build_graph(spec)
    assignment = partition_graph(graph, 3, PartitionerOptions(seed=2, initial_trials=2))
    assert 0.0 <= cut_weight(graph, assignment) <= graph.total_edge_weight() + 1e-9


# ---------------------------------------------------------------------------
# strategy invariants
# ---------------------------------------------------------------------------
tuple_ids = st.builds(
    TupleId,
    st.sampled_from(["alpha", "beta"]),
    st.tuples(st.integers(min_value=0, max_value=10_000)),
)


@given(tuple_ids, st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_hash_partitioning_is_deterministic_and_in_range(tuple_id, k):
    strategy = HashPartitioning(k)
    placement = strategy.partitions_for_tuple(tuple_id)
    assert placement == strategy.partitions_for_tuple(tuple_id)
    assert len(placement) == 1
    assert all(0 <= partition < k for partition in placement)


SCHEMA = Schema(
    "properties", [Table(name, [integer_column("id")], ["id"]) for name in ("alpha", "beta")]
)


def _by_key(ids, statement):
    """One ``statement(table, WHERE id IN keys)`` per table of ``ids``."""
    keys: dict[str, list[int]] = {}
    for tuple_id in ids:
        keys.setdefault(tuple_id.table, []).append(tuple_id.key[0])
    return tuple(statement(table, in_list("id", keys[table])) for table in sorted(keys))


def _participants(strategy, statements):
    """The partitions a deployment of ``strategy`` routes ``statements`` to."""
    router = Router(deployed_form(strategy, SCHEMA.primary_keys, "hash"), SCHEMA)
    return router.transaction_participants(Transaction(statements))


@given(st.lists(tuple_ids, min_size=1, max_size=8, unique=True), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_full_replication_reads_are_never_distributed(ids, k):
    reads = _by_key(ids, lambda table, where: SelectStatement((table,), where=where))
    assert len(_participants(FullReplication(k), reads)) == 1


@given(st.lists(tuple_ids, min_size=1, max_size=8, unique=True), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_transaction_partitions_subset_of_tuple_placements(ids, k):
    strategy = HashPartitioning(k)
    writes = _by_key(ids, lambda table, where: DeleteStatement(table, where=where))
    reads = _by_key(ids, lambda table, where: SelectStatement((table,), where=where))
    involved = _participants(strategy, writes + reads)
    union = set()
    for tuple_id in ids:
        union.update(strategy.partitions_for_tuple(tuple_id))
    assert involved <= union
    assert involved  # never empty for a non-empty access


# ---------------------------------------------------------------------------
# lookup table invariants
# ---------------------------------------------------------------------------
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2000),
        st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_lookup_strategy_agrees_with_assignment(mapping):
    assignment = PartitionAssignment(8)
    for key, partitions in mapping.items():
        assignment.assign(TupleId("t", (key,)), partitions)
    strategy = LookupTablePartitioning(8, assignment)
    for key, partitions in mapping.items():
        assert strategy.partitions_for_tuple(TupleId("t", (key,))) == frozenset(partitions)


# ---------------------------------------------------------------------------
# label round trip
# ---------------------------------------------------------------------------
@given(st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_replication_label_roundtrip(partitions):
    assignment = PartitionAssignment(32)
    tuple_id = TupleId("t", (1,))
    assignment.assign(tuple_id, partitions)
    label = assignment.replication_label(tuple_id)
    assert decode_label(label) == frozenset(partitions)
