"""Tests for the multilevel k-way partitioner."""

import random
from collections import Counter

import pytest

from repro.graph import backend
from repro.graph.model import CSRGraph, Graph
from repro.graph.partitioner import (
    GraphPartitioner,
    PartitionerOptions,
    cut_weight,
    partition_graph,
    partition_weights,
)
from repro.graph.refine import (
    compute_external,
    fm_refine_bisection,
    greedy_kway_refine,
    rebalance,
    side_weights,
)
from repro.utils.rng import SeededRng


def clusters_graph(num_clusters: int, cluster_size: int, intra_weight: float = 5.0) -> Graph:
    """Ring of dense clusters connected by single light edges."""
    graph = Graph()
    graph.add_nodes(num_clusters * cluster_size)
    for cluster in range(num_clusters):
        base = cluster * cluster_size
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                graph.add_edge(base + i, base + j, intra_weight)
        graph.add_edge(base, ((cluster + 1) % num_clusters) * cluster_size, 1.0)
    return graph


class TestPartitioner:
    def test_single_partition(self):
        graph = clusters_graph(2, 5)
        assert partition_graph(graph, 1) == [0] * graph.num_nodes

    def test_empty_graph(self):
        assert partition_graph(Graph(), 4) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_graph(clusters_graph(2, 4), 0)

    def test_two_clusters_recovered(self):
        graph = clusters_graph(2, 20)
        assignment = partition_graph(graph, 2, PartitionerOptions(seed=1))
        first = set(assignment[:20])
        second = set(assignment[20:])
        assert len(first) == 1 and len(second) == 1 and first != second
        assert cut_weight(graph, assignment) == 2.0  # the two ring edges

    def test_four_way_ring_of_cliques(self):
        graph = clusters_graph(4, 10)
        assignment = partition_graph(graph, 4, PartitionerOptions(seed=2))
        sizes = Counter(assignment)
        assert len(sizes) == 4
        assert max(sizes.values()) <= 12
        assert cut_weight(graph, assignment) <= 6.0

    def test_balance_constraint_respected(self):
        graph = clusters_graph(4, 10)
        options = PartitionerOptions(seed=0, imbalance=0.05)
        assignment = GraphPartitioner(options).partition(graph, 4)
        weights = partition_weights(graph, assignment, 4)
        ideal = graph.total_node_weight() / 4
        max_node = max(graph.node_weights)
        assert max(weights) <= ideal * 1.05 + max_node + 1e-9

    def test_odd_partition_count(self):
        graph = clusters_graph(3, 12)
        assignment = partition_graph(graph, 3, PartitionerOptions(seed=4))
        sizes = Counter(assignment)
        assert len(sizes) == 3
        assert max(sizes.values()) - min(sizes.values()) <= 6

    def test_weighted_nodes_balance_by_weight(self):
        graph = Graph()
        graph.add_nodes(10, weight=1.0)
        graph.add_nodes(10, weight=3.0)
        for i in range(19):
            graph.add_edge(i, i + 1, 1.0)
        assignment = partition_graph(graph, 2, PartitionerOptions(seed=0))
        weights = partition_weights(graph, assignment, 2)
        assert abs(weights[0] - weights[1]) <= 6.0 + 1e-9

    def test_deterministic_for_fixed_seed(self):
        graph = clusters_graph(2, 15)
        first = partition_graph(graph, 2, PartitionerOptions(seed=7))
        second = partition_graph(graph, 2, PartitionerOptions(seed=7))
        assert first == second

    def test_disconnected_graph(self):
        graph = Graph()
        graph.add_nodes(40)
        for i in range(0, 40, 2):
            graph.add_edge(i, i + 1, 1.0)
        assignment = partition_graph(graph, 4, PartitionerOptions(seed=0))
        sizes = Counter(assignment)
        assert len(sizes) == 4
        assert max(sizes.values()) <= 14

    def test_more_partitions_than_clusters_still_valid(self):
        graph = clusters_graph(2, 6)
        assignment = partition_graph(graph, 4, PartitionerOptions(seed=0))
        assert set(assignment) <= {0, 1, 2, 3}
        assert len(assignment) == graph.num_nodes


def reference_greedy_kway_refine(
    csr: CSRGraph,
    assignment: list[int],
    num_parts: int,
    max_weights: list[float],
    max_passes: int = 3,
) -> list[int]:
    """The all-boundary polish ``greedy_kway_refine`` replaced, kept as oracle.

    It re-examines every boundary node in every pass; the shipped polish
    visits only nodes some part attracts and must make exactly these moves.
    """
    tol = 1e-12
    num_nodes = csr.num_nodes
    if num_nodes == 0 or num_parts <= 1:
        return assignment
    indptr, indices, edge_weights, node_weights = csr.lists()
    weights = side_weights(csr, assignment, num_parts)
    on_boundary = [cross > 0.0 for cross in compute_external(csr, assignment)]
    connectivity = [0.0] * num_parts
    parts_touched: list[int] = []
    for _ in range(max_passes):
        improved = False
        for node in range(num_nodes):
            if not on_boundary[node]:
                continue
            start, end = indptr[node], indptr[node + 1]
            if start == end:
                on_boundary[node] = False
                continue
            source = assignment[node]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                part = assignment[neighbor]
                if connectivity[part] == 0.0:
                    parts_touched.append(part)
                connectivity[part] += weight
            internal = connectivity[source]
            best_part = source
            best_gain = 0.0
            node_weight = node_weights[node]
            external_parts = 0
            for part in parts_touched:
                if part == source:
                    continue
                external_parts += 1
                gain = connectivity[part] - internal
                if gain > best_gain + tol and weights[part] + node_weight <= max_weights[part]:
                    best_gain = gain
                    best_part = part
            for part in parts_touched:
                connectivity[part] = 0.0
            parts_touched.clear()
            if best_part != source:
                assignment[node] = best_part
                weights[source] -= node_weight
                weights[best_part] += node_weight
                improved = True
                for neighbor in indices[start:end]:
                    on_boundary[neighbor] = True
            elif external_parts == 0:
                on_boundary[node] = False
        if not improved:
            break
    return assignment


def random_float_graph(num_nodes: int, num_edges: int, seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(num_nodes):
        graph.add_node(1.0 + 0.5 * rng.randrange(3))
    for _ in range(num_edges):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        graph.add_edge(u, v, rng.randint(1, 5) + 0.1 * rng.randint(0, 9))
    return graph


class TestPolishMatchesAllBoundaryReference:
    """``greedy_kway_refine`` visits only attracted nodes; the moves must not change."""

    BACKENDS = ("list",) if backend.numpy is None else ("list", "numpy")

    @pytest.mark.parametrize("array_backend", BACKENDS)
    @pytest.mark.parametrize(
        "num_nodes,num_edges,num_parts",
        # below and above the 2 048-entry vectorisation threshold
        [(60, 200, 4), (300, 900, 5), (700, 4200, 8), (1500, 9000, 32)],
    )
    def test_same_moves_under_tight_balance(self, array_backend, num_nodes, num_edges, num_parts):
        multi_pass_cases = 0
        for seed in range(6):
            graph = random_float_graph(num_nodes, num_edges, seed)
            rng = random.Random(seed + 100)
            start = [rng.randrange(num_parts) for _ in range(num_nodes)]
            with backend.backend_context(array_backend):
                csr = graph.freeze()
            # Tight: barely above the heaviest starting part, so attracted
            # nodes are routinely blocked until another move frees room.
            heaviest = max(side_weights(csr, start, num_parts))
            max_weights = [heaviest + 1.0] * num_parts
            for max_passes in (1, 2, 4):
                expected = reference_greedy_kway_refine(
                    csr, list(start), num_parts, max_weights, max_passes
                )
                actual = greedy_kway_refine(csr, list(start), num_parts, max_weights, max_passes)
                assert actual == expected, (seed, max_passes)
            one_pass = reference_greedy_kway_refine(csr, list(start), num_parts, max_weights, 1)
            multi_pass_cases += one_pass != expected
        assert multi_pass_cases, "no case exercised a second pass"

    @pytest.mark.parametrize("array_backend", BACKENDS)
    def test_node_blocked_by_balance_moves_once_room_appears(self, array_backend):
        # Node 0 sits in part 0 but is pulled to part 1, which is full.  Node
        # 7 (visited later, not a neighbour of 0) leaves part 1 for part 2 in
        # the same pass; only then can node 0 move, in pass 2.  A polish that
        # dropped node 0 after its blocked first visit would miss the move.
        graph = Graph()
        graph.add_nodes(12)
        for u, v, weight in (
            (0, 4, 3.0), (0, 5, 3.0), (0, 1, 1.0),       # 0: towards part 1 = 6, internal = 1
            (7, 8, 3.0), (7, 9, 3.0), (7, 6, 1.0),       # 7: towards part 2 = 6, internal = 1
            (1, 2, 5.0), (2, 3, 5.0), (4, 5, 5.0), (5, 6, 5.0),
            (8, 9, 5.0), (9, 10, 5.0), (10, 11, 5.0),
        ):
            graph.add_edge(u, v, weight)
        with backend.backend_context(array_backend):
            csr = graph.freeze()
        start = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        max_weights = [4.0, 4.0, 5.0]
        one_pass = greedy_kway_refine(csr, list(start), 3, max_weights, max_passes=1)
        assert one_pass[0] == 0 and one_pass[7] == 2
        two_pass = greedy_kway_refine(csr, list(start), 3, max_weights, max_passes=2)
        assert two_pass[0] == 1 and two_pass[7] == 2
        assert two_pass == reference_greedy_kway_refine(csr, list(start), 3, max_weights, 2)


class TestRefinement:
    def test_fm_improves_bad_bisection(self):
        graph = clusters_graph(2, 10)
        # Deliberately interleave the two clusters.
        assignment = [node % 2 for node in range(graph.num_nodes)]
        before = cut_weight(graph, assignment)
        total = graph.total_node_weight()
        fm_refine_bisection(
            graph.freeze(), assignment, (total * 0.6, total * 0.6), max_passes=6
        )
        after = cut_weight(graph, assignment)
        assert after < before

    def test_greedy_kway_refine_does_not_violate_balance(self):
        graph = clusters_graph(4, 8)
        assignment = [node % 4 for node in range(graph.num_nodes)]
        max_weights = [graph.total_node_weight() / 4 * 1.3] * 4
        before = cut_weight(graph, assignment)
        greedy_kway_refine(graph.freeze(), assignment, 4, max_weights)
        weights = partition_weights(graph, assignment, 4)
        assert max(weights) <= max_weights[0] + 1e-9
        assert cut_weight(graph, assignment) <= before

    def test_rebalance_fixes_overweight_partition(self):
        graph = Graph()
        graph.add_nodes(20)
        assignment = [0] * 20
        max_weights = [12.0, 12.0]
        rebalance(graph.freeze(), assignment, 2, max_weights)
        weights = partition_weights(graph, assignment, 2)
        assert max(weights) <= 12.0
