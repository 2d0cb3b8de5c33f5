"""Tests for the multilevel k-way partitioner."""

from collections import Counter

import pytest

from repro.graph.model import Graph
from repro.graph.partitioner import (
    GraphPartitioner,
    PartitionerOptions,
    cut_weight,
    partition_graph,
    partition_weights,
)
from repro.graph.refine import fm_refine_bisection, greedy_kway_refine, rebalance
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
