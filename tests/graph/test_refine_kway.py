"""Tests for the direct k-way bucket-FM refiner and the direct k-way path."""

from __future__ import annotations

import random

import pytest

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph.coarsen import coarsen_chain
from repro.graph.model import Graph
from repro.graph.partitioner import (
    KWAY_COARSE_FACTOR,
    GraphPartitioner,
    PartitionerOptions,
    cut_weight,
    partition_graph,
    partition_weights,
)
from repro.graph.refine import (
    MoveCostModel,
    compute_external,
    cut_weight_two_way,
    kway_fm_refine,
    side_weights,
)


def clusters_graph(num_clusters: int, cluster_size: int, intra_weight: float = 5.0) -> Graph:
    graph = Graph()
    graph.add_nodes(num_clusters * cluster_size)
    for cluster in range(num_clusters):
        base = cluster * cluster_size
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                graph.add_edge(base + i, base + j, intra_weight)
        graph.add_edge(base, ((cluster + 1) % num_clusters) * cluster_size, 1.0)
    return graph


class TestKwayFmRefine:
    def test_recovers_scrambled_clusters(self):
        graph = clusters_graph(4, 8)
        csr = graph.freeze()
        assignment = [node % 4 for node in range(csr.num_nodes)]
        max_weights = [graph.total_node_weight() / 4 * 1.3] * 4
        before = cut_weight_two_way(csr, assignment)
        kway_fm_refine(csr, assignment, 4, max_weights, max_passes=4)
        after = cut_weight_two_way(csr, assignment)
        assert after < before
        assert after <= 8.0  # the four ring edges, up to balance compromises

    def test_returns_exact_external(self):
        graph = synthetic_access_graph(300, 1800, seed=2)
        csr = graph.freeze()
        assignment = [node % 5 for node in range(csr.num_nodes)]
        max_weights = [graph.total_node_weight() / 5 * 1.2] * 5
        external = kway_fm_refine(csr, assignment, 5, max_weights, max_passes=2)
        assert external == compute_external(csr, assignment)

    def test_never_worsens_cut(self):
        rng = random.Random(0)
        for _ in range(60):
            graph = Graph()
            num_nodes = rng.randint(6, 40)
            num_parts = rng.randint(2, 6)
            graph.add_nodes(num_nodes, 1.0)
            for _ in range(rng.randint(num_nodes, 4 * num_nodes)):
                u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
                if u != v:
                    graph.add_edge(u, v, float(rng.randint(1, 9)))
            csr = graph.freeze()
            assignment = [rng.randrange(num_parts) for _ in range(num_nodes)]
            max_weights = [graph.total_node_weight() / num_parts * 1.6 + 1.0] * num_parts
            before = cut_weight_two_way(csr, assignment)
            kway_fm_refine(csr, assignment, num_parts, max_weights, max_passes=3)
            assert cut_weight_two_way(csr, assignment) <= before + 1e-9

    def test_respects_balance(self):
        graph = synthetic_access_graph(200, 1200, seed=4)
        csr = graph.freeze()
        assignment = [node % 4 for node in range(csr.num_nodes)]
        max_weights = [graph.total_node_weight() / 4 * 1.1 + 1.0] * 4
        kway_fm_refine(csr, assignment, 4, max_weights, max_passes=3)
        weights = side_weights(csr, assignment, 4)
        assert all(weights[p] <= max_weights[p] + 1e-9 for p in range(4))

    def test_deterministic(self):
        graph = synthetic_access_graph(250, 1500, seed=5)
        csr = graph.freeze()
        max_weights = [graph.total_node_weight() / 3 * 1.2] * 3
        first = [node % 3 for node in range(csr.num_nodes)]
        second = list(first)
        kway_fm_refine(csr, first, 3, max_weights, max_passes=3)
        kway_fm_refine(csr, second, 3, max_weights, max_passes=3)
        assert first == second

    def test_cost_model_blocks_and_refunds(self):
        # One stranded node: without costs it returns home; with a punitive
        # cost weight it stays.
        graph = Graph()
        graph.add_nodes(6)
        for group in ((0, 1, 2), (3, 4, 5)):
            for i in group:
                for j in group:
                    if i < j:
                        graph.add_edge(i, j, 10.0)
        csr = graph.freeze()
        max_weights = [10.0, 10.0]
        cheap = MoveCostModel(home=[0, 0, 1, 1, 1, 1], costs=[1.0] * 6, cost_weight=0.1)
        assignment = [0, 0, 1, 1, 1, 1]
        kway_fm_refine(csr, assignment, 2, max_weights, cost_model=cheap)
        assert assignment == [0, 0, 0, 1, 1, 1]
        assert cheap.spent == 1.0  # node 2 left its (stale) home
        pricey = MoveCostModel(home=[0, 0, 1, 1, 1, 1], costs=[1.0] * 6, cost_weight=100.0)
        assignment = [0, 0, 1, 1, 1, 1]
        kway_fm_refine(csr, assignment, 2, max_weights, cost_model=pricey)
        assert assignment == [0, 0, 1, 1, 1, 1]
        assert pricey.spent == 0.0


class TestDirectKwayPath:
    def test_direct_recovers_cluster_structure(self):
        graph = clusters_graph(6, 8)
        direct = partition_graph(graph, 6, PartitionerOptions(seed=3))
        # The clusters are recovered up to the light ring edges.
        assert cut_weight(graph, direct) <= 12.0

    def test_direct_respects_balance_non_power_of_two(self):
        graph = synthetic_access_graph(700, 5000, seed=8)
        options = PartitionerOptions(seed=1, imbalance=0.05)
        assignment = GraphPartitioner(options).partition(graph, 7)
        weights = partition_weights(graph, assignment, 7)
        ideal = graph.total_node_weight() / 7
        assert max(weights) <= ideal * 1.05 + max(graph.node_weights) + 1e-9

    def test_direct_deterministic_and_mode_selection(self):
        graph = synthetic_access_graph(400, 2500, seed=9)
        frozen = graph.freeze()
        options = PartitionerOptions(seed=5)
        first = partition_graph(frozen, 5, options)
        second = partition_graph(frozen, 5, options)
        assert first == second

    def test_hierarchy_cache_reused_across_k(self):
        graph = synthetic_access_graph(600, 4000, seed=10)
        frozen = graph.freeze()
        options = PartitionerOptions(seed=2)
        partition_graph(frozen, 8, options)
        chain = frozen._hierarchy[2]["levels"]
        assert chain  # built by the first call
        partition_graph(frozen, 16, options)
        assert frozen._hierarchy[2]["levels"] is chain  # extended, not rebuilt

    def test_cached_chain_gives_same_result_as_cold(self):
        graph = synthetic_access_graph(500, 3500, seed=11)
        options = PartitionerOptions(seed=4)
        warm_graph = graph.freeze()
        partition_graph(warm_graph, 4, options)  # builds the chain
        warm = partition_graph(warm_graph, 12, options)
        cold = partition_graph(graph.freeze(), 12, options)
        assert warm == cold

    def test_small_graph_kway_ignores_a_chain_cached_by_two_way(self):
        # Regression: 150 nodes is above k=2's coarsening target (120) but at
        # or below k=8's (KWAY_COARSE_FACTOR * 8 = 160), so k=8 must not
        # coarsen at all — it used to pick up the level k=2 had cached.
        graph = synthetic_access_graph(150, 900, seed=12)
        assert graph.num_nodes <= KWAY_COARSE_FACTOR * 8
        options = PartitionerOptions(seed=6)
        warm_graph = graph.freeze()
        partition_graph(warm_graph, 2, options)
        assert warm_graph._hierarchy[6]["levels"]  # k=2 did cache a chain
        assert coarsen_chain(warm_graph, KWAY_COARSE_FACTOR * 8, 6) == []
        assert partition_graph(warm_graph, 8, options) == partition_graph(
            graph.freeze(), 8, options
        )


class TestOptionsValidation:
    def test_non_positive_counts_are_clamped(self):
        options = PartitionerOptions(coarsen_target=0, initial_trials=-3, refine_passes=0)
        assert options.coarsen_target == 1
        assert options.initial_trials == 1
        assert options.refine_passes == 1

    def test_negative_imbalance_rejected(self):
        with pytest.raises(ValueError):
            PartitionerOptions(imbalance=-0.1)

    def test_clamped_options_still_partition(self):
        graph = clusters_graph(3, 6)
        assignment = partition_graph(
            graph, 3, PartitionerOptions(seed=0, coarsen_target=-5, initial_trials=0)
        )
        assert sorted(set(assignment)) == [0, 1, 2]

    def test_single_trial_uses_greedy_growing(self):
        # Regression: initial_trials=1 used to fall through to the *random*
        # bisection fallback, silently degrading every partition.
        graph = clusters_graph(2, 16)
        assignment = partition_graph(graph, 2, PartitionerOptions(seed=1, initial_trials=1))
        assert cut_weight(graph, assignment) == 2.0  # the two ring edges
