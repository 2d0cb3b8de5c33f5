"""Tests for the frozen CSR representation and the CSR partitioner fast path."""

import pickle

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph.model import CSRGraph, Graph, as_csr
from repro.graph.partitioner import PartitionerOptions, cut_weight, partition_graph
from repro.graph.refine import fm_refine_bisection


def diamond_graph() -> Graph:
    graph = Graph()
    graph.add_nodes(4, weight=2.0)
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 2, 3.0)
    graph.add_edge(2, 3, 5.0)
    graph.add_edge(3, 0, 7.0)
    return graph


class TestFreeze:
    def test_freeze_preserves_structure(self):
        graph = diamond_graph()
        csr = graph.freeze()
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert csr.total_node_weight() == graph.total_node_weight()
        assert csr.total_edge_weight() == graph.total_edge_weight()
        for node in graph.nodes():
            assert csr.neighbors(node) == graph.neighbors(node)
            assert csr.degree(node) == graph.degree(node)

    def test_freeze_preserves_neighbor_order(self):
        graph = diamond_graph()
        csr = graph.freeze()
        _, indices, _, _ = csr.lists()
        for node in graph.nodes():
            start, end = csr.neighbor_slice(node)
            assert indices[start:end] == list(graph.neighbors(node).keys())

    def test_edges_iteration_matches(self):
        graph = diamond_graph()
        assert sorted(graph.freeze().edges()) == sorted(graph.edges())

    def test_edge_weight_lookup(self):
        csr = diamond_graph().freeze()
        assert csr.edge_weight(0, 1) == 1.0
        assert csr.edge_weight(1, 0) == 1.0
        assert csr.edge_weight(0, 2) == 0.0

    def test_weighted_degrees(self):
        csr = diamond_graph().freeze()
        assert csr.weighted_degrees() == [8.0, 4.0, 8.0, 12.0]

    def test_as_csr_identity_on_frozen(self):
        csr = diamond_graph().freeze()
        assert as_csr(csr) is csr

    def test_pickle_roundtrip_after_rows_are_bound(self):
        # rows() caches memoryviews on numpy; they must not leak into a pickle.
        csr = diamond_graph().freeze()
        csr.rows()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.lists() == csr.lists()
        assert clone.weighted_degrees() == csr.weighted_degrees()

    def test_empty_graph(self):
        csr = Graph().freeze()
        assert csr.num_nodes == 0
        assert csr.num_edges == 0
        assert list(csr.edges()) == []


class TestSubview:
    def test_subview_matches_subgraph(self):
        graph = synthetic_access_graph(200, 900, seed=3)
        nodes = [n for n in graph.nodes() if n % 3 != 0]
        new_id = {old: new for new, old in enumerate(nodes)}
        induced = [
            {new_id[v]: weight for v, weight in graph.neighbors(old).items() if v in new_id}
            for old in nodes
        ]
        view, view_mapping = graph.freeze().subview(nodes)
        assert view_mapping == nodes
        assert view.num_nodes == len(nodes)
        assert view.num_edges == sum(map(len, induced)) // 2
        assert view.lists()[3] == [graph.node_weights[old] for old in nodes]
        for node in range(view.num_nodes):
            assert view.neighbors(node) == induced[node]

    def test_subview_weighted_degrees_consistent(self):
        graph = synthetic_access_graph(100, 400, seed=1)
        view, _ = graph.freeze().subview(range(0, 100, 2))
        recomputed = [
            sum(view.edge_weights[view.indptr[n] : view.indptr[n + 1]])
            for n in range(view.num_nodes)
        ]
        assert view.weighted_degrees() == recomputed


class TestDeterminismAndEquivalence:
    """Seed-determinism regression: identical seeds must give identical output."""

    def test_partition_byte_identical_across_runs(self):
        for name, num_nodes, num_edges in (("epinions", 600, 4000), ("tpcc", 900, 6000)):
            graph = synthetic_access_graph(num_nodes, num_edges, seed=0)
            options = PartitionerOptions(seed=11, initial_trials=4, refine_passes=2)
            first = partition_graph(graph, 8, options)
            second = partition_graph(graph, 8, options)
            assert first == second, name

    def test_csr_and_legacy_paths_equal_cut(self):
        """Partitioning the mutable Graph (legacy API path) and its frozen CSR
        directly must produce the same assignment, hence equal cut weight."""
        for num_nodes, num_edges in ((600, 4000), (1000, 8000)):
            graph = synthetic_access_graph(num_nodes, num_edges, seed=0)
            options = PartitionerOptions(seed=0, initial_trials=4, refine_passes=2)
            legacy = partition_graph(graph, 8, options)
            fast = partition_graph(graph.freeze(), 8, options)
            assert legacy == fast
            assert cut_weight(graph, legacy) == cut_weight(graph.freeze(), fast)

    def test_fm_refine_equivalent_on_graph_and_csr(self):
        graph = synthetic_access_graph(300, 1500, seed=5)
        assignment_graph = [node % 2 for node in range(graph.num_nodes)]
        assignment_csr = list(assignment_graph)
        total = graph.total_node_weight()
        bounds = (total * 0.6, total * 0.6)
        fm_refine_bisection(graph.freeze(), assignment_graph, bounds, max_passes=3)
        fm_refine_bisection(graph.freeze(), assignment_csr, bounds, max_passes=3)
        assert assignment_graph == assignment_csr


class TestIncrementalCounters:
    def test_num_edges_counter(self):
        graph = Graph()
        graph.add_nodes(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 2.0)  # accumulates, not a new edge
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 2, 9.0)  # self loop ignored
        assert graph.num_edges == 2

    def test_total_node_weight_tracks_set_node_weight(self):
        graph = Graph()
        graph.add_nodes(4, weight=2.0)
        assert graph.total_node_weight() == 8.0
        graph.set_node_weight(1, 5.0)
        assert graph.total_node_weight() == 11.0
        graph.set_node_weight(1, 0.0)
        assert graph.total_node_weight() == 6.0

    def test_add_weighted_edges_bulk(self):
        graph = Graph()
        graph.add_nodes(4)
        graph.add_weighted_edges([((0, 1), 2.0), ((1, 2), 3.0), ((0, 1), 1.0)])
        assert graph.num_edges == 2
        assert graph.edge_weight(0, 1) == 3.0
        assert graph.edge_weight(2, 1) == 3.0
