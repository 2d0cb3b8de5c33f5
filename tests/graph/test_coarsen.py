"""Tests for heavy-edge-matching coarsening."""

from repro.graph.coarsen import coarsen_once, coarsen_to, project_assignment
from repro.graph.model import Graph
from repro.utils.rng import SeededRng


def chain_graph(length: int) -> Graph:
    graph = Graph()
    graph.add_nodes(length)
    for index in range(length - 1):
        graph.add_edge(index, index + 1, 1.0)
    return graph


def test_coarsen_once_preserves_total_node_weight():
    graph = chain_graph(20)
    level = coarsen_once(graph.freeze(), SeededRng(0))
    assert level.graph.total_node_weight() == graph.total_node_weight()
    assert level.graph.num_nodes < graph.num_nodes
    assert len(level.fine_to_coarse) == graph.num_nodes


def test_coarsen_once_maps_every_node():
    graph = chain_graph(15)
    level = coarsen_once(graph.freeze(), SeededRng(1))
    assert all(0 <= coarse < level.graph.num_nodes for coarse in level.fine_to_coarse)


def test_heavy_edges_preferred():
    graph = Graph()
    graph.add_nodes(4)
    graph.add_edge(0, 1, 100.0)
    graph.add_edge(1, 2, 1.0)
    graph.add_edge(2, 3, 100.0)
    level = coarsen_once(graph.freeze(), SeededRng(3))
    # The heavy pairs (0,1) and (2,3) are contracted together.
    assert level.fine_to_coarse[0] == level.fine_to_coarse[1]
    assert level.fine_to_coarse[2] == level.fine_to_coarse[3]


def test_coarsen_to_target():
    graph = chain_graph(200)
    levels = coarsen_to(graph.freeze(), target_nodes=30, rng=SeededRng(0))
    assert levels
    assert levels[-1].graph.num_nodes <= 60  # within a factor of the target


def test_coarsen_preserves_cut_structure():
    # Two cliques joined by one light edge: the coarse graph keeps them separable.
    graph = Graph()
    graph.add_nodes(20)
    for base in (0, 10):
        for i in range(10):
            for j in range(i + 1, 10):
                graph.add_edge(base + i, base + j, 2.0)
    graph.add_edge(0, 10, 0.5)
    levels = coarsen_to(graph.freeze(), target_nodes=4, rng=SeededRng(0))
    coarse = levels[-1]
    mapping = {}
    current = list(range(graph.num_nodes))
    for level in levels:
        current = [level.fine_to_coarse[node] for node in current]
    left = {current[node] for node in range(10)}
    right = {current[node] for node in range(10, 20)}
    assert not left & right


def test_project_assignment_roundtrip():
    graph = chain_graph(30)
    level = coarsen_once(graph.freeze(), SeededRng(2))
    coarse_assignment = [index % 2 for index in range(level.graph.num_nodes)]
    fine_assignment = project_assignment(level, coarse_assignment)
    assert len(fine_assignment) == graph.num_nodes
    for fine, coarse in enumerate(level.fine_to_coarse):
        assert fine_assignment[fine] == coarse_assignment[coarse]


def test_disconnected_graph_coarsens():
    graph = Graph()
    graph.add_nodes(10)  # no edges at all
    levels = coarsen_to(graph.freeze(), target_nodes=2, rng=SeededRng(0))
    # Matching cannot contract anything without edges; it must not loop forever.
    assert isinstance(levels, list)
