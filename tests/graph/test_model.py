"""Tests for the graph data structure."""

import pytest

from repro.graph.model import Graph


def test_add_nodes_and_edges():
    graph = Graph()
    nodes = graph.add_nodes(3, weight=2.0)
    graph.add_edge(nodes[0], nodes[1], 1.5)
    graph.add_edge(nodes[1], nodes[2])
    assert graph.num_nodes == 3
    assert graph.num_edges == 2
    assert graph.total_node_weight() == 6.0
    assert graph.edge_weight(0, 1) == 1.5
    assert graph.degree(1) == 2


def test_edge_weights_accumulate():
    graph = Graph()
    graph.add_nodes(2)
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 0, 2.0)
    assert graph.edge_weight(0, 1) == 3.0
    assert graph.num_edges == 1
    assert graph.total_edge_weight() == 3.0


def test_self_loops_ignored():
    graph = Graph()
    graph.add_nodes(1)
    graph.add_edge(0, 0, 5.0)
    assert graph.num_edges == 0


def test_negative_weights_rejected():
    graph = Graph()
    graph.add_nodes(2)
    with pytest.raises(ValueError):
        graph.add_node(-1.0)
    with pytest.raises(ValueError):
        graph.add_edge(0, 1, -2.0)


def test_unknown_node_rejected():
    graph = Graph()
    graph.add_nodes(2)
    with pytest.raises(IndexError):
        graph.add_edge(0, 5)


def test_edges_iteration_unique():
    graph = Graph()
    graph.add_nodes(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    edges = list(graph.edges())
    assert len(edges) == 2
    assert all(u < v for u, v, _w in edges)


def test_scale_weights_decays_everything():
    graph = Graph()
    graph.add_nodes(3, weight=2.0)
    graph.add_edge(0, 1, 4.0)
    graph.add_edge(1, 2, 2.0)
    graph.scale_weights(0.5)
    assert graph.node_weights == [1.0, 1.0, 1.0]
    assert graph.total_node_weight() == 3.0
    assert graph.edge_weight(0, 1) == 2.0
    assert graph.edge_weight(1, 2) == 1.0
    # Symmetric halves stay consistent.
    assert graph.edge_weight(1, 0) == 2.0


def test_scale_weights_rejects_negative():
    graph = Graph()
    graph.add_node()
    with pytest.raises(ValueError):
        graph.scale_weights(-1.0)


def test_prune_edges_drops_light_edges_only():
    graph = Graph()
    graph.add_nodes(4)
    graph.add_edge(0, 1, 5.0)
    graph.add_edge(1, 2, 0.1)
    graph.add_edge(2, 3, 0.1)
    removed = graph.prune_edges(0.5)
    assert removed == 2
    assert graph.num_edges == 1
    assert graph.edge_weight(0, 1) == 5.0
    assert graph.edge_weight(1, 2) == 0.0
    assert graph.degree(2) == 0
    # Node set is untouched.
    assert graph.num_nodes == 4


def test_scale_then_prune_matches_decay_lifecycle():
    graph = Graph()
    graph.add_nodes(2)
    graph.add_edge(0, 1, 1.0)
    for _ in range(5):
        graph.scale_weights(0.5)
    assert graph.prune_edges(0.1) == 1
    assert graph.num_edges == 0
    # Freezing after maintenance still works.
    csr = graph.freeze()
    assert csr.num_nodes == 2 and csr.num_edges == 0
