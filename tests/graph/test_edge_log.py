"""The edge-log ``Graph`` against a dict-of-dicts reference model.

``DictGraph`` is the adjacency representation ``Graph`` used before it kept
an edge log: one ``{neighbour: weight}`` dict per node, both directions
updated together.  Its neighbour order (dict insertion order) and its weight
sums (``row[v] += w`` in call order) are what every query and the frozen CSR
arrays must reproduce exactly, on both array backends and on both sides of
``VECTORISE_MIN_ENTRIES`` (where the log's consolidation switches between
its scalar and numpy paths).
"""

from __future__ import annotations

import random

import pytest

from repro.graph import backend, model
from repro.graph.model import Graph


class DictGraph:
    """Reference model: adjacency as a list of ``dict[int, float]``."""

    def __init__(self) -> None:
        self.node_weights: list[float] = []
        self.adjacency: list[dict[int, float]] = []
        self.num_edges = 0
        self.total_node_weight = 0.0

    def add_node(self, weight: float) -> None:
        self.node_weights.append(weight)
        self.adjacency.append({})
        self.total_node_weight += weight

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            return
        row = self.adjacency[u]
        if v in row:
            row[v] += weight
            self.adjacency[v][u] += weight
        else:
            row[v] = weight
            self.adjacency[v][u] = weight
            self.num_edges += 1

    def set_node_weight(self, node: int, weight: float) -> None:
        self.total_node_weight += weight - self.node_weights[node]
        self.node_weights[node] = weight

    def scale_weights(self, factor: float) -> None:
        self.node_weights = [weight * factor for weight in self.node_weights]
        self.total_node_weight *= factor
        for row in self.adjacency:
            for neighbour in row:
                row[neighbour] *= factor

    def prune_edges(self, min_weight: float) -> int:
        removed = 0
        for u, row in enumerate(self.adjacency):
            dead = [v for v, weight in row.items() if weight < min_weight and v > u]
            for v in dead:
                del row[v]
                del self.adjacency[v][u]
            removed += len(dead)
        self.num_edges -= removed
        return removed

    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (u, v, weight)
            for u, row in enumerate(self.adjacency)
            for v, weight in row.items()
            if u < v
        ]

    def total_edge_weight(self) -> float:
        return sum(sum(row.values()) for row in self.adjacency) / 2.0

    def csr_lists(self) -> tuple[list[int], list[int], list[float], list[float]]:
        indptr = [0]
        indices: list[int] = []
        edge_weights: list[float] = []
        for row in self.adjacency:
            indices.extend(row)
            edge_weights.extend(row.values())
            indptr.append(len(indices))
        return indptr, indices, edge_weights, list(self.node_weights)


def _bits(values) -> list:
    """Values with floats as their exact bit patterns (``0.1 + 0.2`` != ``0.3``)."""
    return [value.hex() if isinstance(value, float) else value for value in values]


def _assert_same(graph: Graph, reference: DictGraph, rng: random.Random) -> None:
    assert graph.num_nodes == len(reference.node_weights)
    assert graph.num_edges == reference.num_edges
    assert _bits(graph.node_weights) == _bits(reference.node_weights)
    assert graph.total_node_weight().hex() == reference.total_node_weight.hex()
    assert graph.total_edge_weight().hex() == reference.total_edge_weight().hex()
    assert list(graph.edges()) == reference.edges()
    for node in rng.sample(range(graph.num_nodes), min(graph.num_nodes, 8)):
        expected = reference.adjacency[node]
        assert list(graph.neighbors(node).items()) == list(expected.items())
        assert graph.degree(node) == len(expected)
        other = rng.randrange(graph.num_nodes)
        assert graph.edge_weight(node, other) == expected.get(other, 0.0)


def _assert_frozen_same(graph: Graph, reference: DictGraph) -> None:
    expected = [_bits(values) for values in reference.csr_lists()]
    first, second = graph.freeze(), graph.freeze()
    assert first is not second
    for frozen in (first, second):
        assert [_bits(values) for values in frozen.lists()] == expected


def _run_sequence(seed: int, operations: int, nodes: int, pool: int) -> None:
    """Apply one random operation sequence to both graphs, comparing as it goes."""
    rng = random.Random(seed)
    graph, reference = Graph(), DictGraph()
    for _ in range(nodes):
        weight = rng.choice((1.0, 0.5, rng.random()))
        graph.add_node(weight)
        reference.add_node(weight)
    # A bounded pool of pairs, so pairs repeat (in both orientations) and
    # come back after they are pruned.
    pairs = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(pool)]

    def random_edge() -> tuple[int, int, float]:
        u, v = rng.choice(pairs)
        if rng.random() < 0.5:
            u, v = v, u
        weight = rng.choice((1.0, 2.0, 0.0, rng.random(), rng.random() * 1e-3))
        return u, v, weight

    for _ in range(operations):
        roll = rng.random()
        if roll < 0.55:
            u, v, weight = random_edge()
            graph.add_edge(u, v, weight)
            reference.add_edge(u, v, weight)
        elif roll < 0.6:
            u = rng.randrange(graph.num_nodes)
            graph.add_edge(u, u, 1.0)  # a self-loop, ignored
        elif roll < 0.65:
            batch = [random_edge() for _ in range(rng.randrange(1, 40))]
            graph.add_weighted_edges(((u, v), weight) for u, v, weight in batch)
            for u, v, weight in batch:
                reference.add_edge(u, v, weight)
        elif roll < 0.67:
            weight = rng.random()
            graph.add_node(weight)
            reference.add_node(weight)
            pairs.append((graph.num_nodes - 1, rng.randrange(graph.num_nodes)))
        elif roll < 0.7:
            node, weight = rng.randrange(graph.num_nodes), rng.random() * 3
            graph.set_node_weight(node, weight)
            reference.set_node_weight(node, weight)
        elif roll < 0.702:
            _assert_same(graph, reference, rng)  # a cached CSR form, then decay
            factor = rng.choice((0.95, 0.5, rng.random()))
            graph.scale_weights(factor)
            reference.scale_weights(factor)
            _assert_same(graph, reference, rng)
        elif roll < 0.704:
            _assert_same(graph, reference, rng)
            threshold = rng.random() * 1.5
            assert graph.prune_edges(threshold) == reference.prune_edges(threshold)
            _assert_same(graph, reference, rng)
        elif roll < 0.708:
            _assert_same(graph, reference, rng)
        elif roll < 0.709:
            _assert_frozen_same(graph, reference)
    _assert_same(graph, reference, rng)
    _assert_frozen_same(graph, reference)


def _backends() -> list[str]:
    return ["list"] + (["numpy"] if backend.numpy is not None else [])


@pytest.mark.parametrize("name", _backends())
@pytest.mark.parametrize("seed", range(4))
def test_small_graph_matches_the_dict_model(name, seed):
    with backend.backend_context(name):
        _run_sequence(seed, operations=400, nodes=12, pool=30)


@pytest.mark.parametrize("name", _backends())
@pytest.mark.parametrize("seed", range(3))
def test_large_graph_matches_the_dict_model(name, seed):
    # Well past VECTORISE_MIN_ENTRIES: the log consolidates on the numpy path.
    with backend.backend_context(name):
        _run_sequence(seed, operations=12_000, nodes=400, pool=2500)
    assert 12_000 * 0.55 > 2 * model.VECTORISE_MIN_ENTRIES


def test_a_pair_pruned_and_added_again_moves_to_the_end():
    graph = Graph()
    graph.add_nodes(3)
    graph.add_edge(0, 1, 0.1)
    graph.add_edge(0, 2, 5.0)
    assert graph.prune_edges(0.5) == 1
    graph.add_edge(1, 0, 2.0)
    assert list(graph.neighbors(0).items()) == [(2, 5.0), (1, 2.0)]
    assert graph.freeze().lists()[1] == [2, 1, 0, 0]


def test_bulk_edges_name_unknown_nodes():
    graph = Graph()
    graph.add_nodes(2)
    with pytest.raises(IndexError):
        graph.add_weighted_edges([((0, 1), 1.0), ((1, 7), 1.0)])
    with pytest.raises(ValueError):
        graph.add_weighted_edges([((0, 1), -1.0)])
