"""Initial bisection of the coarsest graph.

Greedy graph growing (GGGP): grow one region outwards from a random seed,
always absorbing the frontier node that improves the cut the most, until the
region reaches its target weight.  Several trials with different seeds are
run and the best resulting bisection (after a quick refinement pass done by
the caller) is kept.

Both entry points run on the frozen CSR representation: neighbour scans are
contiguous ``indices``/``edge_weights`` slice walks.
"""

from __future__ import annotations

import heapq

from repro.graph.model import CSRGraph
from repro.utils.rng import SeededRng


def peripheral_seed(csr: CSRGraph) -> int:
    """A pseudo-peripheral node found by double-BFS (deterministic).

    Start from node 0, BFS to the last level and take its smallest node,
    then BFS again from there: the second endpoint lies near the graph's
    periphery, which makes it a strong *deterministic* seed for greedy
    growing — a region grown from the rim meets the opposite rim with a
    short boundary, where a random interior seed can leave a ragged cut.
    On a disconnected graph this explores node 0's component only; the seed
    is a heuristic, so that is acceptable.
    """
    num_nodes = csr.num_nodes
    if num_nodes == 0:
        raise ValueError("cannot seed an empty graph")
    indptr, indices, _, _ = csr.rows()

    def farthest(start: int) -> int:
        seen = [False] * num_nodes
        seen[start] = True
        frontier = [start]
        representative = start
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in indices[indptr[node] : indptr[node + 1]]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        next_frontier.append(neighbor)
            if next_frontier:
                representative = min(next_frontier)
            frontier = next_frontier
        return representative

    return farthest(farthest(0))


def greedy_bisection(
    csr: CSRGraph,
    target_weight_zero: float,
    rng: SeededRng,
    seed_node: int | None = None,
) -> list[int]:
    """Return a 0/1 assignment whose side 0 weighs approximately ``target_weight_zero``.

    The algorithm grows side 0 from a random seed node (or ``seed_node``
    when given — e.g. a :func:`peripheral_seed` for a deterministic trial);
    everything not absorbed stays on side 1.  Disconnected graphs are
    handled by restarting the growth from a new unabsorbed seed whenever
    the frontier empties.
    """
    num_nodes = csr.num_nodes
    if num_nodes == 0:
        return []
    indptr, indices, edge_weights, node_weights = csr.rows()
    assignment = [1] * num_nodes
    grown_weight = 0.0
    in_region = [False] * num_nodes
    # Max-heap of (-gain, tiebreak, node); gain = weight towards region - weight away.
    # Gains are maintained incrementally: a node outside the region starts at
    # -weighted_degree, and every region neighbour it acquires flips 2w of
    # that from "away" to "towards" — so each push costs O(1) instead of a
    # full neighbourhood rescan.
    frontier: list[tuple[float, float, int]] = []
    gains = [-degree for degree in csr.weighted_degrees()]

    def push_neighbors(node: int) -> None:
        start, end = indptr[node], indptr[node + 1]
        for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
            if not in_region[neighbor]:
                gain = gains[neighbor] + weight + weight
                gains[neighbor] = gain
                heapq.heappush(frontier, (-gain, rng.random(), neighbor))

    def new_seed() -> int | None:
        candidates = [node for node in range(num_nodes) if not in_region[node]]
        if not candidates:
            return None
        return candidates[rng.randint(0, len(candidates) - 1)]

    seed = seed_node if seed_node is not None else new_seed()
    while grown_weight < target_weight_zero and seed is not None:
        if not in_region[seed]:
            in_region[seed] = True
            assignment[seed] = 0
            grown_weight += node_weights[seed]
            push_neighbors(seed)
        # Absorb from the frontier until it empties or the target is reached.
        while frontier and grown_weight < target_weight_zero:
            _neg_gain, _tie, node = heapq.heappop(frontier)
            if in_region[node]:
                continue
            in_region[node] = True
            assignment[node] = 0
            grown_weight += node_weights[node]
            push_neighbors(node)
        if grown_weight < target_weight_zero:
            seed = new_seed()
        else:
            break
    return assignment


def random_bisection(
    csr: CSRGraph, target_weight_zero: float, rng: SeededRng
) -> list[int]:
    """Assign random nodes to side 0 until it reaches the target weight (fallback)."""
    num_nodes = csr.num_nodes
    node_weights = csr.rows()[3]
    order = list(range(num_nodes))
    rng.shuffle(order)
    assignment = [1] * num_nodes
    weight = 0.0
    for node in order:
        if weight >= target_weight_zero:
            break
        assignment[node] = 0
        weight += node_weights[node]
    return assignment
