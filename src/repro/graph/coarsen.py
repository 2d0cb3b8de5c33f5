"""Graph coarsening via heavy-edge matching, running on the frozen CSR form.

The multilevel scheme repeatedly contracts a maximal matching of the graph,
preferring heavy edges, so that a good partition of the small coarse graph is
also a good partition of the original when projected back (Karypis & Kumar,
1998).  Each call to :func:`coarsen_once` produces one level.

All levels are :class:`~repro.graph.model.CSRGraph` instances.  The matching
itself is inherently sequential (each decision depends on earlier matches),
but under numpy each row's neighbours are pre-sorted by (weight desc,
position asc) with one stable lexsort, so the sequential walk just takes the
first unmatched candidate — provably the same choice as the scalar
max-scan, usually after one probe.  The contraction — building the coarse
CSR — has two implementations: a scalar
scatter-accumulate (one dense ``accumulator``/``marker`` pair reused across
coarse nodes) and a vectorised numpy path (gather entries in member-visit
order, stable-sort by (row, column), ``bincount`` the duplicate runs).  Both
emit coarse rows in **sorted column order** and accumulate parallel fine
edges in member-visit order, left to right, so the two backends produce
bit-identical coarse graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import backend
from repro.graph.model import CSRGraph, entry_rows, row_entry_positions
from repro.utils.rng import SeededRng


@dataclass
class CoarseningLevel:
    """One level of the coarsening hierarchy."""

    graph: CSRGraph
    #: fine node id -> coarse node id: an int64 ndarray when the vectorised
    #: contraction built the level (projection is then one gather), else a list.
    fine_to_coarse: object


def coarsen_once(csr: CSRGraph, rng: SeededRng) -> CoarseningLevel:
    """Contract a heavy-edge matching of ``csr``, returning the coarser level."""
    num_nodes = csr.num_nodes
    indptr, indices, edge_weights, node_weights = csr.rows()
    order = list(range(num_nodes))
    rng.shuffle(order)
    match = [-1] * num_nodes
    if csr.vectorised:
        # Vectorised pre-sort: within each row, neighbours ordered by
        # (weight desc, position asc) — one stable lexsort.  The sequential
        # walk then takes the *first unmatched* candidate, which is exactly
        # the scalar scan's "max weight among unmatched, earliest position
        # on ties", so both paths match identically; the walk itself almost
        # always stops after one or two probes.
        np = backend.numpy
        ranked = memoryview(csr.indices[np.lexsort((-csr.edge_weights, entry_rows(csr.indptr)))])
        for node in order:
            if match[node] != -1:
                continue
            best_neighbor = -1
            for candidate in ranked[indptr[node] : indptr[node + 1]]:
                if match[candidate] == -1:
                    best_neighbor = candidate
                    break
            if best_neighbor != -1:
                match[node] = best_neighbor
                match[best_neighbor] = node
            else:
                match[node] = node
        del ranked
    else:
        for node in order:
            if match[node] != -1:
                continue
            best_neighbor = -1
            best_weight = -1.0
            start, end = indptr[node], indptr[node + 1]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                if weight > best_weight and match[neighbor] == -1:
                    best_weight = weight
                    best_neighbor = neighbor
            if best_neighbor != -1:
                match[node] = best_neighbor
                match[best_neighbor] = node
            else:
                match[node] = node

    # Assign coarse ids in traversal order; remember each coarse node's fine
    # members so the contraction can emit one coarse row per scan.
    fine_to_coarse = [-1] * num_nodes
    coarse_weights: list[float] = []
    members: list[tuple[int, int]] = []  # (fine, partner-or-fine) per coarse node
    for node in order:
        if fine_to_coarse[node] != -1:
            continue
        partner = match[node]
        coarse_id = len(coarse_weights)
        if partner == node or partner < 0:
            coarse_weights.append(node_weights[node])
            members.append((node, node))
            fine_to_coarse[node] = coarse_id
        else:
            coarse_weights.append(node_weights[node] + node_weights[partner])
            members.append((node, partner))
            fine_to_coarse[node] = coarse_id
            fine_to_coarse[partner] = coarse_id

    del order, match  # released before the contraction allocates
    if csr.vectorised:
        mapping = backend.numpy.asarray(fine_to_coarse, dtype=backend.numpy.int64)
        del fine_to_coarse
        return CoarseningLevel(_contract_numpy(csr, mapping, members, coarse_weights), mapping)
    coarse = _contract_scalar(
        indptr, indices, edge_weights, fine_to_coarse, members, coarse_weights
    )
    return CoarseningLevel(coarse, fine_to_coarse)


def _contract_scalar(
    indptr: list[int],
    indices: list[int],
    edge_weights: list[float],
    fine_to_coarse: list[int],
    members: list[tuple[int, int]],
    coarse_weights: list[float],
) -> CSRGraph:
    """Scatter-accumulate the coarse adjacency straight into CSR arrays.

    The fine->coarse mapping is applied to the whole ``indices`` array first
    so the per-entry loop body stays minimal.  Parallel fine edges accumulate
    in member-visit order and each coarse row is emitted in sorted column
    order — the exact contract the vectorised path reproduces.
    """
    num_coarse = len(coarse_weights)
    coarse_indptr = [0] * (num_coarse + 1)
    coarse_indices: list[int] = []
    coarse_edge_weights: list[float] = []
    accumulator = [0.0] * num_coarse
    marker = [-1] * num_coarse
    touched: list[int] = []
    append_touched = touched.append
    append_index = coarse_indices.append
    append_weight = coarse_edge_weights.append
    mapped = [fine_to_coarse[fine] for fine in indices]
    weighted_degrees = [0.0] * num_coarse
    for coarse_id in range(num_coarse):
        first, second = members[coarse_id]
        fine_members = (first,) if first == second else (first, second)
        for fine in fine_members:
            start, end = indptr[fine], indptr[fine + 1]
            for coarse_neighbor, weight in zip(mapped[start:end], edge_weights[start:end]):
                if coarse_neighbor == coarse_id:
                    continue
                if marker[coarse_neighbor] != coarse_id:
                    marker[coarse_neighbor] = coarse_id
                    accumulator[coarse_neighbor] = weight
                    append_touched(coarse_neighbor)
                else:
                    accumulator[coarse_neighbor] += weight
        touched.sort()
        row_weight = 0.0
        for coarse_neighbor in touched:
            append_index(coarse_neighbor)
            weight = accumulator[coarse_neighbor]
            append_weight(weight)
            row_weight += weight
        weighted_degrees[coarse_id] = row_weight
        touched.clear()
        coarse_indptr[coarse_id + 1] = len(coarse_indices)

    return CSRGraph(
        coarse_indptr, coarse_indices, coarse_edge_weights, coarse_weights, weighted_degrees
    )


def _contract_numpy(
    csr: CSRGraph,
    mapping,
    members: list[tuple[int, int]],
    coarse_weights: list[float],
) -> CSRGraph:
    """Vectorised contraction: gather, stable-sort, reduce duplicate runs.

    Entries are gathered in the scalar path's visit order (coarse id, then
    member, then CSR row order) straight into one sort key, ``coarse row *
    num_coarse + coarse column``, filtered once (contracted edges vanish);
    the stable sort groups duplicates in that order and ``bincount`` sums
    each run left to right, one addition at a time, as the scalar
    accumulator does.  The coarse rows and columns are the sorted unique
    keys' quotient and remainder by ``num_coarse``; each entry-sized
    temporary is released once used.
    """
    np = backend.numpy
    num_coarse = len(coarse_weights)
    # Flatten (first, second) pairs in visit order, dropping the repeated
    # member of singleton coarse nodes.
    pairs = np.asarray(members, dtype=np.int64).reshape(num_coarse, 2)
    present = np.ones((num_coarse, 2), dtype=bool)
    present[:, 1] = pairs[:, 1] != pairs[:, 0]
    member_arr = pairs[present]
    member_coarse = np.repeat(np.arange(num_coarse, dtype=np.int64), 2)[present.ravel()]
    positions, degrees = row_entry_positions(csr.indptr, member_arr)
    cols = mapping[csr.indices[positions]]
    key = np.repeat(member_coarse, degrees)
    keep = cols != key  # intra-coarse-node (contracted) edges vanish
    key *= num_coarse
    key += cols
    del cols
    key = key[keep]
    positions = positions[keep]
    weights = csr.edge_weights[positions]
    del positions
    coarse_indptr = np.zeros(num_coarse + 1, dtype=np.int64)
    if len(key) == 0:
        return CSRGraph(coarse_indptr, key, weights, coarse_weights, np.zeros(num_coarse))
    permutation = np.argsort(key, kind="stable")
    weights = weights[permutation]
    key = key[permutation]
    del permutation
    run_flags = np.empty(len(key), dtype=bool)
    run_flags[0] = True
    np.not_equal(key[1:], key[:-1], out=run_flags[1:])
    key = key[run_flags]
    run_of = np.cumsum(run_flags)
    run_of -= 1
    del run_flags
    summed = np.bincount(run_of, weights=weights)
    del weights, run_of
    unique_cols = key % num_coarse
    key //= num_coarse  # the coarse row of each unique entry
    np.cumsum(np.bincount(key, minlength=num_coarse), out=coarse_indptr[1:])
    weighted_degrees = np.bincount(key, weights=summed, minlength=num_coarse)
    return CSRGraph(coarse_indptr, unique_cols, summed, coarse_weights, weighted_degrees)


def coarsen_chain(
    csr: CSRGraph,
    target_nodes: int,
    seed: int,
    min_reduction: float = 0.9,
    max_levels: int = 40,
) -> list[CoarseningLevel]:
    """Memoised coarsening chain of ``csr`` down to ``target_nodes``.

    Unlike :func:`coarsen_to`, the per-level matching order comes from
    *forked* rng sub-streams (``fork((seed, "coarsen", index))``), so the
    chain is a pure function of ``(graph, seed)`` — it does not consume any
    caller rng state.  That makes it cacheable on the frozen graph itself:
    partitioning the same ``CSRGraph`` for several values of k (the
    Figure-5 sweep, the paper's "try several k and keep the best" loop)
    coarsens **once**, with each k using the chain prefix it needs.  Deeper
    targets extend the cached chain in place; shallower ones slice it.

    Returns the shortest prefix whose last level has at most
    ``target_nodes`` nodes (the whole chain if matching stalls first), and
    no level at all when ``csr`` itself is already that small — whatever a
    deeper target cached earlier.
    """
    if csr.num_nodes <= target_nodes:
        return []
    cache = csr._hierarchy
    if cache is None:
        cache = csr._hierarchy = {}
    state = cache.get(seed)
    if state is None:
        state = cache[seed] = {"levels": [], "stalled": False}
    levels: list[CoarseningLevel] = state["levels"]
    base = SeededRng(seed)
    while not state["stalled"] and len(levels) < max_levels:
        current = levels[-1].graph if levels else csr
        if current.num_nodes <= target_nodes:
            break
        level = coarsen_once(current, base.fork(("coarsen", len(levels))))
        if level.graph.num_nodes >= current.num_nodes * min_reduction:
            state["stalled"] = True
            if level.graph.num_nodes >= current.num_nodes:
                break
            levels.append(level)
            break
        levels.append(level)
    prefix: list[CoarseningLevel] = []
    for level in levels:
        prefix.append(level)
        if level.graph.num_nodes <= target_nodes:
            break
    return prefix


def coarsen_to(
    csr: CSRGraph,
    target_nodes: int,
    rng: SeededRng,
    min_reduction: float = 0.9,
    max_levels: int = 40,
) -> list[CoarseningLevel]:
    """Coarsen until the graph has at most ``target_nodes`` nodes.

    Returns the list of levels from finest to coarsest (the original graph is
    not included).  Coarsening stops early if a level shrinks the node count
    by less than ``1 - min_reduction`` (the matching has become ineffective,
    typically because the graph is mostly disconnected or star shaped).
    """
    levels: list[CoarseningLevel] = []
    current = csr
    for _ in range(max_levels):
        if current.num_nodes <= target_nodes:
            break
        level = coarsen_once(current, rng)
        if level.graph.num_nodes >= current.num_nodes * min_reduction:
            # Diminishing returns: accept the level only if it still helps a bit.
            if level.graph.num_nodes >= current.num_nodes:
                break
            levels.append(level)
            current = level.graph
            break
        levels.append(level)
        current = level.graph
    return levels


def project_assignment(level: CoarseningLevel, coarse_assignment: list[int]) -> list[int]:
    """Project a partition assignment of the coarse graph back to the finer graph."""
    mapping = level.fine_to_coarse
    if isinstance(mapping, list):
        return [coarse_assignment[coarse] for coarse in mapping]
    return backend.numpy.asarray(coarse_assignment, dtype=backend.numpy.int64)[mapping].tolist()


def project_boundary(level: CoarseningLevel, coarse_external: list[float]) -> list[bool]:
    """Fine-level boundary hint from the coarse graph's external weights.

    A coarse node with zero external weight proves all its fine members are
    interior, so the finer refinement may skip their adjacency during init.
    """
    mapping = level.fine_to_coarse
    if isinstance(mapping, list):
        return [coarse_external[coarse] > 0.0 for coarse in mapping]
    return (backend.numpy.asarray(coarse_external) > 0.0)[mapping].tolist()
