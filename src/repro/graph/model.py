"""Weighted undirected graph used by the partitioner.

Two representations share this module:

* :class:`Graph` — the *mutable construction API*.  Node ids are dense
  integers and node weights are a list of floats.  Edges are an append-only
  *edge log*: every :meth:`Graph.add_edge` call appends its endpoints and
  weight to three flat ``array`` buffers (24 bytes per call, no per-node
  objects), and repeated pairs are merged only when the log is
  *consolidated* — on a query, on :meth:`Graph.freeze` and before a decay
  or prune.
* :class:`CSRGraph` — the *frozen compute representation*.  ``Graph.freeze()``
  compiles the consolidated log into compressed-sparse-row arrays
  (``indptr``, ``indices``, ``edge_weights`` plus ``node_weights``) stored in
  the active array backend (:mod:`repro.graph.backend`): ``float64``/``int64``
  numpy arrays when numpy is available, flat Python lists otherwise.  Every
  hot partitioner phase (matching, region growing, FM refinement) runs on the
  CSR form: bulk kernels (``subview`` extraction, coarsening
  scatter-accumulate, gain initialisation, the cut) are vectorised under
  numpy, while inherently sequential kernels read one node's row at a time
  through :meth:`CSRGraph.rows` — list slices on the list backend, zero-copy
  ``memoryview`` slices over the ndarray buffers on numpy.  A numpy-backed
  graph is never boxed into Python objects wholesale, and it keeps no
  Python-object cache: its memory is its arrays (plus the cached weighted
  degrees, one more float64 array).  Both backends produce bit-identical
  results for a fixed seed.

Lifecycle: build with :class:`Graph`, call :meth:`Graph.freeze`, then hand
the :class:`CSRGraph` to the partitioner.  A ``CSRGraph`` is immutable by
convention — none of its methods mutate it, and the partitioner relies on
that to share one frozen graph across recursive-bisection branches and
repeated ``partition`` calls.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.graph import backend

def _as_log(values, typecode: str) -> array:
    """``values`` (an ``array`` or a contiguous ndarray) as an edge-log ``array``."""
    if isinstance(values, array):
        return values
    log = array(typecode)
    log.frombytes(memoryview(values).cast("B"))
    return log


class Graph:
    """A weighted undirected graph with dense integer node ids, kept as an edge log.

    Log entries ``[0, settled)`` are *consolidated pairs*: distinct, stored
    as ``(min, max)``, in the order each pair was first added, each with the
    sum of its weights.  Entries ``[settled, end)`` are pending ``add_edge``
    calls.  Consolidating merges the pending entries into the pairs, summing
    every pair's weights in log order, so a settled weight ``W`` followed by
    ``w1`` and ``w2`` becomes ``(W + w1) + w2`` — the additions a per-node
    ``dict`` accumulator would make, bit for bit.  That first-seen pair
    order is also the order a node's neighbours had in such a dict, so
    :meth:`freeze` lays each CSR row out in it, and a pair pruned and then
    added again moves to the end, as a dict key would.

    Queries (:meth:`degree`, :meth:`neighbors`, :meth:`edge_weight`,
    :meth:`edges`, :meth:`total_edge_weight`) read a CSR form of the edges
    that is cached until the graph next gains a node or changes an edge;
    :meth:`freeze` hands out a fresh :class:`CSRGraph` over the same (never
    mutated) arrays.
    """

    def __init__(self) -> None:
        self.node_weights: list[float] = []
        self._total_node_weight = 0.0
        self._tails = array("q")
        self._heads = array("q")
        self._weights = array("d")
        self._settled = 0
        #: CSR form of the consolidated edges (its node weights go unread).
        self._csr: CSRGraph | None = None

    # -- construction --------------------------------------------------------------
    def add_node(self, weight: float = 1.0) -> int:
        """Add a node and return its id."""
        if weight < 0:
            raise ValueError("node weight must be non-negative")
        self.node_weights.append(weight)
        self._total_node_weight += weight
        self._csr = None
        return len(self.node_weights) - 1

    def add_nodes(self, count: int, weight: float = 1.0) -> list[int]:
        """Add ``count`` nodes with the same weight, returning their ids."""
        return [self.add_node(weight) for _ in range(count)]

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge ``{u, v}``.

        Self-loops are ignored: they can never be cut so they carry no
        information for partitioning.
        """
        if u == v:
            return
        if weight < 0:
            raise ValueError("edge weight must be non-negative")
        size = len(self.node_weights)
        if not (0 <= u < size and 0 <= v < size):
            self._check_node(u)
            self._check_node(v)
        self._tails.append(u)
        self._heads.append(v)
        self._weights.append(weight)
        self._csr = None

    def add_weighted_edges(self, edges: Iterable[tuple[tuple[int, int], float]]) -> None:
        """Bulk-accumulate pre-deduplicated ``((u, v), weight)`` pairs.

        The batched counterpart of :meth:`add_edge` used by the trace->graph
        builder and the online maintainer: callers accumulate duplicate
        pairs externally (one flat ``Counter`` probe per occurrence), so the
        log grows by one entry per distinct pair of the batch rather than by
        one per co-access.
        """
        size = len(self.node_weights)
        append_tail, append_head = self._tails.append, self._heads.append
        append_weight = self._weights.append
        self._csr = None
        for (u, v), weight in edges:
            if u == v:
                continue
            if weight < 0:
                raise ValueError("edge weight must be non-negative")
            if not (0 <= u < size and 0 <= v < size):
                self._check_node(u)
                self._check_node(v)
            append_tail(u)
            append_head(v)
            append_weight(weight)

    def set_node_weight(self, node: int, weight: float) -> None:
        """Overwrite the weight of ``node``."""
        self._check_node(node)
        if weight < 0:
            raise ValueError("node weight must be non-negative")
        self._total_node_weight += weight - self.node_weights[node]
        self.node_weights[node] = weight

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.node_weights):
            raise IndexError(f"node {node} does not exist")

    # -- online maintenance -----------------------------------------------------------
    def scale_weights(self, factor: float) -> None:
        """Multiply every node and edge weight by ``factor`` in place.

        This is the exponential-decay primitive of the online graph
        maintainer: one call per ingest epoch ages the whole access history
        without rebuilding the graph.  Pairs are consolidated first, so each
        pair's *sum* is scaled, exactly as a stored weight would be.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        node_weights = self.node_weights
        for node in range(len(node_weights)):
            node_weights[node] *= factor
        self._total_node_weight *= factor
        self._consolidate()
        weights = self._weights
        if self._vectorised():
            scaled = backend.numpy.asarray(weights)
            scaled *= factor
        else:
            for pair in range(len(weights)):
                weights[pair] *= factor
        self._csr = None

    def prune_edges(self, min_weight: float) -> int:
        """Remove edges lighter than ``min_weight``; return how many were dropped.

        Used together with :meth:`scale_weights` to keep the online graph
        bounded: decayed-out co-access pairs disappear instead of lingering
        as near-zero-weight edges.  Nodes are never removed (ids stay dense
        and stable); an isolated node simply keeps decaying.
        """
        self._consolidate()
        logs = (self._tails, self._heads, self._weights)
        if self._vectorised():
            np = backend.numpy
            kept = np.flatnonzero(~(np.asarray(self._weights) < min_weight))
            survivors = [np.asarray(log)[kept] for log in logs]
        else:
            kept = [pair for pair, weight in enumerate(self._weights) if not weight < min_weight]
            survivors = [array(log.typecode, [log[pair] for pair in kept]) for log in logs]
        removed = self._settled - len(kept)
        if removed:
            self._store(*survivors)
            self._csr = None
        return removed

    # -- the edge log -----------------------------------------------------------------
    def _vectorised(self) -> bool:
        """True when log-sized work should take its numpy path."""
        return backend.use_numpy() and len(self._weights) >= VECTORISE_MIN_ENTRIES

    def _store(self, tails, heads, weights) -> None:
        """Replace the log by consolidated pairs (``array``\\ s or ndarrays)."""
        self._tails = _as_log(tails, "q")
        self._heads = _as_log(heads, "q")
        self._weights = _as_log(weights, "d")
        self._settled = len(weights)

    def _consolidate(self) -> None:
        """Merge the pending log entries into the consolidated pairs."""
        if len(self._weights) == self._settled:
            return
        if self._vectorised():
            self._consolidate_numpy()
            return
        size = len(self.node_weights)
        # Pair key -> weight sum; a dict keeps its keys in first-seen order.
        sums: dict[int, float] = {}
        for u, v, weight in zip(self._tails, self._heads, self._weights):
            key = u * size + v if u < v else v * size + u
            if key in sums:
                sums[key] += weight
            else:
                sums[key] = weight
        self._store(
            array("q", (key // size for key in sums)),
            array("q", (key % size for key in sums)),
            array("d", sums.values()),
        )

    def _consolidate_numpy(self) -> None:
        """Vectorised :meth:`_consolidate`: sort by pair, sum in log order.

        Sorting the canonical keys groups each pair's entries; the smallest
        log position in a group is the pair's first sighting, and ranking
        those positions (a scatter, no second sort) numbers the pairs in
        first-seen order.  ``bincount`` then adds every entry's weight into
        its pair in log order — one addition at a time, as the scalar loop.
        """
        np = backend.numpy
        size = len(self.node_weights)
        tails, heads = np.asarray(self._tails), np.asarray(self._heads)
        entries = len(tails)
        key = np.minimum(tails, heads)
        key *= size
        key += np.maximum(tails, heads)
        order = np.argsort(key)
        key = key[order]
        run_starts = np.empty(entries, dtype=bool)
        run_starts[0] = True
        np.not_equal(key[1:], key[:-1], out=run_starts[1:])
        del key
        group = np.cumsum(run_starts)
        group -= 1
        first = np.minimum.reduceat(order, np.flatnonzero(run_starts))
        del run_starts
        is_first = np.zeros(entries, dtype=bool)
        is_first[first] = True
        # Each group's pair number in first-seen order, then each sorted entry's.
        rank = np.cumsum(is_first)[first]
        rank -= 1
        del first
        np.take(rank, group, out=group)
        del rank
        pair_of = np.empty(entries, dtype=np.int64)
        pair_of[order] = group
        del order, group
        weights = np.bincount(pair_of, weights=np.asarray(self._weights))
        del pair_of
        kept = np.flatnonzero(is_first)
        tails, heads = tails[kept], heads[kept]
        self._store(np.minimum(tails, heads), np.maximum(tails, heads), weights)

    def _edge_csr(self) -> "CSRGraph":
        """The consolidated edges as CSR arrays in the active backend (cached).

        Each row lists its neighbours in first-seen pair order: both
        directions of every pair are interleaved in pair order and grouped
        by row without reordering within a row.
        """
        cached = self._csr
        if cached is not None and cached.is_numpy == backend.use_numpy():
            return cached
        self._consolidate()
        num_nodes = len(self.node_weights)
        pairs = len(self._weights)
        if self._vectorised():
            np = backend.numpy
            # Entry 2p is pair p seen from its low end, 2p + 1 from its high end.
            ends = np.stack((np.asarray(self._tails), np.asarray(self._heads)), axis=1).ravel()
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=num_nodes), out=indptr[1:])
            # Row-major order of the entries, ties by entry position: the
            # sort key (row, position) is unique, so any sort is stable.
            order = ends * (2 * pairs)
            order += np.arange(2 * pairs, dtype=np.int64)
            order.sort()
            order %= 2 * pairs
            indices = ends[order ^ 1]
            del ends
            order >>= 1
            edge_weights = np.asarray(self._weights)[order]
        else:
            indptr = [0] * (num_nodes + 1)
            for u, v in zip(self._tails, self._heads):
                indptr[u + 1] += 1
                indptr[v + 1] += 1
            for node in range(num_nodes):
                indptr[node + 1] += indptr[node]
            cursor = indptr[:-1]
            # One int object per node id, shared by every entry naming it.
            ids = list(range(num_nodes))
            indices = [0] * (2 * pairs)
            edge_weights = [0.0] * (2 * pairs)
            for u, v, weight in zip(self._tails, self._heads, self._weights):
                u, v = ids[u], ids[v]
                at = cursor[u]
                indices[at] = v
                edge_weights[at] = weight
                cursor[u] = at + 1
                at = cursor[v]
                indices[at] = u
                edge_weights[at] = weight
                cursor[v] = at + 1
        cached = self._csr = CSRGraph(indptr, indices, edge_weights, self.node_weights)
        return cached

    # -- queries --------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_weights)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        self._consolidate()
        return self._settled

    def neighbors(self, node: int) -> dict[int, float]:
        """Mapping of neighbour id -> edge weight (a fresh dict)."""
        return self._edge_csr().neighbors(node)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge ``{u, v}`` (0 when absent; linear in degree(u))."""
        return self._edge_csr().edge_weight(u, v)

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return self._edge_csr().degree(node)

    def total_node_weight(self) -> float:
        """Sum of all node weights (O(1), maintained incrementally)."""
        return self._total_node_weight

    def total_edge_weight(self) -> float:
        """Sum of all edge weights: each row summed in order, then the rows."""
        indptr, _, edge_weights, _ = self._edge_csr().rows()
        return (
            sum(sum(edge_weights[indptr[node] : indptr[node + 1]]) for node in self.nodes())
            / 2.0
        )

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, weight)`` with ``u < v``."""
        return self._edge_csr().edges()

    def nodes(self) -> range:
        """Iterable of node ids."""
        return range(self.num_nodes)

    # -- derived graphs ---------------------------------------------------------------
    def freeze(self) -> "CSRGraph":
        """Compile the graph into an immutable :class:`CSRGraph`.

        Each row lists its neighbours in the order their pair was first
        added, so freezing is a pure representation change: every
        deterministic algorithm visits neighbours in the same order on
        either form.  The edge arrays are shared with the cached CSR form,
        which is never mutated; the node weights are copied.
        """
        edges = self._edge_csr()
        return CSRGraph(
            edges.indptr, edges.indices, edges.edge_weights, list(self.node_weights)
        )

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


#: below this many CSR entries the ndarray round-trips of a vectorised kernel
#: cost more than the scalar loop they replace.
VECTORISE_MIN_ENTRIES = 2048


def entry_rows(indptr):
    """The row (source node) of every CSR entry, as an ndarray (numpy only)."""
    np = backend.numpy
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def row_entry_positions(indptr, nodes):
    """CSR entry positions of the rows of ``nodes``, concatenated in ``nodes`` order.

    Returns ``(positions, degrees)``: gathering ``indices[positions]`` visits
    each node's row in its original entry order, the first ``degrees[0]``
    positions belonging to ``nodes[0]`` and so on.  ``nodes`` is an int64
    ndarray (numpy only).
    """
    np = backend.numpy
    starts = indptr[nodes]
    degrees = indptr[nodes + 1] - starts
    # Each entry's position is its running index plus its row's (start - offset).
    starts -= np.cumsum(degrees) - degrees
    positions = np.arange(int(degrees.sum()), dtype=np.int64)
    positions += np.repeat(starts, degrees)
    return positions, degrees


class CSRGraph:
    """Frozen compressed-sparse-row view of a :class:`Graph`.

    ``indices[indptr[u]:indptr[u + 1]]`` are the neighbours of ``u`` and
    ``edge_weights`` holds the matching weights, so each undirected edge is
    stored twice (once per endpoint).  The arrays live in the active array
    backend (numpy ndarrays or flat Python lists — see
    :mod:`repro.graph.backend`).  Vectorised kernels operate on the arrays
    directly; sequential hot loops bind :meth:`rows` once and slice one
    node's row out of it at a time, which yields plain Python ints and
    floats on either backend (identical arithmetic) without ever turning
    the graph into Python objects.
    """

    __slots__ = (
        "indptr",
        "indices",
        "edge_weights",
        "node_weights",
        "_total_node_weight",
        "_total_edge_weight",
        "_weighted_degrees",
        "_rows",
        "_hierarchy",
    )

    def __init__(
        self,
        indptr,
        indices,
        edge_weights,
        node_weights,
        weighted_degrees=None,
    ) -> None:
        self.indptr = backend.as_index_array(indptr)
        self.indices = backend.as_index_array(indices)
        self.edge_weights = backend.as_weight_array(edge_weights)
        self.node_weights = backend.as_weight_array(node_weights)
        self._total_node_weight: float | None = None
        self._total_edge_weight: float | None = None
        #: producers that already know each row's weight sum (coarsening,
        #: subview extraction) pass it in — a float64 ndarray or a list — to
        #: skip the lazy recomputation.
        self._weighted_degrees = weighted_degrees
        self._rows: tuple | None = None
        #: per-seed memoised coarsening chains (see ``coarsen.coarsen_chain``)
        #: — derived data, consistent with the immutable arrays by definition.
        self._hierarchy: dict | None = None

    def rows(self):
        """``(indptr, indices, edge_weights, node_weights)`` for sequential kernels.

        The one row accessor of both backends: node ``u``'s neighbours and
        their weights are ``indices[indptr[u]:indptr[u + 1]]`` and the same
        slice of ``edge_weights``, and iterating (or indexing) either yields
        plain Python ints / floats, so scalar arithmetic is byte-identical
        across backends.  Under the list backend the four are the stored
        lists themselves; under numpy they are read-only ``memoryview``\\ s
        of the ndarray buffers, so a row slice copies nothing and no array
        is ever boxed wholesale.  Built once and cached (four views, no
        per-node objects).
        """
        cached = self._rows
        if cached is None:
            arrays = (self.indptr, self.indices, self.edge_weights, self.node_weights)
            if self.is_numpy:
                arrays = tuple(memoryview(array).toreadonly() for array in arrays)
            cached = self._rows = arrays
        return cached

    def lists(self) -> tuple[list[int], list[int], list[float], list[float]]:
        """``(indptr, indices, edge_weights, node_weights)`` as plain lists.

        A whole-graph export for comparisons and debugging: under numpy it
        boxes every adjacency entry on each call and nothing is cached, so
        kernels use :meth:`rows` instead.
        """
        return tuple(backend.to_list(array) for array in self.rows())

    def __reduce__(self):
        # Pickle/copy the arrays only: a memoryview cannot be pickled, and
        # every cache is rebuilt on demand.
        return (
            CSRGraph,
            (self.indptr, self.indices, self.edge_weights, self.node_weights, self._weighted_degrees),
        )

    @property
    def is_numpy(self) -> bool:
        """True when this graph's arrays are numpy ndarrays."""
        return not isinstance(self.indices, list)

    @property
    def vectorised(self) -> bool:
        """True when bulk kernels should take their numpy path on this graph."""
        return self.is_numpy and len(self.indices) >= VECTORISE_MIN_ENTRIES

    # -- queries --------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_weights)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return len(self.indices) // 2

    def nodes(self) -> range:
        """Iterable of node ids."""
        return range(len(self.node_weights))

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        indptr = self.rows()[0]
        return indptr[node + 1] - indptr[node]

    def neighbors(self, node: int) -> dict[int, float]:
        """Neighbour id -> edge weight as a fresh dict (compatibility shim).

        Hot loops should slice ``indices``/``edge_weights`` directly instead.
        """
        indptr, indices, edge_weights, _ = self.rows()
        start, end = indptr[node], indptr[node + 1]
        return dict(zip(indices[start:end], edge_weights[start:end]))

    def neighbor_slice(self, node: int) -> tuple[int, int]:
        """The ``[start, end)`` range of ``node``'s entries in the flat arrays."""
        indptr = self.rows()[0]
        return indptr[node], indptr[node + 1]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge ``{u, v}`` (0 when absent; linear in degree(u))."""
        indptr, indices, edge_weights, _ = self.rows()
        for i in range(indptr[u], indptr[u + 1]):
            if indices[i] == v:
                return edge_weights[i]
        return 0.0

    def total_node_weight(self) -> float:
        """Sum of all node weights (computed once, then cached)."""
        if self._total_node_weight is None:
            self._total_node_weight = float(sum(self.rows()[3]))
        return self._total_node_weight

    def total_edge_weight(self) -> float:
        """Sum of all edge weights (computed once, then cached)."""
        if self._total_edge_weight is None:
            self._total_edge_weight = float(sum(self.rows()[2])) / 2.0
        return self._total_edge_weight

    def weighted_degrees(self):
        """Per-node sum of incident edge weights (computed once, then cached).

        The FM refiner uses this to derive move gains from the maintained
        external-weight array: ``gain(v) = 2 * external(v) - weighted_degree(v)``.
        Consumed element-wise by scalar loops, so it reads like :meth:`rows`:
        a list on the list backend, a read-only ``memoryview`` of a float64
        ndarray on numpy.  Under numpy the per-row sums come from an
        order-preserving ``bincount`` (sequential accumulation in entry
        order), which is bit-identical to the scalar left-to-right sums.
        The scalar path adds with ``+=``, not builtin ``sum``, which
        compensates float sums from Python 3.12 on.
        """
        cached = self._weighted_degrees
        if cached is None:
            num_nodes = len(self.node_weights)
            if self.vectorised:
                cached = backend.numpy.bincount(
                    entry_rows(self.indptr), weights=self.edge_weights, minlength=num_nodes
                )
            else:
                indptr, _, edge_weights, _ = self.rows()
                cached = [0.0] * num_nodes
                for node in range(num_nodes):
                    total = 0.0
                    for weight in edge_weights[indptr[node] : indptr[node + 1]]:
                        total += weight
                    cached[node] = total
            self._weighted_degrees = cached
        return cached if isinstance(cached, list) else memoryview(cached).toreadonly()

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, weight)`` with ``u < v``."""
        indptr, indices, edge_weights, _ = self.rows()
        for u in range(len(indptr) - 1):
            start, end = indptr[u], indptr[u + 1]
            for v, weight in zip(indices[start:end], edge_weights[start:end]):
                if u < v:
                    yield u, v, weight

    # -- derived graphs ---------------------------------------------------------------
    def subview(self, nodes: Iterable[int]) -> tuple["CSRGraph", list[int]]:
        """Induced subgraph as a new CSR plus the new-id -> old-id mapping.

        A single index-remapped extraction pass with a flat remap table, no
        per-node dicts.  Under numpy the whole extraction is one vectorised gather
        (row-visit entry order is preserved, so results match the scalar
        path bit for bit); small extractions take the scalar loop, where
        the ndarray round-trips would cost more than they save.
        """
        node_list = list(nodes)
        if self.is_numpy and len(node_list) >= 512:
            return self._subview_numpy(node_list), node_list
        indptr, indices, edge_weights, node_weights_list = self.rows()
        old_to_new = [-1] * len(self.node_weights)
        for new, old in enumerate(node_list):
            old_to_new[old] = new
        sub_indptr = [0] * (len(node_list) + 1)
        sub_indices: list[int] = []
        sub_weights: list[float] = []
        src_indptr, src_indices, src_weights = indptr, indices, edge_weights
        append_index, append_weight = sub_indices.append, sub_weights.append
        weighted_degrees = [0.0] * len(node_list)
        for new, old in enumerate(node_list):
            start, end = src_indptr[old], src_indptr[old + 1]
            row_weight = 0.0
            for neighbor, weight in zip(src_indices[start:end], src_weights[start:end]):
                mapped = old_to_new[neighbor]
                if mapped >= 0:
                    append_index(mapped)
                    append_weight(weight)
                    row_weight += weight
            weighted_degrees[new] = row_weight
            sub_indptr[new + 1] = len(sub_indices)
        node_weights = [node_weights_list[old] for old in node_list]
        return (
            CSRGraph(sub_indptr, sub_indices, sub_weights, node_weights, weighted_degrees),
            node_list,
        )

    def _subview_numpy(self, node_list: list[int]) -> "CSRGraph":
        """Vectorised induced-subgraph extraction (numpy-backed graphs only).

        Entries are gathered in row-visit order (``node_list`` order, original
        CSR order within each row) and the per-row weight sums accumulate in
        that same order, so the result is bit-identical to the scalar path.
        """
        np = backend.numpy
        indptr, indices = self.indptr, self.indices
        num_nodes = len(self.node_weights)
        selected = np.asarray(node_list, dtype=np.int64)
        num_selected = len(node_list)
        remap = np.full(num_nodes, -1, dtype=np.int64)
        remap[selected] = np.arange(num_selected, dtype=np.int64)
        positions, degrees = row_entry_positions(indptr, selected)
        mapped = remap[indices[positions]]
        keep = mapped >= 0
        kept_rows = np.repeat(np.arange(num_selected, dtype=np.int64), degrees)[keep]
        kept_cols = mapped[keep]
        kept_weights = self.edge_weights[positions][keep]
        sub_indptr = np.zeros(num_selected + 1, dtype=np.int64)
        np.cumsum(np.bincount(kept_rows, minlength=num_selected), out=sub_indptr[1:])
        weighted_degrees = np.bincount(kept_rows, weights=kept_weights, minlength=num_selected)
        return CSRGraph(
            sub_indptr, kept_cols, kept_weights, self.node_weights[selected], weighted_degrees
        )

    def __repr__(self) -> str:
        return f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges})"


def as_csr(graph: "Graph | CSRGraph") -> CSRGraph:
    """Return ``graph`` as a :class:`CSRGraph`, freezing mutable graphs."""
    if isinstance(graph, CSRGraph):
        return graph
    return graph.freeze()
