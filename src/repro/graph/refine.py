"""Partition refinement on the frozen CSR representation.

Three refiners are provided:

* :func:`fm_refine_bisection` — a Fiduccia–Mattheyses style pass for two-way
  partitions, used inside the multilevel bisection at every uncoarsening
  level.  It permits temporarily negative-gain moves (up to a bounded streak)
  and rolls back to the best prefix, which lets it climb out of small local
  minima.
* :func:`kway_fm_refine` — the direct k-way counterpart: boundary FM over all
  k parts in one sweep, built on a **per-part gain structure** — each
  boundary node keeps a sparse connectivity row over the parts it touches
  plus its cached best move, mirrored by one target-tagged entry in the
  move queue — so the best admissible move is one pop and most row updates
  are O(1).
  It powers the direct k-way multilevel path and, through an optional
  :class:`MoveCostModel`, the online budgeted re-partitioner's warm-start
  refinement.
* :func:`greedy_kway_refine` — a greedy boundary pass for k-way partitions,
  run on the full graph after recursive bisection.  Nodes on the boundary are
  moved to the neighbouring partition with the highest positive gain provided
  the balance constraint stays satisfied.

**Incremental-gain invariant.**  The FM passes maintain a per-node ``gains``
quantity holding the exact cut reduction of the node's best move.  When node
``u`` moves, only its neighbours change: the two-way pass applies exact
``±2w`` deltas, while the k-way pass updates each neighbour's connectivity
row in two slots and its cached best move in O(1) (a full O(k) rescan only
when the vacated part was the cached target).  Staleness is detected with a
per-node generation counter (an entry is valid only when its generation
matches the node's current one), so a heap pop never acts on outdated state.

**Array backends.**  Every function here takes a frozen
:class:`CSRGraph` (the public entries in :mod:`repro.graph.partitioner`
freeze mutable graphs once); ``assignment`` lists are modified in place.
Bulk work (the per-node
external cut weight, :func:`compute_external`; k-way gain seeding; the
polish's candidate set; the cut itself) is vectorised when the graph is
numpy-backed, with order-preserving summation so both backends produce
bit-identical refinements.  The sequential move loops read one node's row
at a time through :meth:`CSRGraph.rows` and never box the adjacency.

**Lazy, sparse gain rows.**  A row is a ``{part: weight}`` dict holding
only the parts the node has weight towards; ``row.get(p, 0.0) + w`` adds
in the order a dense row's ``0.0 + w`` did, and scans break ties to the
smallest part explicitly, so the dict's key order never matters.  The
vectorised k-way seeding keeps the boundary's nonzero connectivity as
arrays and its queued moves as a sorted array stream; a node's row is cut
out of the seed arrays the first time a move touches or pops the node —
nothing updates a row before its first touch, so its values, and the
``row[a] -= w; row[b] += w`` stream applied afterwards, are those of an
eagerly built row.  Rows of nodes no move reaches are never built.
"""

from __future__ import annotations

import heapq
import itertools

from repro.graph import backend
from repro.graph.model import CSRGraph, entry_rows, row_entry_positions

#: comparison slack for "strictly improving" decisions, shared by all passes.
_TOL = 1e-12

#: abort an FM pass after this many consecutive non-improving moves (the
#: direct k-way path widens it to 4x / 8x).  A short streak bounds the
#: speculative hill-climb (and its rollback) per pass; empirically 16 is both
#: faster and no worse in cut than long streaks on the Figure-5 graphs.
FM_NEGATIVE_STREAK = 16


def cut_weight_two_way(csr: CSRGraph, assignment: list[int]) -> float:
    """Total weight of edges crossing a two-way (or k-way) assignment.

    The vectorised form accumulates the cut entries with ``cumsum`` — one
    running sum in CSR entry order, exactly the scalar loop's additions
    (``ndarray.sum()`` adds pairwise and would differ in the last ulp).
    """
    if csr.vectorised:
        np = backend.numpy
        part = np.asarray(assignment, dtype=np.int64)
        crossing = csr.edge_weights[part[csr.indices] != part[entry_rows(csr.indptr)]]
        return float(np.cumsum(crossing)[-1]) / 2.0 if len(crossing) else 0.0
    indptr, indices, edge_weights, _ = csr.rows()
    total = 0.0
    for u in range(csr.num_nodes):
        side = assignment[u]
        start, end = indptr[u], indptr[u + 1]
        for v, weight in zip(indices[start:end], edge_weights[start:end]):
            if assignment[v] != side:
                total += weight
    return total / 2.0


def side_weights(
    csr: CSRGraph, assignment: list[int], num_parts: int = 2
) -> list[float]:
    """Total node weight per partition."""
    weights = [0.0] * num_parts
    node_weights = csr.rows()[3]
    for node, part in enumerate(assignment):
        weights[part] += node_weights[node]
    return weights


def compute_external(
    csr: CSRGraph,
    assignment: list[int],
    boundary_hint: list[bool] | None = None,
) -> list[float]:
    """Per-node total weight of cut edges (``external[v]``), as a plain list.

    The seed of the incremental-gain invariant: ``gain_2way(v) =
    2 * external(v) - weighted_degree(v)``, a node is on the boundary iff
    ``external[v] > 0``, and the cut is ``sum(external) / 2``.

    ``boundary_hint``, when given, must be ``False`` only for nodes that are
    guaranteed to have zero external weight (e.g. fine nodes whose coarse
    parent was interior); the scalar path skips their adjacency entirely.
    The vectorised path computes every row — the hint's guarantee makes the
    results identical — and sums the cut entries in entry order, the scalar
    loop's additions.
    """
    num_nodes = csr.num_nodes
    if csr.vectorised:
        np = backend.numpy
        part = np.asarray(assignment, dtype=np.int32)  # halves the two gathers
        rows = entry_rows(csr.indptr)
        cut = part[csr.indices] != part[rows]
        rows = rows[cut]
        return np.bincount(rows, weights=csr.edge_weights[cut], minlength=num_nodes).tolist()
    indptr, indices, edge_weights, _ = csr.rows()
    external = [0.0] * num_nodes
    for node in range(num_nodes):
        if boundary_hint is not None and not boundary_hint[node]:
            continue
        side = assignment[node]
        start, end = indptr[node], indptr[node + 1]
        cross = 0.0
        for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
            if assignment[neighbor] != side:
                cross += weight
        external[node] = cross
    return external


def fm_refine_bisection(
    csr: CSRGraph,
    assignment: list[int],
    max_weights: tuple[float, float],
    max_passes: int = 4,
    max_negative_streak: int = FM_NEGATIVE_STREAK,
) -> list[int]:
    """Refine a two-way assignment in place and return it.

    Parameters
    ----------
    csr:
        The frozen graph being partitioned.
    assignment:
        Current 0/1 side per node; modified in place.
    max_weights:
        Maximum allowed total node weight of side 0 and side 1.
    max_passes:
        Number of full FM passes.
    max_negative_streak:
        Abort a pass after this many consecutive non-improving moves.
    """
    if csr.num_nodes == 0:
        return assignment
    _fm_refine_csr(csr, assignment, max_weights, max_passes, max_negative_streak)
    return assignment


def _fm_refine_csr(
    csr: CSRGraph,
    assignment: list[int],
    max_weights: tuple[float, float],
    max_passes: int,
    max_negative_streak: int = FM_NEGATIVE_STREAK,
    boundary_hint: list[bool] | None = None,
) -> list[float]:
    """FM core: refine ``assignment`` in place, return the final ``external`` array.

    ``external[v]`` — total weight of v's cut edges — is the maintained
    quantity of the incremental-gain invariant: gain(v) = 2 * external(v)
    - weighted_degree(v).  It is initialised once per call
    (:func:`compute_external`, vectorised under numpy) and kept exact through
    every move *and* every rollback flip, so each subsequent pass re-seeds
    its heap in O(boundary).  The returned array lets callers derive the cut
    (``sum(external) / 2``) and seed the next uncoarsening level's
    ``boundary_hint`` without rescanning the graph.
    """
    num_nodes = csr.num_nodes
    indptr, indices, edge_weights, node_weights = csr.rows()
    heappush, heappop = heapq.heappush, heapq.heappop
    max_weight_zero, max_weight_one = max_weights[0], max_weights[1]
    weighted_degrees = csr.weighted_degrees()
    external = compute_external(csr, assignment, boundary_hint)
    # Side weights are maintained through moves *and* rollbacks, so they are
    # computed once per call rather than once per pass.
    weight_zero, weight_one = side_weights(csr, assignment, 2)
    for _ in range(max_passes):
        generation = [0] * num_nodes
        # Seed the heap with boundary nodes only: an interior node has gain
        # -weighted_degree <= 0 and is reachable anyway through the neighbour
        # updates of whichever move first exposes it.
        heap: list[tuple[float, int, int]] = [
            (weighted_degrees[node] - external[node] - external[node], node, 0)
            for node in range(num_nodes)
            if external[node] > 0.0
        ]
        heapq.heapify(heap)
        locked = [False] * num_nodes
        best_cut_delta = 0.0
        current_delta = 0.0
        moves: list[int] = []
        best_prefix = 0
        negative_streak = 0
        while heap and negative_streak < max_negative_streak:
            neg_gain, node, entry_generation = heappop(heap)
            if locked[node] or entry_generation != generation[node]:
                continue
            target = 1 - assignment[node]
            node_weight = node_weights[node]
            if target == 0:
                if weight_zero + node_weight > max_weight_zero:
                    locked[node] = True
                    continue
                weight_zero += node_weight
                weight_one -= node_weight
            else:
                if weight_one + node_weight > max_weight_one:
                    locked[node] = True
                    continue
                weight_one += node_weight
                weight_zero -= node_weight
            # Perform the move.
            assignment[node] = target
            external[node] = weighted_degrees[node] - external[node]
            locked[node] = True
            moves.append(node)
            current_delta -= neg_gain
            if current_delta > best_cut_delta + _TOL:
                best_cut_delta = current_delta
                best_prefix = len(moves)
                negative_streak = 0
            else:
                negative_streak += 1
            # Incremental update: a neighbour on the node's new side has one
            # edge turn internal (-w external), one left behind turns cut
            # (+w).  Locked neighbours still get the update (next pass needs
            # it) but no heap entry.
            start, end = indptr[node], indptr[node + 1]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                if assignment[neighbor] == target:
                    new_external = external[neighbor] - weight
                else:
                    new_external = external[neighbor] + weight
                external[neighbor] = new_external
                if not locked[neighbor]:
                    fresh = generation[neighbor] + 1
                    generation[neighbor] = fresh
                    heappush(
                        heap,
                        (weighted_degrees[neighbor] - new_external - new_external, neighbor, fresh),
                    )
        # Roll back the moves after the best prefix, applying the inverse
        # external/side-weight updates so the invariants hold at the next
        # pass start.
        for node in reversed(moves[best_prefix:]):
            back_side = 1 - assignment[node]
            assignment[node] = back_side
            external[node] = weighted_degrees[node] - external[node]
            node_weight = node_weights[node]
            if back_side == 0:
                weight_zero += node_weight
                weight_one -= node_weight
            else:
                weight_one += node_weight
                weight_zero -= node_weight
            start, end = indptr[node], indptr[node + 1]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                if assignment[neighbor] == back_side:
                    external[neighbor] -= weight
                else:
                    external[neighbor] += weight
        if best_cut_delta <= _TOL:
            break
    return external


class MoveCostModel:
    """Migration-cost charging for warm-start k-way refinement.

    Shared between :func:`kway_fm_refine` and the online budgeted
    re-partitioner: each move is charged relative to the node's *home* (the
    deployed placement) — leaving home costs ``costs[node]``, returning home
    refunds it, moving between two foreign partitions is free.  ``spent`` is
    the running ledger; when ``budget`` is set, cost-increasing moves that
    would exceed it are inadmissible.  The presence of a cost model switches
    :func:`kway_fm_refine` to greedy mode: only moves whose cut gain exceeds
    ``cost_weight`` times the cost delta are taken, and there is no
    speculative hill-climbing (a live system never wants to migrate tuples
    it will migrate straight back).
    """

    __slots__ = ("home", "costs", "cost_weight", "budget", "spent")

    def __init__(
        self,
        home: list[int],
        costs: list[float],
        cost_weight: float,
        budget: float | None = None,
        already_spent: float = 0.0,
    ) -> None:
        self.home = home
        self.costs = costs
        self.cost_weight = cost_weight
        self.budget = budget
        self.spent = already_spent

    def delta(self, node: int, source: int, target: int) -> float:
        """Migration-cost change of moving ``node`` from ``source`` to ``target``."""
        home_part = self.home[node]
        if source == home_part and target != home_part:
            return self.costs[node]
        if source != home_part and target == home_part:
            return -self.costs[node]
        return 0.0

    def admissible(self, cost_delta: float) -> bool:
        """Whether a move with this cost delta fits in the remaining budget."""
        return (
            self.budget is None
            or cost_delta <= 0.0
            or self.spent + cost_delta <= self.budget
        )


def kway_fm_refine(
    csr: CSRGraph,
    assignment: list[int],
    num_parts: int,
    max_weights: list[float],
    max_passes: int = 4,
    max_negative_streak: int = FM_NEGATIVE_STREAK,
    boundary_hint: list[bool] | None = None,
    cost_model: MoveCostModel | None = None,
    want_external: bool = True,
    pass_gain_tolerance: float = 0.0,
) -> list[float]:
    """Direct k-way FM with a per-part gain structure; returns the external array.

    Refines all ``num_parts`` parts in one sweep instead of log(k)
    bisections.  The k-ary gain structure: every boundary node keeps a sparse
    **per-part connectivity row** (weight towards each part it touches) plus
    its cached best move ``(gain, target)``, mirrored by one live
    target-tagged entry in the move queue.  When node ``u`` moves from ``a``
    to ``b``, each neighbour's row changes in exactly two slots
    (``row[a] -= w``, ``row[b] += w``), so the cached best move updates in
    O(1) for the common cases — a full O(k) row rescan is needed only when
    the cached target was ``a`` (its gain fell) or the node just became
    boundary.  Entries are invalidated by a per-node generation counter;
    when a popped entry's target is balance- (or budget-)blocked, the node's
    best *admissible* move is recomputed from its row and re-queued, so a
    saturated part never stalls the sweep.

    Without a cost model the pass hill-climbs exactly like the two-way FM
    (bounded negative streak, rollback to the best prefix).  With a
    :class:`MoveCostModel` it runs greedily: only net-positive moves (cut
    gain minus weighted cost delta) are applied and nothing is rolled back.

    ``assignment`` is modified in place.  The returned list is the exact
    per-node external weight of the final assignment (recomputed once at the
    end), ready to seed the next uncoarsening level's boundary hint.
    """
    num_nodes = csr.num_nodes
    if num_nodes == 0 or num_parts <= 1:
        return [0.0] * num_nodes
    indptr, indices, edge_weights, node_weights = csr.rows()
    heappush, heappop = heapq.heappush, heapq.heappop
    weighted_degrees = csr.weighted_degrees()
    external = compute_external(csr, assignment, boundary_hint)
    weights = side_weights(csr, assignment, num_parts)
    greedy = cost_model is not None
    cost_weight = cost_model.cost_weight if greedy else 0.0
    neg_inf = -float("inf")
    # Adaptive pass exit: a pass that shaves less than this fraction of the
    # entry cut is treated as converged (0.0 keeps the exact-convergence
    # behaviour).  ``sum`` over the plain list is backend-identical.
    min_pass_delta = _TOL
    if pass_gain_tolerance > 0.0:
        min_pass_delta = max(_TOL, pass_gain_tolerance * (sum(external) / 2.0))
    #: greedy mode converges within one seeding except for balance/budget
    #: blocked nodes; later passes re-seed only those.
    reseed_nodes: list[int] | None = None

    for _ in range(max_passes):
        seed_slot = seed_rows = stream = None  # drop the last pass's before seeding anew
        #: per-pass k-ary gain state.  ``rows[v]`` is v's connectivity row,
        #: None until v reaches the boundary *or*, for a node the vectorised
        #: seeding covered, until a move first touches or pops it (its row in
        #: ``seed_rows`` is ``seed_slot[v]``, −1 = not seeded).  ``best_gain``
        #: / ``best_target`` mirror v's live queue entry (−inf/−1 = none).
        rows: list[dict[int, float] | None] = [None] * num_nodes
        best_gain = [neg_inf] * num_nodes
        best_target = [-1] * num_nodes
        generation = [0] * num_nodes
        locked = [False] * num_nodes
        #: move queue: (−gain, node, target, generation) entries pushed after
        #: seeding, merged with the vectorised seeding's sorted ``stream``.
        #: Every entry is unique, so taking the smaller head pops exactly the
        #: sequence one heap of every entry would.
        heap: list[tuple[float, int, int, int]] = []

        def build_row(node: int) -> dict[int, float]:
            row: dict[int, float] = {}
            start, end = indptr[node], indptr[node + 1]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                part = assignment[neighbor]
                row[part] = row.get(part, 0.0) + weight
            rows[node] = row
            return row

        def seeded_row(node: int) -> dict[int, float]:
            """Materialise ``node``'s row from the seed-time rows (first touch).

            Nothing updates a row before its first touch, so the seed-time
            values are exactly what an eagerly built row would hold now.
            """
            seed_indptr, seed_parts, seed_weights = seed_rows
            slot = seed_slot[node]
            first, last = seed_indptr[slot], seed_indptr[slot + 1]
            row = rows[node] = dict(zip(seed_parts[first:last], seed_weights[first:last]))
            return row

        def scan_best(node: int, row: dict, blocked_target: int = -1) -> tuple[float, int]:
            """Best (gain, target) from ``node``'s row; ties to the smallest part.

            Only connected parts are candidates — an unconnected target's
            gain (``-internal``) can never beat a connected one, and boundary
            nodes always have at least one connected foreign part.  The
            explicit smallest-part tie-break makes the scan independent of
            the row's part order.  With ``blocked_target`` >= 0 only
            currently admissible targets count (balance and, in greedy mode,
            budget), excluding the blocked part itself so re-queueing makes
            progress.
            """
            source = assignment[node]
            internal = row.get(source, 0.0)
            node_weight = node_weights[node]
            check_admissible = blocked_target >= 0
            gain_best = neg_inf
            target_best = -1
            for part, towards in row.items():
                if part == source or towards == 0.0:
                    continue
                if check_admissible:
                    if part == blocked_target:
                        continue
                    if weights[part] + node_weight > max_weights[part]:
                        continue
                gain = towards - internal
                if greedy:
                    cost_delta = cost_model.delta(node, source, part)
                    if check_admissible and not cost_model.admissible(cost_delta):
                        continue
                    gain -= cost_weight * cost_delta
                if gain > gain_best or (gain == gain_best and part < target_best):
                    gain_best = gain
                    target_best = part
            return gain_best, target_best

        seed_slot, seed_rows, stream = _seed_kway_queue(
            csr, assignment, num_parts, external, best_gain, best_target,
            heap, build_row, scan_best, greedy, reseed_nodes, cost_model,
        )
        head = next(stream, None)
        if head is None and not heap:
            break
        moves: list[tuple[int, int, int]] = []  # (node, source, target)
        best_cut_delta = 0.0
        current_delta = 0.0
        best_prefix = 0
        negative_streak = 0
        moved_this_pass = 0
        blocked_locks = 0
        blocked_list: list[int] = []
        # Greedy mode runs to convergence within one seeding: moved nodes are
        # not locked (each accepted move strictly decreases cut +
        # cost_weight·displacement, so the loop terminates), capped defensively.
        greedy_move_cap = num_nodes * max(max_passes, 4)
        while (heap or head is not None) and (greedy or negative_streak < max_negative_streak):
            if head is not None and not (heap and heap[0] < head):
                neg_gain, node, target, entry_generation = head
                head = next(stream, None)
            else:
                neg_gain, node, target, entry_generation = heappop(heap)
            if locked[node] or entry_generation != generation[node]:
                continue
            gain = -neg_gain
            source = assignment[node]
            node_weight = node_weights[node]
            node_row = rows[node]
            if node_row is None:
                node_row = seeded_row(node)
            blocked = weights[target] + node_weight > max_weights[target]
            if greedy and not blocked:
                blocked = not cost_model.admissible(cost_model.delta(node, source, target))
            if blocked:
                retry_gain, retry_target = scan_best(node, node_row, blocked_target=target)
                if retry_target >= 0 and (not greedy or retry_gain > _TOL):
                    generation[node] += 1
                    best_gain[node] = retry_gain
                    best_target[node] = retry_target
                    heappush(heap, (-retry_gain, node, retry_target, generation[node]))
                else:
                    locked[node] = True
                    blocked_locks += 1
                    if greedy:
                        blocked_list.append(node)
                continue
            if greedy and gain <= _TOL:
                locked[node] = True
                continue
            # Perform the move.
            assignment[node] = target
            weights[source] -= node_weight
            weights[target] += node_weight
            moved_this_pass += 1
            external[node] = weighted_degrees[node] - node_row.get(target, 0.0)
            if greedy:
                cost_model.spent += cost_model.delta(node, source, target)
                if moved_this_pass >= greedy_move_cap:
                    break
                fresh_gain, fresh_target = scan_best(node, node_row)
                best_gain[node] = fresh_gain
                best_target[node] = fresh_target
                generation[node] += 1
                if fresh_target >= 0 and fresh_gain > _TOL:
                    heappush(heap, (-fresh_gain, node, fresh_target, generation[node]))
            else:
                locked[node] = True
                moves.append((node, source, target))
                current_delta += gain
                if current_delta > best_cut_delta + _TOL:
                    best_cut_delta = current_delta
                    best_prefix = len(moves)
                    negative_streak = 0
                else:
                    negative_streak += 1
            # Propagate the move: each neighbour's row changes in two slots;
            # its cached best move updates in O(1) unless the old target was
            # the vacated part (or the node just reached the boundary).
            start, end = indptr[node], indptr[node + 1]
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                neighbor_part = assignment[neighbor]
                if neighbor_part == target:
                    external[neighbor] -= weight
                elif neighbor_part == source:
                    external[neighbor] += weight
                if locked[neighbor]:
                    continue
                row = rows[neighbor]
                if row is None and seed_slot[neighbor] >= 0:
                    row = seeded_row(neighbor)
                if row is None:
                    if external[neighbor] > 0.0:
                        row = build_row(neighbor)
                        fresh_gain, fresh_target = scan_best(neighbor, row)
                        best_gain[neighbor] = fresh_gain
                        best_target[neighbor] = fresh_target
                        if fresh_target >= 0 and (not greedy or fresh_gain > _TOL):
                            generation[neighbor] += 1
                            heappush(
                                heap,
                                (-fresh_gain, neighbor, fresh_target, generation[neighbor]),
                            )
                    continue
                row[source] = row.get(source, 0.0) - weight
                towards_target = row[target] = row.get(target, 0.0) + weight
                old_gain = best_gain[neighbor]
                old_target = best_target[neighbor]
                if old_target == source or old_target == -1:
                    new_gain, new_target = scan_best(neighbor, row)
                else:
                    new_gain, new_target = old_gain, old_target
                    if neighbor_part == source:
                        new_gain += weight
                    elif neighbor_part == target:
                        new_gain -= weight
                    if target != neighbor_part:
                        candidate = towards_target - row.get(neighbor_part, 0.0)
                        if greedy:
                            candidate -= cost_weight * cost_model.delta(
                                neighbor, neighbor_part, target
                            )
                        if candidate > new_gain or (
                            candidate == new_gain and target < new_target
                        ):
                            new_gain = candidate
                            new_target = target
                if new_gain != old_gain or new_target != old_target:
                    best_gain[neighbor] = new_gain
                    best_target[neighbor] = new_target
                    generation[neighbor] += 1
                    if new_target >= 0 and (not greedy or new_gain > _TOL):
                        heappush(
                            heap,
                            (-new_gain, neighbor, new_target, generation[neighbor]),
                        )
        if not greedy:
            # Roll back the moves after the best prefix.  Neighbour external
            # updates only need *current* parts; the undone node's own
            # external is recomputed exactly from its adjacency.
            for node, source, target in reversed(moves[best_prefix:]):
                assignment[node] = source
                node_weight = node_weights[node]
                weights[target] -= node_weight
                weights[source] += node_weight
                start, end = indptr[node], indptr[node + 1]
                cross = 0.0
                for neighbor, weight in zip(indices[start:end], edge_weights[start:end]):
                    part = assignment[neighbor]
                    if part == source:
                        external[neighbor] -= weight
                    elif part == target:
                        external[neighbor] += weight
                    if part != source:
                        cross += weight
                external[node] = cross
            if best_cut_delta <= min_pass_delta:
                break
        elif (
            moved_this_pass == 0
            or blocked_locks == 0
            or moved_this_pass >= greedy_move_cap
        ):
            # Greedy convergence: the queue drained with nothing blocked, so
            # another seeding round cannot surface new net-positive moves.
            break
        else:
            # Unblocked candidates converged live; only the blocked nodes
            # need a fresh look now that part weights have shifted.
            reseed_nodes = blocked_list
    # Release the last pass's gain state before the exit recompute allocates.
    rows = heap = seed_slot = seed_rows = stream = None
    if not want_external:
        # Final-level callers discard the hint; skip the exit recompute.
        return []
    # The maintained external is only a boundary filter (the incremental
    # updates drift in ulps); recompute it exactly for the caller.
    return compute_external(csr, assignment)


def _connectivity_matrix(csr: CSRGraph, part, nodes, num_parts: int):
    """Weight of each of ``nodes`` towards each part, flat row-major ndarray.

    One order-preserving ``bincount`` over the nodes' CSR entries: slot
    ``local * num_parts + p`` accumulates, in row entry order, the weights of
    ``nodes[local]``'s edges into part ``p`` — the scalar ``build_row`` sums
    bit for bit.  ``part`` is the assignment as an int64 ndarray.
    """
    np = backend.numpy
    positions, degrees = row_entry_positions(csr.indptr, nodes)
    slots = np.repeat(np.arange(0, len(nodes) * num_parts, num_parts, dtype=np.int64), degrees)
    slots += part[csr.indices[positions]]
    weights = csr.edge_weights[positions]
    del positions
    return np.bincount(slots, weights=weights, minlength=len(nodes) * num_parts)


def _seed_kway_queue(
    csr: CSRGraph,
    assignment: list[int],
    num_parts: int,
    external: list[float],
    best_gain: list[float],
    best_target: list[int],
    heap: list[tuple[float, int, int, int]],
    build_row,
    scan_best,
    greedy: bool,
    reseed_nodes: list[int] | None = None,
    cost_model: MoveCostModel | None = None,
):
    """Fill the k-ary gain structure with every boundary node's best move.

    Returns ``(seed_slot, seed_rows, stream)``.  The numpy path computes the
    whole boundary's connectivity matrix with one order-preserving
    ``bincount`` and takes a row-wise argmax — bit-identical to the scalar
    ``build_row``/``scan_best`` pair: same accumulation order, the same
    ``(towards - internal)`` then cost-adjustment operation order in greedy
    mode, argmax picks the smallest part on ties, and unconnected parts are
    masked out (in the matrix itself) exactly as the scalar scan skips them.
    Before the mask, the matrix's nonzeros are cut out as ``seed_rows``, a
    CSR ``(indptr, parts, weights)`` of views from which the move loop
    builds the few rows it touches (``seed_slot[v]`` is v's row, −1 for
    none).  Best moves go into ``best_gain``/``best_target``; the queued
    ones come back as ``stream``, an iterator of ``(−gain, node, target, 0)``
    entries over views sorted by ``(−gain, node)``, so seeding boxes no row
    and no queue entry.  Small graphs and blocked-node re-seeds take the
    scalar path: rows built eagerly, entries pushed onto ``heap``, an empty
    stream.  Below a few thousand entries the ndarray round-trips cost more
    than the loop.
    """
    if csr.vectorised and reseed_nodes is None:
        np = backend.numpy
        boundary = np.flatnonzero(np.asarray(external) > 0.0)
        if len(boundary) == 0:
            return [-1] * csr.num_nodes, None, iter(())
        part = np.asarray(assignment, dtype=np.int64)
        flat = _connectivity_matrix(csr, part, boundary, num_parts)
        nonzero = np.flatnonzero(flat)
        seed_indptr = np.zeros(len(boundary) + 1, dtype=np.int64)
        np.cumsum(np.bincount(nonzero // num_parts, minlength=len(boundary)), out=seed_indptr[1:])
        seed_rows = tuple(
            memoryview(array).toreadonly()
            for array in (seed_indptr, nonzero % num_parts, flat[nonzero])
        )
        connectivity = flat.reshape(len(boundary), num_parts)
        row_ids = np.arange(len(boundary))
        source_parts = part[boundary]
        internal = connectivity[row_ids, source_parts]
        unconnected = connectivity == 0.0
        if greedy:
            # Gains in the scalar operation order: (towards - internal), then
            # the migration-cost charge below.
            connectivity -= internal[:, None]
        # Unconnected parts are no candidates (matches the scalar scan); a
        # maintained-external drift can flag a node with zero true foreign
        # connectivity as boundary, so the guard is load-bearing.
        connectivity[unconnected] = -np.inf
        connectivity[row_ids, source_parts] = -np.inf
        if greedy:
            # Leaving home charges every foreign target the same penalty
            # (uniform row shift); a foreign node's home target gets the
            # refund.
            penalty = cost_model.cost_weight * np.asarray(cost_model.costs)[boundary]
            home = np.asarray(cost_model.home, dtype=np.int64)[boundary]
            leaving = source_parts == home
            connectivity[leaving] -= penalty[leaving][:, None]
            foreign = ~leaving
            connectivity[row_ids[foreign], home[foreign]] += penalty[foreign]
        targets = np.argmax(connectivity, axis=1)
        gains = connectivity[row_ids, targets]
        if greedy:
            # Only net-positive moves are queued in greedy mode.
            queued = gains > _TOL
        else:
            gains -= internal
            queued = gains != -np.inf
        # No connected foreign part: the scalar scan returns (-inf, -1).
        targets[gains == -np.inf] = -1

        def scatter(values, fill) -> list:
            per_node = np.full(csr.num_nodes, fill, dtype=values.dtype)
            per_node[boundary] = values
            return per_node.tolist()

        best_gain[:] = scatter(gains, -np.inf)
        best_target[:] = scatter(targets, -1)
        seed_slot = np.full(csr.num_nodes, -1, dtype=np.int64)
        seed_slot[boundary] = row_ids
        queued_gains = -gains[queued]
        queued_nodes = boundary[queued]
        order = np.lexsort((queued_nodes, queued_gains))
        stream = zip(
            *(memoryview(array[order]) for array in (queued_gains, queued_nodes, targets[queued])),
            itertools.repeat(0),
        )
        return memoryview(seed_slot).toreadonly(), seed_rows, stream
    candidates = range(csr.num_nodes) if reseed_nodes is None else reseed_nodes
    for node in candidates:
        if external[node] <= 0.0:
            continue
        gain, target = scan_best(node, build_row(node))
        best_gain[node] = gain
        best_target[node] = target
        if target < 0 or (greedy and gain <= _TOL):
            continue
        heap.append((-gain, node, target, 0))
    heapq.heapify(heap)
    return [-1] * csr.num_nodes, None, iter(())


def _polish_candidates(csr: CSRGraph, assignment: list[int], num_parts: int) -> list[bool]:
    """Per-node flag: may the greedy polish move this node right now?

    A node moves only towards a part it gains strictly from, so the
    vectorised form flags exactly the boundary nodes with some
    ``towards - internal > 0`` (the polish's own gain expression over the
    same order-preserving sums; for finite doubles that is ``towards >
    internal``, so a row maximum decides it without a gain matrix).  The
    scalar form flags the whole boundary, a superset the polish prunes on
    first visit — the moves are the same.
    """
    external = compute_external(csr, assignment)
    if not csr.vectorised:
        return [cross > 0.0 for cross in external]
    np = backend.numpy
    boundary = np.flatnonzero(np.asarray(external) > 0.0)
    part = np.asarray(assignment, dtype=np.int64)
    connectivity = _connectivity_matrix(csr, part, boundary, num_parts).reshape(
        len(boundary), num_parts
    )
    internal = connectivity[np.arange(len(boundary)), part[boundary]]
    attracted = connectivity.max(axis=1) > internal
    del connectivity
    flags = np.zeros(csr.num_nodes, dtype=bool)
    flags[boundary[attracted]] = True
    return flags.tolist()


def greedy_kway_refine(
    csr: CSRGraph,
    assignment: list[int],
    num_parts: int,
    max_weights: list[float],
    max_passes: int = 3,
) -> list[int]:
    """Greedy boundary refinement for a k-way assignment (modified in place).

    Only candidate nodes are examined.  The invariant: every node with a
    strictly positive gain towards some foreign part is flagged — whatever
    the part weights are, an unflagged node cannot move.  It holds at entry
    (:func:`_polish_candidates`), a move re-flags the moved node's
    neighbourhood (the only rows it changes), and a visited node is
    unflagged only when no part attracts it; one merely blocked by balance
    stays flagged for the next pass, when the weights may have shifted.
    """
    num_nodes = csr.num_nodes
    if num_nodes == 0 or num_parts <= 1:
        return assignment
    weights = side_weights(csr, assignment, num_parts)
    candidate = _polish_candidates(csr, assignment, num_parts)
    indptr, indices, edge_weights, node_weights = csr.rows()
    connectivity = [0.0] * num_parts
    parts_touched: list[int] = []
    for _ in range(max_passes):
        improved = False
        for node in range(num_nodes):
            if not candidate[node]:
                continue
            start, end = indptr[node], indptr[node + 1]
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
            attracted = False
            for part in parts_touched:
                if part == source:
                    continue
                gain = connectivity[part] - internal
                if gain > 0.0:
                    attracted = True
                    if (
                        gain > best_gain + _TOL
                        and weights[part] + node_weight <= max_weights[part]
                    ):
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
                # The move changed its neighbours' gains.
                for neighbor in indices[start:end]:
                    candidate[neighbor] = True
            elif not attracted:
                # Stays skippable until a neighbour moves.
                candidate[node] = False
        if not improved:
            break
    return assignment


def rebalance(
    csr: CSRGraph,
    assignment: list[int],
    num_parts: int,
    max_weights: list[float],
) -> list[int]:
    """Move nodes out of overweight partitions, preferring low-connectivity nodes.

    Used as a last resort when the initial k-way assignment is slightly
    infeasible (e.g. one giant coalesced node).  Cut quality is a secondary
    concern here; feasibility comes first.
    """
    weights = side_weights(csr, assignment, num_parts)
    overweight = [part for part in range(num_parts) if weights[part] > max_weights[part]]
    if not overweight:
        return assignment
    indptr, indices, edge_weights, node_weights = csr.rows()

    def internal_weight(node: int) -> float:
        part = assignment[node]
        start, end = indptr[node], indptr[node + 1]
        return sum(
            weight
            for neighbor, weight in zip(indices[start:end], edge_weights[start:end])
            if assignment[neighbor] == part
        )

    for part in overweight:
        movable = sorted(
            (node for node in csr.nodes() if assignment[node] == part),
            key=internal_weight,
        )
        for node in movable:
            if weights[part] <= max_weights[part]:
                break
            node_weight = node_weights[node]
            # Send the node to the partition with the most slack.
            target = min(
                (candidate for candidate in range(num_parts) if candidate != part),
                key=lambda candidate: weights[candidate] / max(max_weights[candidate], 1e-9),
            )
            assignment[node] = target
            weights[part] -= node_weight
            weights[target] += node_weight
    return assignment
