"""Multilevel balanced min-cut graph partitioner (METIS-style, pure Python).

The partitioner combines three classic ingredients:

1. **Coarsening** by heavy-edge matching until the graph is small;
2. **Initial bisection** of the coarsest graph by greedy graph growing (best
   of several trials);
3. **Uncoarsening** with Fiduccia–Mattheyses refinement at every level.

Two-way partitions run the classic multilevel bisection.  k-way partitions
for k > 2 use a **direct k-way multilevel path** by default: coarsen the
graph *once*, k-way partition the coarsest graph (by recursive bisection,
which is cheap at that size; k need not be a power of two — weight targets
split proportionally), then refine all k parts in one boundary-FM sweep per
uncoarsening level (:func:`~repro.graph.refine.kway_fm_refine`, per-part
gain buckets).  This eliminates the repeated subview/coarsen work that
recursive bisection performs once per bisection branch — log(k) coarsening
hierarchies collapse into one.  Balance is expressed as a maximum
allowed relative imbalance over perfectly even partitions, matching the
"constant factor of perfect balance" constraint in the paper.

The whole pipeline runs on the frozen CSR representation
(:class:`~repro.graph.model.CSRGraph`): mutable ``Graph`` inputs are frozen
once on entry, recursive bisection extracts index-remapped ``subview``\\ s
instead of dict-copying subgraphs, and every level of the coarsening
hierarchy is CSR.  Under the numpy array backend
(:mod:`repro.graph.backend`) the bulk kernels are vectorised; both backends
produce bit-identical assignments for a fixed seed.  Callers that partition
the same graph repeatedly (e.g. the Figure-5 k sweep) can freeze once
themselves and pass the ``CSRGraph`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.coarsen import (
    coarsen_chain,
    coarsen_to,
    project_assignment,
    project_boundary,
)
from repro.graph.initial import greedy_bisection, peripheral_seed, random_bisection
from repro.graph.model import CSRGraph, Graph, as_csr
from repro.obs import get_telemetry
from repro.graph.refine import (
    FM_NEGATIVE_STREAK,
    _fm_refine_csr,
    cut_weight_two_way,
    greedy_kway_refine,
    kway_fm_refine,
    rebalance,
    side_weights,
)
from repro.utils.rng import SeededRng


#: the direct k-way path stops coarsening at
#: ``max(coarsen_target, KWAY_COARSE_FACTOR * k)`` nodes, so the initial k-way
#: partition always has a handful of coarse nodes per part to allocate.
KWAY_COARSE_FACTOR = 20
#: a root-level two-way bisection refines this many of the best initial
#: candidates through the *whole* uncoarsening and keeps the best final cut.
#: Selecting at the coarsest level alone commits to one basin before
#: refinement has had a say — carrying 2 candidates recovers most of the
#: spread at roughly twice the two-way refinement cost (coarsening is shared).
BISECTION_CARRY = 2
#: a root-level two-way bisection also tries the multilevel pipeline over this
#: many differently-seeded coarsening chains (seed, seed+1, …) and keeps the
#: best final cut.  The two-way cut's variance lives mostly in the coarsening
#: randomisation — initial-candidate diversity alone cannot reach basins a
#: chain never exposes.  Chains are memoised per seed on the frozen graph, so
#: repeated k=2 calls pay the extra coarsening once.
TWO_WAY_CHAIN_TRIALS = 2


@dataclass
class PartitionerOptions:
    """Tuning knobs for the partitioner.

    Count-valued knobs (``coarsen_target``, ``initial_trials``,
    ``refine_passes``) are clamped to at least 1 on construction — zero or
    negative values used to degrade silently (empty trial loops, runaway
    coarsening).  ``imbalance`` is validated outright, and a single-trial
    configuration still uses greedy growing for its initial bisection (it
    never silently degrades to a random split).

    The array backend (numpy vs. pure-Python CSR arrays) is *not* an option
    here: it is process-wide, selected by the ``REPRO_ARRAY_BACKEND``
    environment variable via :mod:`repro.graph.backend`.  Both backends
    produce identical assignments; the option surface stays
    backend-agnostic.
    """

    #: permissible relative imbalance; 0.05 means partitions may exceed the
    #: ideal weight by 5% (plus one maximal node, to guarantee feasibility).
    imbalance: float = 0.05
    #: stop coarsening when the graph has at most this many nodes.  The
    #: direct k-way path coarsens to ``max(coarsen_target,
    #: KWAY_COARSE_FACTOR * k)`` so the coarsest graph always has a few nodes
    #: per part to work with.
    coarsen_target: int = 120
    #: number of greedy-graph-growing trials for the initial bisection.
    initial_trials: int = 8
    #: number of FM passes per uncoarsening level (two-way and k-way alike).
    refine_passes: int = 4
    #: random seed (tie-breaking, seed selection, matching order).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.imbalance < 0:
            raise ValueError("imbalance must be non-negative")
        self.coarsen_target = max(1, int(self.coarsen_target))
        self.initial_trials = max(1, int(self.initial_trials))
        self.refine_passes = max(1, int(self.refine_passes))


class GraphPartitioner:
    """Balanced min-cut k-way partitioner."""

    def __init__(self, options: PartitionerOptions | None = None) -> None:
        self.options = options or PartitionerOptions()

    # -- public API -----------------------------------------------------------------
    def partition(self, graph: Graph | CSRGraph, num_parts: int) -> list[int]:
        """Partition ``graph`` into ``num_parts`` balanced parts, minimising the cut.

        ``graph`` may be a mutable :class:`Graph` (frozen internally) or an
        already-frozen :class:`CSRGraph`.  Returns a list assigning each node
        id to a partition in ``[0, num_parts)``.
        """
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        if graph.num_nodes == 0:
            return []
        if num_parts == 1:
            return [0] * graph.num_nodes
        csr = as_csr(graph)
        rng = SeededRng(self.options.seed)
        telemetry = get_telemetry()
        telemetry.metrics.counter(
            "partition.runs", "graph partitioner invocations"
        ).inc()
        with telemetry.tracer.span(
            "partition.kway", k=num_parts, nodes=csr.num_nodes
        ):
            if num_parts > 2:
                return self._direct_kway(csr, num_parts, rng)
            assignment = [0] * csr.num_nodes
            with telemetry.tracer.span("partition.bisect", k=num_parts):
                self._recursive_bisect(
                    csr,
                    list(csr.nodes()),
                    num_parts,
                    first_part=0,
                    assignment=assignment,
                    rng=rng,
                    root_extras=True,
                )
            max_weights = self._kway_max_weights(csr, num_parts)
            with telemetry.tracer.span("partition.refine", level=0, nodes=csr.num_nodes):
                rebalance(csr, assignment, num_parts, max_weights)
                greedy_kway_refine(
                    csr, assignment, num_parts, max_weights, self.options.refine_passes
                )
            phases = telemetry.metrics.counter(
                "partition.phases", "partitioner phase executions", labels=("phase",)
            )
            phases.inc(phase="bisect")
            phases.inc(phase="refine")
            return assignment

    # -- direct k-way -----------------------------------------------------------------
    def _direct_kway(self, csr: CSRGraph, num_parts: int, rng: SeededRng) -> list[int]:
        """Coarsen once, k-way partition the coarsest graph, k-way FM per level.

        The coarsening chain is memoised on the frozen graph
        (:func:`~repro.graph.coarsen.coarsen_chain`): sweeping k over one
        graph — the Figure-5 protocol, and the paper's own "partition for
        several k, keep the best" loop — pays for the hierarchy once.  The
        initial k-way partition of the coarsest graph comes from recursive
        bisection with a tightened balance (a quarter of the slack, so the
        per-branch tolerances cannot compound into overweight parts that the
        rebalance would then fix at the cut's expense) and a lean trial
        budget — at
        coarsest size its quality is dominated by the later refinement
        anyway.  Every uncoarsening level then refines all k parts in a
        single bucket-FM sweep instead of one two-way FM per bisection
        branch: one fast pass at the intermediate levels, ``refine_passes``
        hill-climbing passes (wider streak, adaptive early exit) at the
        finest level where the cut is actually realised, and a final greedy
        boundary polish.  Balance is repaired once at the coarsest level;
        projection preserves part weights and the FM never violates
        ``max_weights``, so the final rebalance is a no-op safety net.
        """
        options = self.options
        telemetry = get_telemetry()
        phases = telemetry.metrics.counter(
            "partition.phases", "partitioner phase executions", labels=("phase",)
        )
        max_weights = self._kway_max_weights(csr, num_parts)
        coarse_target = max(options.coarsen_target, KWAY_COARSE_FACTOR * num_parts)
        with telemetry.tracer.span("partition.coarsen", nodes=csr.num_nodes) as coarsen_span:
            levels = coarsen_chain(csr, coarse_target, options.seed)
            # A level far below the target over-coarsens the initial partition's
            # granularity (one matching round can overshoot); back up one level.
            while len(levels) > 1 and levels[-1].graph.num_nodes < coarse_target // 2:
                levels.pop()
            coarsest = levels[-1].graph if levels else csr
            coarsen_span.set_attribute("levels", len(levels))
            coarsen_span.set_attribute("coarsest_nodes", coarsest.num_nodes)
        phases.inc(phase="coarsen")
        initial = GraphPartitioner(
            replace(
                options,
                imbalance=options.imbalance * 0.25,
                initial_trials=min(options.initial_trials, 2),
                refine_passes=1,
                coarsen_target=max(options.coarsen_target, coarsest.num_nodes),
            )
        )
        assignment = [0] * coarsest.num_nodes
        with telemetry.tracer.span(
            "partition.initial", k=num_parts, nodes=coarsest.num_nodes
        ):
            initial._recursive_bisect(
                coarsest,
                list(coarsest.nodes()),
                num_parts,
                first_part=0,
                assignment=assignment,
                rng=rng,
                # The coarsest-level initial partition is dominated by the
                # k-way refinement that follows; the two-way quality extras
                # would only add work (and reshuffle the k>2 results).
                root_extras=False,
            )
            rebalance(coarsest, assignment, num_parts, max_weights)
            external = kway_fm_refine(
                coarsest,
                assignment,
                num_parts,
                max_weights,
                max_passes=max(options.refine_passes, 2),
                max_negative_streak=4 * FM_NEGATIVE_STREAK,
                pass_gain_tolerance=0.002,
            )
        phases.inc(phase="initial")
        for index in range(len(levels) - 1, -1, -1):
            assignment = project_assignment(levels[index], assignment)
            boundary_hint = project_boundary(levels[index], external)
            finest = index == 0
            finer_graph = csr if finest else levels[index - 1].graph
            with telemetry.tracer.span(
                "partition.refine", level=index, nodes=finer_graph.num_nodes
            ):
                external = kway_fm_refine(
                    finer_graph,
                    assignment,
                    num_parts,
                    max_weights,
                    max_passes=options.refine_passes if finest else 1,
                    max_negative_streak=8 * FM_NEGATIVE_STREAK
                    if finest
                    else 4 * FM_NEGATIVE_STREAK,
                    boundary_hint=boundary_hint,
                    want_external=not finest,
                    pass_gain_tolerance=0.002,
                )
            phases.inc(phase="refine")
        rebalance(csr, assignment, num_parts, max_weights)
        greedy_kway_refine(csr, assignment, num_parts, max_weights, max_passes=1)
        return assignment

    # -- recursive bisection ----------------------------------------------------------
    def _recursive_bisect(
        self,
        original: CSRGraph,
        node_ids: list[int],
        num_parts: int,
        first_part: int,
        assignment: list[int],
        rng: SeededRng,
        root_extras: bool,
    ) -> None:
        """Assign ``node_ids`` to ``num_parts`` parts by recursive bisection.

        ``root_extras`` grants the bisection that covers the whole of
        ``original`` the two-way quality extras of
        :meth:`_multilevel_bisection`; bisections of extracted subviews
        never get them.
        """
        if num_parts == 1 or not node_ids:
            for node in node_ids:
                assignment[node] = first_part
            return
        if len(node_ids) == original.num_nodes:
            # The first level of the recursion covers the whole graph: no
            # extraction needed, the identity mapping is node_ids itself.
            subgraph, mapping = original, node_ids
        else:
            subgraph, mapping = original.subview(node_ids)
        left_parts = (num_parts + 1) // 2
        right_parts = num_parts - left_parts
        target_fraction = left_parts / num_parts
        two_way = self._multilevel_bisection(
            subgraph, target_fraction, rng, root_extras and subgraph is original
        )
        left_nodes = [mapping[i] for i, side in enumerate(two_way) if side == 0]
        right_nodes = [mapping[i] for i, side in enumerate(two_way) if side == 1]
        if not left_nodes or not right_nodes:
            # Degenerate bisection (e.g. a single huge node): split arbitrarily
            # so that every part receives at least one node where possible.
            ordered = sorted(node_ids, key=lambda node: -original.node_weights[node])
            left_nodes = ordered[::2]
            right_nodes = ordered[1::2]
        self._recursive_bisect(
            original, left_nodes, left_parts, first_part, assignment, rng, root_extras
        )
        self._recursive_bisect(
            original,
            right_nodes,
            right_parts,
            first_part + left_parts,
            assignment,
            rng,
            root_extras,
        )

    # -- multilevel bisection -----------------------------------------------------------
    def _multilevel_bisection(
        self,
        graph: CSRGraph,
        target_fraction: float,
        rng: SeededRng,
        extras: bool,
    ) -> list[int]:
        """Coarsen, bisect the coarsest graph, uncoarsen with FM per level.

        ``extras`` marks the root-level two-way bisection of a caller-owned
        graph, the one place the quality extras pay for themselves: memoised
        coarsening chains (``TWO_WAY_CHAIN_TRIALS`` of them),
        ``BISECTION_CARRY`` initial candidates carried through the whole
        uncoarsening, the peripheral-seed trial, and an FM polish when the
        graph needed no coarsening.  Every other bisection (the direct k-way
        path's coarsest-graph initial partition) runs one lean pipeline.
        """
        total_weight = graph.total_node_weight()
        max_node_weight = max(graph.rows()[3], default=0.0)
        slack = 1.0 + self.options.imbalance
        max_weights = (
            total_weight * target_fraction * slack + max_node_weight,
            total_weight * (1.0 - target_fraction) * slack + max_node_weight,
        )
        chain_trials = TWO_WAY_CHAIN_TRIALS if extras else 1
        best_assignment: list[int] | None = None
        best_score = float("inf")
        for chain_index in range(chain_trials):
            if extras:
                # Reuse (or build) the memoised coarsening chain so repeated
                # partitions of the same frozen graph — any k, including 2 —
                # share one hierarchy per chain seed.
                levels = coarsen_chain(
                    graph, self.options.coarsen_target, self.options.seed + chain_index
                )
                chain_rng = rng.fork(("chain", chain_index))
            else:
                levels = coarsen_to(graph, self.options.coarsen_target, rng)
                chain_rng = rng
            coarsest = levels[-1].graph if levels else graph
            candidates = self._initial_bisection(
                coarsest, target_fraction, chain_rng, max_weights, extras
            )
            for assignment, external in candidates:
                # Uncoarsen: project back level by level, refining at each
                # step.  The graph one step finer than levels[index] is
                # levels[index - 1] (or the input graph at index 0), so the
                # loop index is all we need.  A coarse node with zero
                # external weight proves all its fine members are interior,
                # so the finer FM call skips their adjacency during init.
                for index in range(len(levels) - 1, -1, -1):
                    assignment = project_assignment(levels[index], assignment)
                    boundary_hint = project_boundary(levels[index], external)
                    finer_graph = graph if index == 0 else levels[index - 1].graph
                    external = _fm_refine_csr(
                        finer_graph,
                        assignment,
                        max_weights,
                        max_passes=self.options.refine_passes,
                        boundary_hint=boundary_hint,
                    )
                if not levels and extras:
                    external = _fm_refine_csr(
                        graph,
                        assignment,
                        max_weights,
                        max_passes=self.options.refine_passes,
                    )
                if not extras:
                    # One chain, one candidate: nothing to compare against.
                    return assignment
                cut = sum(external) / 2.0
                penalty = (
                    0.0
                    if self._is_feasible(graph, assignment, max_weights)
                    else graph.total_edge_weight() + 1.0
                )
                if cut + penalty < best_score:
                    best_score = cut + penalty
                    best_assignment = assignment
        assert best_assignment is not None
        return best_assignment

    def _initial_bisection(
        self,
        graph: CSRGraph,
        target_fraction: float,
        rng: SeededRng,
        max_weights: tuple[float, float],
        extras: bool,
    ) -> list[tuple[list[int], list[float]]]:
        """The best initial candidates, ranked, duplicates dropped.

        Each candidate is ``(assignment, external)`` after one quick FM pass;
        feasible bisections rank before infeasible ones, smaller cuts first.
        With ``extras`` (a root-level two-way bisection) the ``BISECTION_CARRY``
        best are returned from a pool widened by a peripheral-seed trial and
        a scaled trial count; otherwise the single best of ``initial_trials``.
        """
        count = BISECTION_CARRY if extras else 1
        total_weight = graph.total_node_weight()
        target_zero = total_weight * target_fraction
        #: (score, arrival order, assignment, external) — order breaks ties
        #: deterministically in favour of the earlier trial.
        ranked: list[tuple[float, int, list[int], list[float]]] = []
        seen_raw: set[tuple[int, ...]] = set()
        seen_refined: set[tuple[int, ...]] = set()

        def consider(candidate: list[int]) -> None:
            # Identical raw candidates refine identically: drop them before
            # paying the FM pass.  Distinct raw candidates can still refine
            # into the same assignment, so dedup again after refinement or
            # the carry would waste a full uncoarsening on a duplicate.
            raw_key = tuple(candidate)
            if raw_key in seen_raw:
                return
            seen_raw.add(raw_key)
            external = _fm_refine_csr(graph, candidate, max_weights, max_passes=1)
            key = tuple(candidate)
            if key in seen_refined:
                return
            seen_refined.add(key)
            # The refiner's external array is the per-node cut contribution,
            # so the cut falls out as a sum instead of an edge rescan.
            cut = sum(external) / 2.0
            balanced = self._is_feasible(graph, candidate, max_weights)
            # Prefer feasible bisections; among those, the smallest cut wins.
            penalty = 0.0 if balanced else graph.total_edge_weight() + 1.0
            ranked.append((cut + penalty, len(ranked), candidate, external))

        if extras:
            # Deterministic trial: grow from a pseudo-peripheral node (a
            # rim-grown region tends to meet the opposite rim with a short
            # boundary, which stabilises the cut against unlucky random
            # seeds).  Runs first so random trials only replace it by
            # strictly beating it.
            trial_rng = rng.fork(("initial", "peripheral"))
            consider(
                greedy_bisection(
                    graph, target_zero, trial_rng, seed_node=peripheral_seed(graph)
                )
            )
        trials = max(1, self.options.initial_trials)
        if count > 1:
            # A carried selection needs a candidate pool several times the
            # carry, or the "runners-up" are whatever happened to be drawn.
            # Root-level trials run on the coarsest graph, where each one is
            # a few thousand scalar ops — diversity here is nearly free,
            # unlike in recursive branches (count == 1) where trials
            # multiply across the bisection tree.
            trials = max(trials, 4 * count)
        for trial in range(trials):
            trial_rng = rng.fork(("initial", trial))
            if trial > 0 and trial == trials - 1 and not ranked:
                # Diversity fallback only: a single-trial configuration must
                # still use greedy growing (a lone random bisection would
                # silently degrade the partition).
                candidate = random_bisection(graph, target_zero, trial_rng)
            else:
                candidate = greedy_bisection(graph, target_zero, trial_rng)
            consider(candidate)
        ranked.sort(key=lambda entry: entry[:2])
        return [(assignment, external) for _, _, assignment, external in ranked[:count]]

    @staticmethod
    def _is_feasible(
        graph: CSRGraph, assignment: list[int], max_weights: tuple[float, float]
    ) -> bool:
        weights = side_weights(graph, assignment, 2)
        return weights[0] <= max_weights[0] and weights[1] <= max_weights[1]

    def _kway_max_weights(self, graph: CSRGraph, num_parts: int) -> list[float]:
        total_weight = graph.total_node_weight()
        max_node_weight = max(graph.rows()[3], default=0.0)
        per_part = total_weight / num_parts
        return [per_part * (1.0 + self.options.imbalance) + max_node_weight] * num_parts


def partition_graph(
    graph: Graph | CSRGraph,
    num_parts: int,
    options: PartitionerOptions | None = None,
) -> list[int]:
    """Convenience wrapper: partition ``graph`` into ``num_parts`` parts."""
    return GraphPartitioner(options).partition(graph, num_parts)


def cut_weight(graph: Graph | CSRGraph, assignment: list[int]) -> float:
    """Total weight of edges whose endpoints are assigned to different parts."""
    return cut_weight_two_way(as_csr(graph), assignment)


def partition_weights(
    graph: Graph | CSRGraph, assignment: list[int], num_parts: int
) -> list[float]:
    """Total node weight per partition (re-exported for reports and tests)."""
    return side_weights(as_csr(graph), assignment, num_parts)
