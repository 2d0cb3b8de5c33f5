"""Budgeted re-partitioning: small drifts should yield small deltas.

A from-scratch k-way cut of the maintained graph ignores where tuples
currently live, so even a mild drift would trigger a near-total reshuffle.
The :class:`BudgetedRepartitioner` instead **warm-starts from the current
placement** (a replica set per tuple, singletons included) and performs greedy k-way boundary refinement in which every
move is charged its **migration cost** (the size of the tuple that would
have to be copied across partitions):

* a move is taken only when its cut gain exceeds ``migration_cost_weight``
  times the migration-cost delta it causes;
* the total migration cost spent is capped by ``migration_budget``;
* cost accounting is relative to the *home* (pre-refinement) placement:
  leaving home costs the tuple's size, returning home refunds it, and moving
  between two foreign partitions is free (the copy already happened).

The refinement itself is the offline partitioner's k-way bucket-FM kernel
(:func:`repro.graph.refine.kway_fm_refine`) run in greedy mode with a
:class:`~repro.graph.refine.MoveCostModel` — the same per-part gain
structure, vectorised boundary initialisation and generation-counter
invalidation that power the direct k-way multilevel path, so live
re-partitioning rides every speedup the offline kernel gets.

:func:`repartition_from_scratch` wraps the offline multilevel partitioner
and — because fresh runs label partitions arbitrarily — re-aligns its labels
against the current assignment (:func:`align_partition_labels`) so the two
approaches are compared on genuine placement differences, not label noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.model import CSRGraph
from repro.graph.partitioner import GraphPartitioner, PartitionerOptions
from repro.graph.refine import (
    MoveCostModel,
    cut_weight_two_way,
    kway_fm_refine,
    side_weights,
)
from repro.online.maintainer import StarExpansion


@dataclass
class RepartitionOptions:
    """Tuning knobs of the budgeted re-partitioner."""

    #: cut-gain units charged per unit of migration cost; higher values make
    #: the refiner more reluctant to move tuples.
    migration_cost_weight: float = 0.5
    #: cap on total migration cost spent (None = unbounded).  Feasibility
    #: (balance) repairs may exceed the budget: an overloaded partition is
    #: worse than a late migration.
    migration_budget: float | None = None
    #: maximum number of refinement passes over the boundary.
    max_passes: int = 8
    #: permissible relative imbalance, as in the offline partitioner.
    imbalance: float = 0.05

    def __post_init__(self) -> None:
        if self.migration_cost_weight < 0:
            raise ValueError("migration_cost_weight must be non-negative")
        if self.migration_budget is not None and self.migration_budget < 0:
            raise ValueError("migration_budget must be non-negative")


@dataclass
class RepartitionResult:
    """Outcome of a from-scratch re-partition (:func:`repartition_from_scratch`)."""

    assignment: list[int]
    num_partitions: int
    cut_before: float
    cut_after: float
    #: nodes whose partition differs from the warm-start assignment.
    moved_nodes: list[int] = field(default_factory=list)
    #: total migration cost of those moves.
    migration_cost: float = 0.0

    @property
    def num_moved(self) -> int:
        """Number of nodes that changed partition."""
        return len(self.moved_nodes)


@dataclass
class ReplicatedRepartitionResult:
    """Outcome of a replication-aware budgeted re-partition.

    ``placements`` holds one replica *set* per base node: singletons for
    ordinary tuples, wider sets where the min-cut decided a read-hot tuple's
    satellites should scatter.  Migration cost is charged **per replica
    copy** (a partition newly added to a tuple's set costs one copy of the
    tuple); dropped replicas are free — deleting a stale copy moves no data.
    """

    placements: list[frozenset[int]]
    num_partitions: int
    #: cut weights on the star-expanded graph (comparable before/after,
    #: not directly comparable with the unexpanded graph's cut).
    cut_before: float
    cut_after: float
    #: base nodes whose replica set differs from the deployed placement.
    changed_nodes: list[int] = field(default_factory=list)
    #: total partitions added across all replica sets (copies to perform).
    replica_copies: int = 0
    #: total partitions removed across all replica sets (drops to perform).
    replica_drops: int = 0
    #: migration cost of the copies (per-copy tuple cost summed).
    migration_cost: float = 0.0

    @property
    def num_changed(self) -> int:
        """Number of tuples whose replica set changed."""
        return len(self.changed_nodes)

    #: what adaptation records report as "moved".
    num_moved = num_changed

    @property
    def replicated_count(self) -> int:
        """Number of tuples placed on more than one partition."""
        return sum(1 for placement in self.placements if len(placement) > 1)


class BudgetedRepartitioner:
    """Warm-started k-way refinement with migration-cost accounting.

    One entry point, :meth:`repartition_replicated`: it refines a
    star-expanded graph into per-tuple **replica sets** (read-hot tuples may
    widen onto several partitions; each added replica is charged one copy
    against the budget).  With an empty expansion every set is a singleton
    and the result is the plain budgeted k-way refinement.
    """

    def __init__(self, options: RepartitionOptions | None = None) -> None:
        self.options = options or RepartitionOptions()

    def repartition_replicated(
        self,
        graph: CSRGraph,
        star: StarExpansion,
        current_placements: list[frozenset[int]],
        num_parts: int,
        move_costs: list[float] | None = None,
    ) -> ReplicatedRepartitionResult:
        """Budgeted re-partition of a star-expanded graph into replica sets.

        Parameters
        ----------
        graph:
            The frozen *expanded* graph
            (:meth:`~repro.online.maintainer.IncrementalGraphMaintainer.freeze_replicated`).
        star:
            The expansion bookkeeping: which expanded nodes are satellites of
            which base node.
        current_placements:
            The deployed replica set of every *base* node (non-empty, already
            restricted to ``[0, num_parts)``).  Satellites warm-start on the
            current replicas — a bucket satellite whose partition already
            holds a replica starts there (no charge for keeping it), the
            rest sit on the primary home — so the :class:`MoveCostModel`
            charges exactly the *new* copies a widened placement implies.  A
            satellite moving between two partitions is charged one copy (the
            drop it leaves behind is free), which slightly over-charges
            satellites consolidating onto an already-replicated partition;
            the returned ``migration_cost`` is recomputed exactly from the
            replica-set diffs.
        num_parts:
            Number of partitions.
        move_costs:
            Per-*base*-node copy cost (e.g. tuple bytes); defaults to 1.0.
        """
        num_base = star.num_base_nodes
        num_nodes = graph.num_nodes
        if len(current_placements) != num_base:
            raise ValueError("current placements length does not match the base graph")
        base_costs = move_costs if move_costs is not None else [1.0] * num_base
        # Expanded warm assignment + per-node copy costs.
        warm = [0] * num_nodes
        costs = [0.0] * num_nodes
        for node in range(num_base):
            placement = current_placements[node]
            primary = min(placement)
            warm[node] = primary
            satellites = star.satellites.get(node)
            if satellites is None:
                costs[node] = base_costs[node]
                continue
            # Candidate centre: virtual (its partition never reaches the
            # replica set), so its moves are free; the copies live on the
            # satellites.
            costs[node] = 0.0
            for satellite in satellites:
                bucket = star.satellite_bucket.get(satellite)
                warm[satellite] = bucket if bucket in placement else primary
                costs[satellite] = base_costs[node]
        assignment = list(warm)
        cut_before = cut_weight_two_way(graph, assignment)
        if num_nodes and num_parts > 1:
            max_weights = self._max_weights(graph, num_parts)
            weights = side_weights(graph, assignment, num_parts)
            spent = self._repair_balance(graph, assignment, warm, costs, weights, max_weights)
            self._refine(graph, assignment, warm, costs, weights, max_weights, spent)
        result = ReplicatedRepartitionResult(
            placements=[],
            num_partitions=num_parts,
            cut_before=cut_before,
            cut_after=cut_weight_two_way(graph, assignment),
        )
        for node in range(num_base):
            placement = frozenset(
                assignment[expanded] for expanded in star.placement_nodes(node)
            )
            result.placements.append(placement)
            old = current_placements[node]
            if placement == old:
                continue
            result.changed_nodes.append(node)
            copies = len(placement - old)
            result.replica_copies += copies
            result.replica_drops += len(old - placement)
            result.migration_cost += copies * base_costs[node]
        return result

    # -- phases -----------------------------------------------------------------------
    def _max_weights(self, graph: CSRGraph, num_parts: int) -> list[float]:
        total = graph.total_node_weight()
        max_node = max(graph.node_weights, default=0.0)
        per_part = total / num_parts
        return [per_part * (1.0 + self.options.imbalance) + max_node] * num_parts

    def _repair_balance(
        self,
        graph: CSRGraph,
        assignment: list[int],
        home: list[int],
        costs: list[float],
        weights: list[float],
        max_weights: list[float],
    ) -> float:
        """Move nodes out of overweight partitions, cheapest-to-migrate first.

        Returns the migration cost spent.  Budget is intentionally not
        enforced here: feasibility comes first (documented in the options).
        """
        num_parts = len(weights)
        spent = 0.0
        overweight = [part for part in range(num_parts) if weights[part] > max_weights[part]]
        if not overweight:
            return spent
        indptr, indices, edge_weights, node_weights = graph.rows()
        for part in overweight:
            if weights[part] <= max_weights[part]:
                continue

            def eviction_key(node: int) -> tuple[float, int]:
                start, end = indptr[node], indptr[node + 1]
                internal = sum(
                    weight
                    for neighbor, weight in zip(indices[start:end], edge_weights[start:end])
                    if assignment[neighbor] == part
                )
                return (internal + self.options.migration_cost_weight * costs[node], node)

            movable = sorted(
                (node for node in range(graph.num_nodes) if assignment[node] == part),
                key=eviction_key,
            )
            for node in movable:
                if weights[part] <= max_weights[part]:
                    break
                target = min(
                    (candidate for candidate in range(num_parts) if candidate != part),
                    key=lambda candidate: (
                        weights[candidate] / max(max_weights[candidate], 1e-9),
                        candidate,
                    ),
                )
                spent += self._cost_delta(node, part, target, home, costs)
                assignment[node] = target
                weights[part] -= node_weights[node]
                weights[target] += node_weights[node]
        return spent

    def _refine(
        self,
        graph: CSRGraph,
        assignment: list[int],
        home: list[int],
        costs: list[float],
        weights: list[float],
        max_weights: list[float],
        already_spent: float,
    ) -> None:
        """Cost-charged k-way refinement via the shared bucket-FM kernel.

        Delegates to :func:`repro.graph.refine.kway_fm_refine` in greedy
        mode: the :class:`MoveCostModel` adjusts every candidate gain by
        ``migration_cost_weight`` times its cost delta, enforces the budget
        (moves that would exceed it are inadmissible; returning home — a
        refund — always is), and keeps the running ledger.
        """
        options = self.options
        cost_model = MoveCostModel(
            home,
            costs,
            options.migration_cost_weight,
            options.migration_budget,
            already_spent,
        )
        kway_fm_refine(
            graph,
            assignment,
            len(weights),
            max_weights,
            max_passes=options.max_passes,
            cost_model=cost_model,
            want_external=False,
        )

    @staticmethod
    def _cost_delta(
        node: int, source: int, target: int, home: list[int], costs: list[float]
    ) -> float:
        """Migration-cost change of moving ``node`` from ``source`` to ``target``."""
        home_part = home[node]
        if source == home_part and target != home_part:
            return costs[node]
        if source != home_part and target == home_part:
            return -costs[node]
        return 0.0


def align_partition_labels(
    assignment: list[int], reference: list[int], num_parts: int
) -> list[int]:
    """Relabel ``assignment``'s partitions to best match ``reference``.

    A fresh partitioner run labels its parts arbitrarily; before counting
    "tuples moved" against the deployed placement the labels must be matched,
    otherwise a pure relabelling would look like a full migration.  Greedy
    maximum-overlap matching (overlap measured in tuples) is within a
    factor of two of optimal and fully deterministic.
    """
    overlap: dict[tuple[int, int], float] = {}
    for node, new_part in enumerate(assignment):
        pair = (new_part, reference[node])
        overlap[pair] = overlap.get(pair, 0.0) + 1.0
    ranked = sorted(overlap.items(), key=lambda item: (-item[1], item[0]))
    mapping: dict[int, int] = {}
    used_targets: set[int] = set()
    for (new_part, old_part), _ in ranked:
        if new_part in mapping or old_part in used_targets:
            continue
        mapping[new_part] = old_part
        used_targets.add(old_part)
    free_targets = [part for part in range(num_parts) if part not in used_targets]
    for part in range(num_parts):
        if part not in mapping:
            mapping[part] = free_targets.pop(0)
    return [mapping[part] for part in assignment]


def repartition_from_scratch(
    graph: CSRGraph,
    current_assignment: list[int],
    num_parts: int,
    partitioner_options: PartitionerOptions | None = None,
) -> RepartitionResult:
    """Full multilevel re-partition, label-aligned against the current placement.

    The baseline the budgeted re-partitioner is judged against: it reaches
    the best cut the offline partitioner can produce, at whatever migration
    cost that implies.
    """
    partitioner = GraphPartitioner(partitioner_options)
    fresh = partitioner.partition(graph, num_parts)
    aligned = align_partition_labels(fresh, current_assignment, num_parts)
    moved = [
        node for node in range(graph.num_nodes) if aligned[node] != current_assignment[node]
    ]
    return RepartitionResult(
        aligned,
        num_parts,
        cut_weight_two_way(graph, current_assignment),
        cut_weight_two_way(graph, aligned),
        moved,
        float(len(moved)),
    )
