"""Unit tests for the budgeted re-partitioner and label alignment."""

from __future__ import annotations

import pytest

from repro.graph.model import Graph
from repro.graph.refine import cut_weight_two_way
from repro.online.maintainer import StarExpansion
from repro.online.repartitioner import (
    BudgetedRepartitioner,
    RepartitionOptions,
    align_partition_labels,
    repartition_from_scratch,
)


def _two_cliques(crossing_weight=0.0):
    """Two 3-cliques (nodes 0-2 and 3-5), optionally weakly connected."""
    graph = Graph()
    graph.add_nodes(6)
    for group in ((0, 1, 2), (3, 4, 5)):
        for i in group:
            for j in group:
                if i < j:
                    graph.add_edge(i, j, 10.0)
    if crossing_weight:
        graph.add_edge(2, 3, crossing_weight)
    return graph.freeze()


def _repartition(csr, warm, costs=None, options=None):
    """Singleton placements, nothing star-expanded: plain budgeted refinement."""
    current = [frozenset({part}) for part in warm]
    result = BudgetedRepartitioner(options).repartition_replicated(
        csr, StarExpansion(csr.num_nodes, {}, {}), current, 2, costs
    )
    assert current == [frozenset({part}) for part in warm]  # input not mutated
    assert all(len(placement) == 1 for placement in result.placements)
    return result


def _assignment(result):
    return [min(placement) for placement in result.placements]


def test_already_optimal_assignment_is_untouched():
    csr = _two_cliques()
    warm = [0, 0, 0, 1, 1, 1]
    result = _repartition(csr, warm)
    assert _assignment(result) == warm
    assert result.num_moved == 0
    assert result.migration_cost == 0.0
    assert result.cut_after == 0.0


def test_misplaced_node_moves_home():
    csr = _two_cliques()
    warm = [0, 0, 1, 1, 1, 1]  # node 2 stranded with the wrong clique
    result = _repartition(csr, warm)
    assert _assignment(result) == [0, 0, 0, 1, 1, 1]
    assert result.changed_nodes == [2]
    assert (result.replica_copies, result.replica_drops) == (1, 1)
    assert result.migration_cost == 1.0
    assert result.cut_before == 20.0
    assert result.cut_after == 0.0


def test_migration_cost_weight_blocks_marginal_moves():
    # Moving node 2 gains only 2.0 of cut; with a high enough charge the
    # re-partitioner correctly refuses to migrate it.
    graph = Graph()
    graph.add_nodes(4)
    graph.add_edge(0, 1, 2.0)
    graph.add_edge(2, 3, 2.0)
    graph.add_edge(1, 2, 1.0)
    csr = graph.freeze()
    warm = [0, 0, 1, 1]
    cheap = _repartition(
        csr, warm, options=RepartitionOptions(migration_cost_weight=10.0)
    )
    assert cheap.num_moved == 0


def test_budget_caps_total_moves():
    # Three independent stranded nodes but budget for only one move.
    graph = Graph()
    graph.add_nodes(12)
    pairs = [(0, 6), (1, 7), (2, 8)]
    for u, v in pairs:
        graph.add_edge(u, v, 5.0)
    csr = graph.freeze()
    # u-nodes on partition 0, their partners on partition 1.
    warm = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    options = RepartitionOptions(migration_cost_weight=0.1, migration_budget=1.0)
    result = _repartition(csr, warm, options=options)
    assert result.num_moved == 1
    assert result.migration_cost == 1.0
    unlimited = _repartition(
        csr, warm, options=RepartitionOptions(migration_cost_weight=0.1)
    )
    assert unlimited.num_moved == 3


def test_returning_home_refunds_cost():
    csr = _two_cliques()
    warm = [0, 0, 1, 1, 1, 1]
    options = RepartitionOptions(migration_cost_weight=0.25)
    result = _repartition(csr, warm, options=options)
    # Only node 2 is off; the cost ledger equals the final displacement, not
    # the number of intermediate moves.
    assert result.migration_cost == float(result.num_moved)


def test_balance_repair_handles_overweight_warm_start():
    graph = Graph()
    for _ in range(8):
        graph.add_node(1.0)
    csr = graph.freeze()
    warm = [0] * 8  # everything on one partition
    options = RepartitionOptions(imbalance=0.1)
    result = _repartition(csr, warm, options=options)
    weights = [_assignment(result).count(part) for part in range(2)]
    assert max(weights) <= 5  # 8/2 * 1.1 + max node weight


def test_move_costs_respected():
    csr = _two_cliques()
    warm = [0, 0, 1, 1, 1, 1]
    # Node 2 is huge: moving it costs 100, over budget.
    costs = [1.0, 1.0, 100.0, 1.0, 1.0, 1.0]
    options = RepartitionOptions(migration_cost_weight=0.01, migration_budget=50.0)
    result = _repartition(csr, warm, costs, options)
    assert 2 not in result.changed_nodes


def test_warm_assignment_length_validated():
    csr = _two_cliques()
    with pytest.raises(ValueError):
        _repartition(csr, [0, 1])


def test_align_partition_labels_undoes_permutation():
    reference = [0, 0, 1, 1, 2, 2]
    permuted = [2, 2, 0, 0, 1, 1]
    aligned = align_partition_labels(permuted, reference, 3)
    assert aligned == reference


def test_align_partition_labels_partial_overlap():
    reference = [0, 0, 0, 1, 1, 1]
    candidate = [1, 1, 0, 0, 0, 0]
    aligned = align_partition_labels(candidate, reference, 2)
    # Label 0 (4 nodes, mostly old partition 1... overlaps: new0/old1=3,
    # new0/old0=1, new1/old0=2) -> new0->1, new1->0.
    assert aligned == [0, 0, 1, 1, 1, 1]


def test_repartition_from_scratch_aligns_labels():
    csr = _two_cliques(crossing_weight=0.5)
    current = [1, 1, 1, 0, 0, 0]
    result = repartition_from_scratch(csr, current, 2)
    # The fresh cut is the two cliques; after alignment it matches the
    # current placement exactly, so no tuples would move.
    assert result.assignment == current
    assert result.num_moved == 0
    assert result.cut_after == cut_weight_two_way(csr, result.assignment)
