"""Graph-size reduction heuristics from Section 5.1 of the paper.

All functions are pure: they take an :class:`~repro.workload.rwsets.AccessTrace`
and return a new, reduced trace.  The graph builder applies them before
constructing nodes and edges, which is where the reduction in partitioning
time comes from.
"""

from __future__ import annotations

from repro.utils.rng import SeededRng
from repro.workload.rwsets import AccessTrace


def sample_transactions(trace: AccessTrace, fraction: float, rng: SeededRng | None = None) -> AccessTrace:
    """Transaction-level sampling: keep each transaction with probability ``fraction``.

    Reduces the number of edges in the graph while preserving the relative
    frequency of co-access patterns.
    """
    _check_fraction(fraction)
    if fraction >= 1.0:
        return trace.replace(list(trace.accesses))
    rng = rng or SeededRng(0)
    kept = [access for access in trace.accesses if rng.random() < fraction]
    if not kept and trace.accesses:
        # Never return an empty trace for a non-empty input: keep one transaction
        # so downstream phases have something to work with.
        kept = [trace.accesses[0]]
    return trace.replace(kept)


def sample_tuples(trace: AccessTrace, fraction: float, rng: SeededRng | None = None) -> AccessTrace:
    """Tuple-level sampling: restrict the trace to a random subset of tuples.

    Reduces the number of nodes in the graph.  Transactions that lose all of
    their tuples are dropped.
    """
    _check_fraction(fraction)
    if fraction >= 1.0:
        return trace.replace(list(trace.accesses))
    rng = rng or SeededRng(0)
    all_tuples = sorted(trace.all_tuples())
    kept_tuples = {tuple_id for tuple_id in all_tuples if rng.random() < fraction}
    reduced = []
    for access in trace.accesses:
        restricted = access.restricted_to(kept_tuples)
        if restricted.touched:
            reduced.append(restricted)
    return trace.replace(reduced)


def filter_blanket_statements(trace: AccessTrace, max_tuples_per_statement: int = 50) -> AccessTrace:
    """Blanket-statement filtering: drop statements that scan a large slice of a table.

    Such statements produce a quadratic number of low-information edges and
    parallelise well anyway (the per-partition work dwarfs the coordination
    overhead), so the paper removes them from the graph.
    """
    if max_tuples_per_statement <= 0:
        raise ValueError("max_tuples_per_statement must be positive")
    reduced = []
    for access in trace.accesses:
        dropped = {
            position
            for position, statement_access in enumerate(access.statement_accesses)
            if len(statement_access.touched) > max_tuples_per_statement
        }
        filtered = access.without_statements(dropped) if dropped else access
        if filtered.touched:
            reduced.append(filtered)
    return trace.replace(reduced)


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
