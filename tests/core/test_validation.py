"""Tests for the final validation phase."""

from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    range_on,
)
from repro.core.validation import validate_strategies
from repro.sqlparse.ast import SelectStatement, eq
from repro.workload.rwsets import AccessTrace, access_from_tuple_sets
from repro.workload.trace import Transaction


def make_trace(pairs, writes=()):
    trace = AccessTrace("validation")
    for index, pair in enumerate(pairs):
        statement = SelectStatement(("t",), where=eq("id", pair[0]))
        transaction = Transaction((statement,), transaction_id=index)
        write_ids = writes[index] if index < len(writes) else ()
        trace.accesses.append(
            access_from_tuple_sets(
                transaction,
                [TupleId("t", (i,)) for i in pair],
                [TupleId("t", (i,)) for i in write_ids],
            )
        )
    return trace


def row_cache(max_id=400):
    return {TupleId("t", (i,)): {"id": i} for i in range(max_id)}


def block_strategy(k, block=100):
    strategy = CompositePartitioning(
        k, {"t": range_on("id", [block * (i + 1) - 1 for i in range(k - 1)])}
    )
    strategy.name = "manual-range"
    return strategy


def test_best_strategy_wins():
    # Pairs always within a block: the range strategy is perfect, hashing is not.
    trace = make_trace([(i, i + 1) for i in range(0, 200, 10)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2)], trace, row_cache=row_cache()
    )
    assert result.recommendation == "manual-range"
    assert result.winner_report.distributed_fraction == 0.0


def test_simplicity_tie_break_prefers_hash():
    # Single-tuple updates: every non-replicated strategy scores zero.
    trace = make_trace([(i,) for i in range(100)], writes=[(i,) for i in range(100)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2), FullReplication(2)],
        trace,
        row_cache=row_cache(),
    )
    assert result.recommendation == "hashing"


def test_replication_serves_reads_locally_and_spreads_them():
    # Pairs crossing blocks: hashing distributes them; replication serves every
    # read locally (0% distributed), each transaction from the replica its id
    # picks, so the load stays even and the simplest candidate wins.
    trace = make_trace([(i, i + 100) for i in range(0, 100, 10)])
    result = validate_strategies(
        [HashPartitioning(2), FullReplication(2)], trace, row_cache=row_cache()
    )
    assert result.reports["replication"].distributed_fraction == 0.0
    assert result.reports["replication"].partition_transaction_counts == [5, 5]
    assert result.recommendation == "replication"


def test_imbalanced_candidate_rejected():
    # A "strategy" that puts every tuple on partition 0 has no distributed
    # transactions but is useless; the balance guard must reject it.
    everything_on_zero = CompositePartitioning(2, {"t": range_on("id", [10_000])})
    everything_on_zero.name = "degenerate"
    trace = make_trace([(i, i + 1) for i in range(0, 200, 10)])
    result = validate_strategies(
        [everything_on_zero, HashPartitioning(2)], trace, row_cache=row_cache()
    )
    assert result.recommendation == "hashing"


def test_wide_tie_tolerance_prefers_simpler_strategy():
    trace = make_trace([(i, i + 1) for i in range(0, 300, 3)])
    lookup_like = block_strategy(2)
    result = validate_strategies(
        [lookup_like, HashPartitioning(2)],
        trace,
        row_cache=row_cache(),
        tie_tolerance=1.0,  # absurdly wide: everything ties
    )
    # With everything tied the simplest (hashing, complexity 1) wins over the
    # range strategy (complexity 2).
    assert result.recommendation == "hashing"


def test_relative_tie_tolerance_breaks_near_ties():
    # Hashing scores marginally worse than the range strategy on a workload
    # where almost every pair crosses a block boundary; the relative tolerance
    # treats them as tied and the simpler hashing wins.
    trace = make_trace([(i, i + 100) for i in range(0, 99)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2)],
        trace,
        row_cache=row_cache(),
        relative_tie_tolerance=2.0,
    )
    assert result.recommendation == "hashing"


def test_reports_contain_all_candidates():
    trace = make_trace([(1, 2)])
    result = validate_strategies(
        [HashPartitioning(2), FullReplication(2)], trace, row_cache=row_cache()
    )
    assert set(result.reports) == {"hashing", "replication"}
    assert "selected" in result.describe()


def test_requires_candidates():
    import pytest

    with pytest.raises(ValueError):
        validate_strategies([], make_trace([(1,)]))
