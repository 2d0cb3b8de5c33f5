"""Tests for the final validation phase."""

from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    range_on,
)
from repro.core.validation import validate_strategies
from repro.obs import Telemetry, use_telemetry
from repro.pipeline import Pipeline, SchismOptions, candidate_strategies
from repro.utils.rng import SeededRng
from repro.workload.splitter import split_workload


def make_trace(keyed, pairs, writes=()):
    """One transaction per pair: it reads the pair, then writes ``writes[i]``."""
    transactions = []
    for index, pair in enumerate(pairs):
        statements = [keyed.read(*pair)]
        if index < len(writes):
            statements.append(keyed.write(*writes[index]))
        transactions.append(statements)
    return keyed.trace(*transactions)


def block_strategy(k, block=100):
    strategy = CompositePartitioning(
        k, {"t": range_on("id", [block * (i + 1) - 1 for i in range(k - 1)])}
    )
    strategy.name = "manual-range"
    return strategy


def test_best_strategy_wins(keyed):
    # Pairs always within a block: the range strategy is perfect, hashing is not.
    trace = make_trace(keyed, [(i, i + 1) for i in range(0, 200, 10)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2)], trace, keyed.database
    )
    assert result.recommendation == "manual-range"
    assert result.winner_report.distributed_fraction == 0.0


def test_simplicity_tie_break_prefers_hash(keyed):
    # Single-tuple updates: every non-replicated strategy scores zero.
    trace = make_trace(keyed, [(i,) for i in range(100)], writes=[(i,) for i in range(100)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2), FullReplication(2)],
        trace,
        keyed.database,
    )
    assert result.recommendation == "hashing"


def test_replication_serves_reads_locally_and_spreads_them(keyed):
    # Pairs crossing blocks: hashing distributes them; replication serves every
    # read locally (0% distributed), each transaction from the replica its id
    # picks, so the load stays even and the simplest candidate wins.
    trace = make_trace(keyed, [(i, i + 100) for i in range(0, 100, 10)])
    result = validate_strategies(
        [HashPartitioning(2), FullReplication(2)], trace, keyed.database
    )
    assert result.reports["replication"].distributed_fraction == 0.0
    assert result.reports["replication"].partition_transaction_counts == [5, 5]
    assert result.recommendation == "replication"


def test_imbalanced_candidate_rejected(keyed):
    # A "strategy" that puts every tuple on partition 0 has no distributed
    # transactions but is useless; the balance guard must reject it.
    everything_on_zero = CompositePartitioning(2, {"t": range_on("id", [10_000])})
    everything_on_zero.name = "degenerate"
    trace = make_trace(keyed, [(i, i + 1) for i in range(0, 200, 10)])
    result = validate_strategies(
        [everything_on_zero, HashPartitioning(2)], trace, keyed.database
    )
    assert result.recommendation == "hashing"


def test_wide_tie_tolerance_prefers_simpler_strategy(keyed):
    trace = make_trace(keyed, [(i, i + 1) for i in range(0, 300, 3)])
    lookup_like = block_strategy(2)
    result = validate_strategies(
        [lookup_like, HashPartitioning(2)],
        trace,
        keyed.database,
        tie_tolerance=1.0,  # absurdly wide: everything ties
    )
    # With everything tied the simplest (hashing, complexity 1) wins over the
    # range strategy (complexity 2).
    assert result.recommendation == "hashing"


def test_relative_tie_tolerance_breaks_near_ties(keyed):
    # Hashing scores marginally worse than the range strategy on a workload
    # where almost every pair crosses a block boundary; the relative tolerance
    # treats them as tied and the simpler hashing wins.
    trace = make_trace(keyed, [(i, i + 100) for i in range(0, 99)])
    result = validate_strategies(
        [block_strategy(2), HashPartitioning(2)],
        trace,
        keyed.database,
        relative_tie_tolerance=2.0,
    )
    assert result.recommendation == "hashing"


def test_reports_contain_all_candidates(keyed):
    trace = make_trace(keyed, [(1, 2)])
    result = validate_strategies(
        [HashPartitioning(2), FullReplication(2)], trace, keyed.database
    )
    assert set(result.reports) == {"hashing", "replication"}
    assert "selected" in result.describe()


def test_requires_candidates(keyed):
    import pytest

    with pytest.raises(ValueError):
        validate_strategies([], make_trace(keyed, [(1,)]), keyed.database)


def test_scoring_changes_no_candidate_and_counts_no_route(tiny_tpcc):
    # TPC-C's history rows are placed by their row under a range base, so
    # scoring writes explicit entries — into each candidate's deployed form.
    train, test = split_workload(tiny_tpcc.workload, 0.7, rng=SeededRng(0))
    options = SchismOptions(num_partitions=2)
    state = Pipeline(options).run(tiny_tpcc.database, train, test, stop_after="explain").state
    candidates = candidate_strategies(
        options, state.assignment, state.explanation, state.training_trace
    )
    lookup = candidates[0]
    before = dict(lookup.assignment.placements)
    telemetry = Telemetry.create()
    with use_telemetry(telemetry):
        result = validate_strategies(candidates, state.test_trace, state.database)
    assert "range-predicates" in result.reports
    assert lookup.assignment.placements == before
    assert "router.statements" not in telemetry.metrics.family_names()
