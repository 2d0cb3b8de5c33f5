"""End-to-end integration tests across the whole library."""

import pytest

from repro import Pipeline, SchismOptions, evaluate_strategy, split_workload
from repro.core.config import default_options
from repro.core.validation import MAX_LOAD_IMBALANCE
from repro.distributed import Cluster, TwoPhaseCommitCoordinator
from repro.routing import Router, build_lookup_table
from repro.workload.trace import Workload
from repro.workloads import EpinionsConfig, generate_epinions


def test_tpcc_pipeline_matches_manual_partitioning(tiny_tpcc):
    train, test = split_workload(tiny_tpcc.workload, 0.7)
    options = SchismOptions(num_partitions=2)
    state = Pipeline(options).run(tiny_tpcc.database, train, test).state
    reports = state.validation.reports
    manual = evaluate_strategy(
        tiny_tpcc.manual_strategy(2), state.test_trace, tiny_tpcc.database
    )
    schism_fraction = reports["range-predicates"].distributed_fraction
    # Schism's derived range predicates should be within a few points of the
    # expert by-warehouse partitioning, and far better than hashing.
    assert schism_fraction <= manual.distributed_fraction + 0.10
    assert reports["hashing"].distributed_fraction > 0.5
    # The explanation should replicate the item table and split on a warehouse column.
    item_rules = state.explanation.tables["item"].rule_set
    assert item_rules.is_trivial
    stock_attributes = state.explanation.tables["stock"].selected_attributes
    assert stock_attributes == ("s_w_id",)


@pytest.mark.parametrize(
    "seed", [0, pytest.param(1, marks=pytest.mark.slow), pytest.param(2, marks=pytest.mark.slow)]
)
def test_epinions_winner_halves_hashing_at_the_benchmark_size(seed):
    """The paper's Epinions claim (Section 6): on a read-mostly social
    workload the validated plan is far less distributed than hashing — and
    not by loading one partition with every transaction."""
    bundle = generate_epinions(EpinionsConfig(1000, 1000, 10, seed=seed), num_transactions=750)
    transactions = bundle.workload.transactions
    train, test = Workload("train", transactions[:600]), Workload("test", transactions[600:])
    options = default_options(4, seed=seed)
    options.hash_columns = bundle.hash_columns
    validation = Pipeline(options).run(bundle.database, train, test).state.validation
    winner = validation.winner_report
    assert winner.distributed_fraction <= 0.5 * validation.reports["hashing"].distributed_fraction
    assert winner.partition_load_imbalance() <= MAX_LOAD_IMBALANCE


def test_epinions_lookup_beats_manual_and_survives_routing():
    bundle = generate_epinions(
        EpinionsConfig(num_users=200, num_items=200, num_communities=8), num_transactions=1500
    )
    train, test = split_workload(bundle.workload, 0.7)
    run = Pipeline(SchismOptions(num_partitions=2)).run(bundle.database, train, test)
    validation = run.state.validation
    manual = evaluate_strategy(bundle.manual_strategy(2), run.state.test_trace, bundle.database)
    lookup_fraction = validation.reports["lookup-table"].distributed_fraction
    assert lookup_fraction < manual.distributed_fraction
    # Schism's solutions win: the lookup table, a range explanation of it, or —
    # Epinions being read-mostly — replication, whose reads are all local.
    assert run.recommendation in ("lookup-table", "range-predicates", "replication")
    assert (
        validation.winner_report.distributed_fraction
        <= manual.distributed_fraction + 0.05
    )

    # The assignment is the lookup table a deployment routes by.
    assert build_lookup_table(run.state.assignment).memory_bytes() > 0

    # Materialise the cluster and execute part of the test workload through
    # the router + 2PC coordinator; the measured distributed fraction should
    # be in the same ballpark as the cost model's estimate.
    fresh = generate_epinions(
        EpinionsConfig(num_users=200, num_items=200, num_communities=8), num_transactions=200,
        name="epinions-online",
    )
    cluster = Cluster.from_database(fresh.database, validation.winner)
    coordinator = TwoPhaseCommitCoordinator(
        cluster, Router(validation.winner, fresh.database.schema)
    )
    coordinator.execute_workload(fresh.workload)
    assert coordinator.statistics.transactions == len(fresh.workload)
    # Statement-level routing over a per-tuple lookup table keyed by primary
    # keys must broadcast Epinions' secondary-attribute queries, so it pays
    # 2PC on most transactions; the tuple-level cost model above is the
    # partitioning-quality metric.  Here we only check the plumbing: every
    # transaction executed and was accounted for.
    assert coordinator.statistics.total_messages > 0
    assert cluster.total_rows() >= fresh.database.row_count()
