"""Tests for the end-to-end behaviour of a whole pipeline run."""

import pytest

from repro.pipeline import Pipeline, SchismOptions
from repro.sqlparse.ast import SelectStatement, UpdateStatement, eq, in_list
from repro.utils.rng import SeededRng
from repro.workload.trace import Workload


def clustered_workload(
    num_rows_per_cluster: int = 50,
    num_clusters: int = 2,
    transactions: int = 200,
    update_first: bool = True,
) -> Workload:
    """Transactions read pairs of accounts from the same hidden cluster and
    update the first (without writes, replication would serve every read
    locally and rightly win)."""
    rng = SeededRng(0)
    workload = Workload("clustered")
    for _ in range(transactions):
        cluster = rng.randint(0, num_clusters - 1)
        base = cluster * num_rows_per_cluster
        first = base + rng.randint(0, num_rows_per_cluster - 1)
        second = base + rng.randint(0, num_rows_per_cluster - 1)
        statements = [SelectStatement(("account",), where=in_list("id", sorted({first, second})))]
        if update_first:
            statements.append(UpdateStatement("account", {"bal": 1}, where=eq("id", first)))
        workload.add_statements(statements)
    return workload


@pytest.fixture
def clustered_database(bank_schema):
    from repro.engine.database import Database

    database = Database(bank_schema)
    for account_id in range(100):
        database.insert_row("account", {"id": account_id, "name": f"user{account_id}", "bal": 0})
    return database


def test_pipeline_discovers_clusters(clustered_database):
    options = SchismOptions(num_partitions=2)
    run = Pipeline(options).run(clustered_database, clustered_workload())
    reports = run.state.validation.reports
    # The graph solution should make almost every transaction single-partition.
    assert reports["lookup-table"].distributed_fraction < 0.1
    # And the explanation should express it as a key range split around id 50.
    assert reports["range-predicates"].distributed_fraction < 0.15
    assert run.recommendation in ("range-predicates", "lookup-table")
    assert run.plan().recommendation == run.recommendation
    assert run.state.assignment.partition_tuple_counts()[0] > 0
    assert run.state.graph_cut >= 0
    assert sum(run.state.timings.values()) >= run.state.timings["extract"] > 0.0


def test_pipeline_with_test_workload(clustered_database):
    run = Pipeline(SchismOptions(num_partitions=2)).run(
        clustered_database,
        clustered_workload(transactions=150),
        test_workload=clustered_workload(transactions=50),
    )
    assert run.state.validation.winner_report.total_transactions == 50


def test_describe_mentions_graph_and_candidates(clustered_database):
    run = Pipeline(SchismOptions(num_partitions=2)).run(clustered_database, clustered_workload())
    text = run.describe()
    assert "graph:" in text
    assert "cut weight:" in text
    # Every validated candidate is listed, the winner marked.
    for name in run.state.validation.reports:
        assert name in text
    assert "<= selected" in text


def test_invalid_options():
    with pytest.raises(ValueError):
        SchismOptions(num_partitions=0)


def test_read_mostly_detection(clustered_database):
    read_only = clustered_workload(transactions=100, update_first=False)
    run = Pipeline(SchismOptions(num_partitions=2)).run(
        clustered_database, read_only
    )
    lookup = run.state.validation.strategies["lookup-table"]
    assert lookup.default_policy == "replicate"
    assert run.plan().lookup_default_policy == "replicate"

    write_heavy = Workload("writes")
    rng = SeededRng(1)
    for _ in range(100):
        target = rng.randint(0, 99)
        write_heavy.add_statements(
            [UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", target))]
        )
    run = Pipeline(SchismOptions(num_partitions=2)).run(
        clustered_database, write_heavy
    )
    assert run.state.validation.strategies["lookup-table"].default_policy == "hash"
