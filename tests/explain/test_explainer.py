"""Tests for the explanation phase orchestrator."""

from repro.catalog.tuples import TupleId
from repro.explain.crossval import cross_validate
from repro.explain.dataset import LabeledSample, build_training_sets
from repro.explain.explainer import Explainer, ExplainerOptions
from repro.graph.assignment import PartitionAssignment
from repro.sqlparse.ast import SelectStatement, eq
from repro.workload.trace import Workload


def warehouse_assignment(database) -> PartitionAssignment:
    """Label every account by balance: cheap accounts on 0, expensive on 1."""
    assignment = PartitionAssignment(2)
    for tuple_id in database.all_tuple_ids("account"):
        row = database.get_row(tuple_id)
        assignment.assign(tuple_id, {0 if row["bal"] < 70_000 else 1})
    return assignment


def id_workload() -> Workload:
    workload = Workload("w")
    for account_id in range(1, 6):
        workload.add_statements([SelectStatement(("account",), where=eq("id", account_id))])
        workload.add_statements([SelectStatement(("account",), where=eq("bal", account_id))])
    return workload


def test_build_training_sets(bank_database):
    assignment = warehouse_assignment(bank_database)
    datasets = build_training_sets(assignment, bank_database, {"account": ("id", "bal")})
    assert "account" in datasets
    dataset = datasets["account"]
    assert len(dataset) == 5
    assert set(dataset.labels) == {"0", "1"}


def test_build_training_sets_respects_cap(bank_database):
    assignment = warehouse_assignment(bank_database)
    datasets = build_training_sets(
        assignment, bank_database, {"account": ("id",)}, max_samples_per_table=2
    )
    assert len(datasets["account"]) == 2


def test_explainer_produces_rules_on_bank(bank_database):
    assignment = warehouse_assignment(bank_database)
    explanation = Explainer(ExplainerOptions(min_attribute_frequency=0.05)).explain(
        assignment, bank_database, id_workload()
    )
    assert "account" in explanation.tables
    table_explanation = explanation.tables["account"]
    assert table_explanation.training_samples == 5
    # The balance attribute separates the two partitions perfectly.
    rule_set = table_explanation.rule_set
    assert rule_set.partitions_for_row({"bal": 10_000, "id": 5}) == frozenset({0})
    assert rule_set.partitions_for_row({"bal": 120_000, "id": 3}) == frozenset({1})
    assert "account" in explanation.describe()


def test_explainer_trivial_table(bank_database):
    assignment = PartitionAssignment(2)
    for tuple_id in bank_database.all_tuple_ids("account"):
        assignment.assign(tuple_id, {0, 1})
    explanation = Explainer(ExplainerOptions(min_attribute_frequency=0.05)).explain(
        assignment, bank_database, id_workload()
    )
    rule_set = explanation.tables["account"].rule_set
    assert rule_set.is_trivial
    assert rule_set.partitions_for_row({"id": 1}) == frozenset({0, 1})


def test_cross_validate_reasonable_accuracy():
    samples = [LabeledSample({"x": i}, "0" if i < 50 else "1") for i in range(100)]
    accuracy = cross_validate(samples, ["x"])
    assert accuracy > 0.9


def test_cross_validate_small_dataset_falls_back():
    samples = [LabeledSample({"x": i}, str(i % 2)) for i in range(4)]
    accuracy = cross_validate(samples, ["x"])
    assert 0.0 <= accuracy <= 1.0
