"""Tests for the C4.5-style decision tree."""

import pytest

from repro.explain.dataset import LabeledSample
from repro.explain import decision_tree
from repro.explain.decision_tree import DecisionTree


def warehouse_samples(per_class: int = 50) -> list[LabeledSample]:
    """TPC-C style: partition label determined by the warehouse id."""
    samples = []
    for index in range(per_class):
        samples.append(LabeledSample({"w_id": 1, "i_id": index}, "1"))
        samples.append(LabeledSample({"w_id": 2, "i_id": index}, "0"))
    return samples


def test_learns_threshold_split():
    tree = DecisionTree().fit(warehouse_samples(), ["w_id", "i_id"])
    assert tree.predict({"w_id": 1, "i_id": 7}) == "1"
    assert tree.predict({"w_id": 2, "i_id": 7}) == "0"
    assert tree.accuracy(warehouse_samples()) == 1.0
    assert tree.depth == 1


def test_irrelevant_attribute_not_used():
    tree = DecisionTree().fit(warehouse_samples(), ["w_id", "i_id"])
    rules = tree.rules()
    used = {condition.attribute for rule in rules for condition in rule.conditions}
    assert used == {"w_id"}


def test_pure_dataset_single_leaf():
    samples = [LabeledSample({"x": i}, "7") for i in range(20)]
    tree = DecisionTree().fit(samples, ["x"])
    assert tree.leaf_count == 1
    assert tree.predict({"x": 100}) == "7"


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        DecisionTree().fit([], ["x"])


def test_categorical_split():
    samples = [LabeledSample({"region": "eu"}, "0") for _ in range(20)]
    samples += [LabeledSample({"region": "us"}, "1") for _ in range(20)]
    tree = DecisionTree().fit(samples, ["region"])
    assert tree.predict({"region": "eu"}) == "0"
    assert tree.predict({"region": "us"}) == "1"


def test_range_labels_multiway():
    samples = []
    for value in range(300):
        label = str(value // 100)
        samples.append(LabeledSample({"key": value}, label))
    tree = DecisionTree().fit(samples, ["key"])
    assert tree.predict({"key": 50}) == "0"
    assert tree.predict({"key": 150}) == "1"
    assert tree.predict({"key": 250}) == "2"


def test_missing_attribute_follows_heavier_branch():
    tree = DecisionTree().fit(warehouse_samples(), ["w_id"])
    # No attribute at all: prediction still returns a known label.
    assert tree.predict({}) in {"0", "1"}


def test_pruning_collapses_noise(monkeypatch):
    samples = []
    for index in range(200):
        label = "0" if index % 2 == 0 else "1"  # label independent of x
        samples.append(LabeledSample({"x": index % 7}, label))
    pruned = DecisionTree().fit(samples, ["x"])
    monkeypatch.setattr(decision_tree, "MIN_GAIN_RATIO", 0.0)
    monkeypatch.setattr(DecisionTree, "_prune", lambda self, node: None)
    unpruned = DecisionTree().fit(samples, ["x"])
    assert pruned.leaf_count <= unpruned.leaf_count


def test_max_depth_respected(monkeypatch):
    monkeypatch.setattr(decision_tree, "MAX_DEPTH", 2)
    samples = [LabeledSample({"x": i}, str(i % 4)) for i in range(64)]
    tree = DecisionTree().fit(samples, ["x"])
    assert tree.depth <= 2


def test_rules_have_support_and_error():
    tree = DecisionTree().fit(warehouse_samples(10), ["w_id"])
    for rule in tree.rules():
        assert rule.support > 0
        assert 0.0 <= rule.error_rate <= 1.0


def test_to_text_mentions_partitions():
    tree = DecisionTree().fit(warehouse_samples(10), ["w_id"])
    text = tree.to_text()
    assert "partition" in text
    assert "w_id" in text
