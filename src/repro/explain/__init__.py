"""The explanation phase: turn a per-tuple partitioning into range predicates.

Mirrors Sections 4.3 and 5.2 of the paper: build a training set of
``(tuple attributes, partition label)`` pairs, keep only attributes that are
frequently used in WHERE clauses and correlated with the label, train a
C4.5-style decision tree, and read the tree back as range-predicate rules.
"""

from repro.explain.dataset import Dataset, LabeledSample, build_training_sets
from repro.explain.decision_tree import DecisionTree
from repro.explain.feature_selection import select_attributes, symmetrical_uncertainty
from repro.explain.rules import PredicateRule, RuleCondition, RuleSet
from repro.explain.crossval import cross_validate
from repro.explain.explainer import Explainer, ExplainerOptions, Explanation, TableExplanation

__all__ = [
    "Dataset",
    "DecisionTree",
    "Explainer",
    "ExplainerOptions",
    "Explanation",
    "LabeledSample",
    "PredicateRule",
    "RuleCondition",
    "RuleSet",
    "TableExplanation",
    "build_training_sets",
    "cross_validate",
    "select_attributes",
    "symmetrical_uncertainty",
]
