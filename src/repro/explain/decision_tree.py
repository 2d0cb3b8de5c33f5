"""A C4.5-style decision-tree classifier.

Stands in for Weka's J48 in the paper.  Features:

* binary splits on numeric attributes (``attr <= threshold``), chosen by gain
  ratio over candidate thresholds;
* binary equality splits on categorical (string) attributes;
* stopping rules (purity, maximum depth, minimum gain);
* pessimistic error pruning with the C4.5 confidence-factor upper bound,
  which is the "aggressive pruning" the paper relies on to avoid over-fitting;
* rule extraction (root-to-leaf paths) used by the explanation phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.explain.dataset import LabeledSample
from repro.explain.rules import PredicateRule, RuleCondition

#: C4.5 pruning confidence factor (Quinlan's default); smaller prunes more
#: aggressively.
PRUNING_CONFIDENCE = 0.25
#: cap on the number of candidate thresholds evaluated per numeric attribute.
MAX_THRESHOLDS = 64
#: depth limit of the tree.
MAX_DEPTH = 12
#: a split below this gain ratio makes a leaf.
MIN_GAIN_RATIO = 1e-3


@dataclass
class _Node:
    """Internal tree node (leaf when ``attribute`` is None)."""

    label: str
    sample_count: int
    error_count: int
    attribute: str | None = None
    threshold: object = None
    categorical: bool = False
    left: "_Node | None" = None
    right: "_Node | None" = None
    label_counts: dict[str, int] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


class DecisionTree:
    """Decision-tree classifier with C4.5-style training and pruning."""

    def __init__(self) -> None:
        self._root: _Node | None = None
        self.attribute_names: tuple[str, ...] = ()

    # -- training ----------------------------------------------------------------------
    def fit(self, samples: Sequence[LabeledSample], attribute_names: Sequence[str]) -> "DecisionTree":
        """Train on ``samples`` using the given candidate attributes."""
        if not samples:
            raise ValueError("cannot fit a decision tree on an empty dataset")
        self.attribute_names = tuple(attribute_names)
        self._root = self._build(list(samples), depth=0)
        self._prune(self._root)
        return self

    def _build(self, samples: list[LabeledSample], depth: int) -> _Node:
        label_counts = _label_counts(samples)
        majority = _majority_label(label_counts)
        node = _Node(
            label=majority,
            sample_count=len(samples),
            error_count=len(samples) - label_counts[majority],
            label_counts=label_counts,
        )
        if len(label_counts) == 1 or depth >= MAX_DEPTH:
            return node
        split = self._best_split(samples)
        if split is None:
            return node
        attribute, threshold, categorical, gain_ratio = split
        if gain_ratio < MIN_GAIN_RATIO:
            return node
        left_samples, right_samples = _partition_samples(samples, attribute, threshold, categorical)
        node.attribute = attribute
        node.threshold = threshold
        node.categorical = categorical
        node.left = self._build(left_samples, depth + 1)
        node.right = self._build(right_samples, depth + 1)
        return node

    def _best_split(
        self, samples: list[LabeledSample]
    ) -> tuple[str, object, bool, float] | None:
        base_entropy = _entropy(_label_counts(samples).values(), len(samples))
        best: tuple[str, object, bool, float] | None = None
        for attribute in self.attribute_names:
            values = [sample.attributes.get(attribute) for sample in samples]
            if all(value is None for value in values):
                continue
            numeric = all(isinstance(value, (int, float)) for value in values)
            if numeric:
                candidates = self._numeric_thresholds(values)
                categorical = False
            else:
                candidates = sorted({str(value) for value in values})
                categorical = True
            for threshold in candidates:
                gain_ratio = _gain_ratio(samples, attribute, threshold, categorical, base_entropy)
                if gain_ratio is None:
                    continue
                if best is None or gain_ratio > best[3] + 1e-12:
                    best = (attribute, threshold, categorical, gain_ratio)
        return best

    def _numeric_thresholds(self, values: list[object]) -> list[float]:
        distinct = sorted({float(value) for value in values if value is not None})
        if len(distinct) < 2:
            return []
        midpoints = [
            (distinct[index] + distinct[index + 1]) / 2.0 for index in range(len(distinct) - 1)
        ]
        if len(midpoints) > MAX_THRESHOLDS:
            step = len(midpoints) / MAX_THRESHOLDS
            midpoints = [midpoints[int(index * step)] for index in range(MAX_THRESHOLDS)]
        return midpoints

    # -- pruning -----------------------------------------------------------------------
    def _prune(self, node: _Node) -> None:
        """Bottom-up pessimistic pruning (C4.5 upper-confidence error estimate)."""
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        self._prune(node.left)
        self._prune(node.right)
        subtree_error = self._subtree_estimated_error(node)
        leaf_error = _pessimistic_error(node.sample_count, node.error_count)
        if leaf_error <= subtree_error + 0.1:
            node.attribute = None
            node.threshold = None
            node.left = None
            node.right = None

    def _subtree_estimated_error(self, node: _Node) -> float:
        if node.is_leaf:
            return _pessimistic_error(node.sample_count, node.error_count)
        assert node.left is not None and node.right is not None
        return self._subtree_estimated_error(node.left) + self._subtree_estimated_error(node.right)

    # -- prediction -----------------------------------------------------------------------
    def predict(self, attributes: dict[str, object]) -> str:
        """Predict the label for a single attribute mapping."""
        if self._root is None:
            raise RuntimeError("the tree has not been fitted")
        node = self._root
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            value = attributes.get(node.attribute)
            if value is None:
                # Missing attribute: follow the heavier branch.
                node = node.left if node.left.sample_count >= node.right.sample_count else node.right
                continue
            node = node.left if _goes_left(value, node.threshold, node.categorical) else node.right
        return node.label

    def accuracy(self, samples: Sequence[LabeledSample]) -> float:
        """Fraction of ``samples`` classified correctly."""
        if not samples:
            return 1.0
        correct = sum(1 for sample in samples if self.predict(sample.attributes) == sample.label)
        return correct / len(samples)

    # -- introspection -----------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Depth of the tree (0 for a single leaf)."""
        return self._depth_of(self._root) if self._root is not None else 0

    def _depth_of(self, node: _Node | None) -> int:
        if node is None or node.is_leaf:
            return 0
        return 1 + max(self._depth_of(node.left), self._depth_of(node.right))

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return self._count_leaves(self._root) if self._root is not None else 0

    def _count_leaves(self, node: _Node | None) -> int:
        if node is None:
            return 0
        if node.is_leaf:
            return 1
        return self._count_leaves(node.left) + self._count_leaves(node.right)

    def rules(self) -> list[PredicateRule]:
        """Extract root-to-leaf paths as predicate rules."""
        if self._root is None:
            raise RuntimeError("the tree has not been fitted")
        rules: list[PredicateRule] = []
        self._collect_rules(self._root, [], rules)
        return rules

    def _collect_rules(
        self, node: _Node, conditions: list[RuleCondition], out: list[PredicateRule]
    ) -> None:
        if node.is_leaf:
            error_rate = node.error_count / node.sample_count if node.sample_count else 0.0
            out.append(
                PredicateRule(tuple(conditions), node.label, node.sample_count, error_rate)
            )
            return
        assert node.left is not None and node.right is not None
        if node.categorical:
            left_condition = RuleCondition(node.attribute, "=", node.threshold)
            right_condition = RuleCondition(node.attribute, "<>", node.threshold)
        else:
            left_condition = RuleCondition(node.attribute, "<=", node.threshold)
            right_condition = RuleCondition(node.attribute, ">", node.threshold)
        self._collect_rules(node.left, conditions + [left_condition], out)
        self._collect_rules(node.right, conditions + [right_condition], out)

    def to_text(self) -> str:
        """Human-readable rendering of the tree (similar to Weka's output)."""
        if self._root is None:
            return "<unfitted>"
        lines: list[str] = []
        self._render(self._root, "", lines)
        return "\n".join(lines)

    def _render(self, node: _Node, indent: str, lines: list[str]) -> None:
        if node.is_leaf:
            error = node.error_count / node.sample_count if node.sample_count else 0.0
            lines.append(f"{indent}-> partition: {node.label} (error: {error:.2%}, n={node.sample_count})")
            return
        assert node.left is not None and node.right is not None
        operator = "=" if node.categorical else "<="
        lines.append(f"{indent}{node.attribute} {operator} {node.threshold}:")
        self._render(node.left, indent + "  ", lines)
        negated = "<>" if node.categorical else ">"
        lines.append(f"{indent}{node.attribute} {negated} {node.threshold}:")
        self._render(node.right, indent + "  ", lines)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _label_counts(samples: Sequence[LabeledSample]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for sample in samples:
        counts[sample.label] = counts.get(sample.label, 0) + 1
    return counts


def _majority_label(counts: dict[str, int]) -> str:
    best = max(counts.values())
    return sorted(label for label, count in counts.items() if count == best)[0]


def _entropy(counts, total: int) -> float:
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count > 0:
            probability = count / total
            entropy -= probability * math.log2(probability)
    return entropy


def _goes_left(value: object, threshold: object, categorical: bool) -> bool:
    if categorical:
        return str(value) == threshold
    try:
        return float(value) <= float(threshold)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False


def _partition_samples(
    samples: list[LabeledSample], attribute: str, threshold: object, categorical: bool
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    left: list[LabeledSample] = []
    right: list[LabeledSample] = []
    for sample in samples:
        value = sample.attributes.get(attribute)
        if value is not None and _goes_left(value, threshold, categorical):
            left.append(sample)
        else:
            right.append(sample)
    return left, right


def _gain_ratio(
    samples: list[LabeledSample],
    attribute: str,
    threshold: object,
    categorical: bool,
    base_entropy: float,
) -> float | None:
    left, right = _partition_samples(samples, attribute, threshold, categorical)
    total = len(samples)
    if not left or not right:
        return None
    left_entropy = _entropy(_label_counts(left).values(), len(left))
    right_entropy = _entropy(_label_counts(right).values(), len(right))
    information_gain = base_entropy - (
        len(left) / total * left_entropy + len(right) / total * right_entropy
    )
    split_info = _entropy([len(left), len(right)], total)
    if split_info <= 1e-12:
        return None
    return information_gain / split_info


def _pessimistic_error(sample_count: int, error_count: int) -> float:
    """C4.5 upper bound on the true error count of a leaf.

    Uses the normal approximation to the binomial confidence interval at
    :data:`PRUNING_CONFIDENCE`.
    """
    if sample_count == 0:
        return 0.0
    z = _normal_quantile(1.0 - PRUNING_CONFIDENCE)
    observed = error_count / sample_count
    numerator = (
        observed
        + z * z / (2 * sample_count)
        + z * math.sqrt(observed / sample_count - observed * observed / sample_count + z * z / (4 * sample_count * sample_count))
    )
    upper = numerator / (1 + z * z / sample_count)
    return upper * sample_count


def _normal_quantile(probability: float) -> float:
    """Inverse CDF of the standard normal (Acklam's rational approximation)."""
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be in (0, 1)")
    # Coefficients for the central region approximation.
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low = 0.02425
    if probability < p_low:
        q = math.sqrt(-2 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if probability > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - probability))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = probability - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )
