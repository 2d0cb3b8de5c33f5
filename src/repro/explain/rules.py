"""Predicate rules extracted from the decision tree.

A :class:`PredicateRule` is a conjunction of attribute conditions mapping to a
partition label (``"0"``, ``"1"``, ... or a replication label such as
``"R0_2"``).  A :class:`RuleSet` bundles the rules for one table together with
a default label for tuples no rule matches, and can classify a row — this is
what the range-predicate partitioning strategy evaluates at routing time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence


_ORDERINGS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class RuleCondition:
    """One attribute condition: ``attribute <op> value``."""

    attribute: str
    operator: str
    value: object

    def __post_init__(self) -> None:
        if self.operator not in ("<=", ">", "<", ">=", "=", "<>"):
            raise ValueError(f"unsupported rule operator {self.operator!r}")
        # Resolved once: rules are evaluated per routed statement.
        try:
            bound = float(self.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            bound = None
        object.__setattr__(self, "_ordering", _ORDERINGS.get(self.operator))
        object.__setattr__(self, "_bound", bound)

    def matches(self, row: Mapping[str, object]) -> bool:
        """Evaluate the condition against a row mapping."""
        if self.attribute not in row:
            return False
        actual = row[self.attribute]
        ordering = self._ordering
        if ordering is None:
            equal = _as_comparable(actual) == _as_comparable(self.value)
            return equal if self.operator == "=" else not equal
        if self._bound is None:
            return False
        try:
            return ordering(float(actual), self._bound)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    def __str__(self) -> str:
        return f"{self.attribute} {self.operator} {self.value}"


def _as_comparable(value: object) -> object:
    """Coerce numeric types to float so 1 and 1.0 compare equal; strings stay strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return str(value)


@dataclass(frozen=True)
class PredicateRule:
    """A conjunction of conditions leading to a partition label."""

    conditions: tuple[RuleCondition, ...]
    label: str
    support: int = 0
    error_rate: float = 0.0

    def matches(self, row: Mapping[str, object]) -> bool:
        """Whether all conditions hold for ``row``."""
        return all(condition.matches(row) for condition in self.conditions)

    def partitions(self) -> frozenset[int]:
        """Decode the label into a set of partition ids."""
        return decode_label(self.label)

    def __str__(self) -> str:
        if not self.conditions:
            clause = "<empty>"
        else:
            clause = " AND ".join(str(condition) for condition in self.conditions)
        return f"{clause}: partition {self.label} (error {self.error_rate:.2%}, n={self.support})"


def decode_label(label: str) -> frozenset[int]:
    """Decode a partition label into the set of partition ids it denotes.

    ``"3"`` -> ``{3}``; ``"R0_2"`` -> ``{0, 2}``.
    """
    if label.startswith("R"):
        parts = label[1:].split("_")
        return frozenset(int(part) for part in parts if part != "")
    return frozenset({int(label)})


@dataclass
class RuleSet:
    """All rules for one table plus a default label for unmatched rows."""

    table: str
    rules: tuple[PredicateRule, ...]
    default_label: str
    attributes: tuple[str, ...] = ()

    def classify(self, row: Mapping[str, object]) -> str:
        """Return the label of the first matching rule (rules are exclusive paths)."""
        for rule in self.rules:
            for condition in rule.conditions:
                if not condition.matches(row):
                    break
            else:
                return rule.label
        return self.default_label

    def partitions_for_row(self, row: Mapping[str, object]) -> frozenset[int]:
        """Partition set of the first matching rule (or the default)."""
        return decode_label(self.classify(row))

    @property
    def is_trivial(self) -> bool:
        """True when every row maps to the same single label."""
        labels = {rule.label for rule in self.rules} | {self.default_label}
        return len(labels) == 1

    def describe(self) -> str:
        """Multi-line human-readable description (similar to the paper's listings)."""
        lines = [f"table {self.table} (attributes: {', '.join(self.attributes) or '-'})"]
        for rule in self.rules:
            lines.append(f"  {rule}")
        lines.append(f"  otherwise: partition {self.default_label}")
        return "\n".join(lines)


def rule_set_to_payload(rule_set: RuleSet) -> dict:
    """JSON-serialisable form of a rule set (used by ``PartitionPlan.save``).

    Rule order is preserved — rules are exclusive decision-tree paths, but
    :meth:`RuleSet.classify` returns the *first* match, so order is part of
    the semantics.
    """
    return {
        "table": rule_set.table,
        "default_label": rule_set.default_label,
        "attributes": list(rule_set.attributes),
        "rules": [
            {
                "label": rule.label,
                "support": rule.support,
                "error_rate": rule.error_rate,
                "conditions": [
                    [condition.attribute, condition.operator, condition.value]
                    for condition in rule.conditions
                ],
            }
            for rule in rule_set.rules
        ],
    }


def rule_set_from_payload(payload: dict) -> RuleSet:
    """Inverse of :func:`rule_set_to_payload`."""
    rules = tuple(
        PredicateRule(
            conditions=tuple(
                RuleCondition(attribute, operator, value)
                for attribute, operator, value in rule["conditions"]
            ),
            label=rule["label"],
            support=int(rule.get("support", 0)),
            error_rate=float(rule.get("error_rate", 0.0)),
        )
        for rule in payload["rules"]
    )
    return RuleSet(
        table=payload["table"],
        rules=rules,
        default_label=payload["default_label"],
        attributes=tuple(payload.get("attributes", ())),
    )


def simplify_rules(rules: Sequence[PredicateRule]) -> list[PredicateRule]:
    """Merge redundant conditions within each rule.

    Decision-tree paths routinely contain several conditions on the same
    attribute (e.g. ``w_id <= 5 AND w_id <= 3 AND w_id > 1``); this keeps only
    the tightest bound per (attribute, direction) and drops duplicated
    equality conditions, producing the compact ranges shown in the paper.
    """
    simplified: list[PredicateRule] = []
    for rule in rules:
        upper: dict[str, RuleCondition] = {}
        lower: dict[str, RuleCondition] = {}
        others: list[RuleCondition] = []
        for condition in rule.conditions:
            if condition.operator in ("<=", "<"):
                current = upper.get(condition.attribute)
                if current is None or _bound_value(condition) < _bound_value(current):
                    upper[condition.attribute] = condition
            elif condition.operator in (">", ">="):
                current = lower.get(condition.attribute)
                if current is None or _bound_value(condition) > _bound_value(current):
                    lower[condition.attribute] = condition
            else:
                if condition not in others:
                    others.append(condition)
        merged = tuple(others) + tuple(lower.values()) + tuple(upper.values())
        simplified.append(PredicateRule(merged, rule.label, rule.support, rule.error_rate))
    return simplified


def _bound_value(condition: RuleCondition) -> float:
    try:
        return float(condition.value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
