"""Predicate evaluation and analysis.

Two consumers drive this module:

* the explanation phase and the router analyse WHERE clauses structurally —
  which attributes are referenced and with which operators/values
  (:func:`referenced_attributes`, :func:`conjunctive_conditions`);
* the tests evaluate WHERE clauses against rows in Python
  (:func:`evaluate_predicate`): a brute-force oracle, independent of SQL,
  for the read/write sets the Database computes on SQLite.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.sqlparse.ast import (
    And,
    ColumnRef,
    Comparison,
    DeleteStatement,
    InsertStatement,
    JoinCondition,
    Or,
    Predicate,
    SelectStatement,
    Statement,
    UpdateStatement,
)


@dataclass(frozen=True)
class AttributeCondition:
    """A single attribute restriction extracted from a WHERE clause."""

    table: str | None
    column: str
    operator: str
    value: object = None
    values: tuple[object, ...] = ()
    low: object = None
    high: object = None

    @classmethod
    def from_comparison(cls, comparison: Comparison) -> "AttributeCondition":
        """Build from a :class:`Comparison` AST node."""
        return cls(
            table=comparison.column.table,
            column=comparison.column.name,
            operator=comparison.operator,
            value=comparison.value,
            values=comparison.values,
            low=comparison.low,
            high=comparison.high,
        )

    def candidate_values(self) -> tuple[object, ...]:
        """Values usable for equality-based routing (``=`` and ``IN`` only)."""
        if self.operator == "=":
            return (self.value,)
        if self.operator == "in":
            return self.values
        return ()


def evaluate_predicate(predicate: Predicate | None, row: Mapping[str, object]) -> bool:
    """Evaluate ``predicate`` against a row mapping column names to values.

    Join conditions are evaluated by looking up both column names in the same
    mapping (a joined row carries ``table.column`` keys as well as plain
    column names); missing columns make the comparison false rather than raising
    so that the same predicate can be evaluated against rows of either joined
    table.
    """
    if predicate is None:
        return True
    if isinstance(predicate, And):
        return all(evaluate_predicate(child, row) for child in predicate.children)
    if isinstance(predicate, Or):
        return any(evaluate_predicate(child, row) for child in predicate.children)
    if isinstance(predicate, JoinCondition):
        left = _lookup(row, predicate.left)
        right = _lookup(row, predicate.right)
        if left is _MISSING or right is _MISSING:
            return False
        return left == right
    if isinstance(predicate, Comparison):
        return _evaluate_comparison(predicate, row)
    raise TypeError(f"unsupported predicate node {type(predicate).__name__}")


class _Missing:
    """Sentinel for a column not present in the row under evaluation."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


def _lookup(row: Mapping[str, object], column: ColumnRef) -> object:
    if column.table is not None:
        qualified = f"{column.table}.{column.name}"
        if qualified in row:
            return row[qualified]
    if column.name in row:
        return row[column.name]
    return _MISSING


def _evaluate_comparison(comparison: Comparison, row: Mapping[str, object]) -> bool:
    actual = _lookup(row, comparison.column)
    if actual is _MISSING:
        return False
    operator = comparison.operator
    if operator == "=":
        return actual == comparison.value
    if operator == "<>":
        return actual != comparison.value
    if operator == "<":
        return actual < comparison.value  # type: ignore[operator]
    if operator == "<=":
        return actual <= comparison.value  # type: ignore[operator]
    if operator == ">":
        return actual > comparison.value  # type: ignore[operator]
    if operator == ">=":
        return actual >= comparison.value  # type: ignore[operator]
    if operator == "between":
        return comparison.low <= actual <= comparison.high  # type: ignore[operator]
    if operator == "in":
        return actual in comparison.values
    raise ValueError(f"unsupported operator {operator!r}")


def iter_comparisons(predicate: Predicate | None) -> Iterator[Comparison]:
    """Yield every :class:`Comparison` in ``predicate`` (any nesting)."""
    if predicate is None:
        return
    if isinstance(predicate, Comparison):
        yield predicate
    elif isinstance(predicate, (And, Or)):
        for child in predicate.children:
            yield from iter_comparisons(child)


def iter_join_conditions(predicate: Predicate | None) -> Iterator[JoinCondition]:
    """Yield every :class:`JoinCondition` in ``predicate``."""
    if predicate is None:
        return
    if isinstance(predicate, JoinCondition):
        yield predicate
    elif isinstance(predicate, (And, Or)):
        for child in predicate.children:
            yield from iter_join_conditions(child)


def conjunctive_conditions(predicate: Predicate | None) -> list[AttributeCondition]:
    """Return attribute conditions that hold for *every* matching row.

    Only comparisons reachable through conjunctions are returned; comparisons
    under an OR are skipped because they do not constrain all matching rows.
    This is what the router can safely use to narrow the destination
    partitions of a statement.
    """
    conditions: list[AttributeCondition] = []
    _collect_conjunctive(predicate, conditions)
    return conditions


def _collect_conjunctive(predicate: Predicate | None, out: list[AttributeCondition]) -> None:
    if predicate is None or isinstance(predicate, (Or, JoinCondition)):
        return
    if isinstance(predicate, Comparison):
        out.append(AttributeCondition.from_comparison(predicate))
        return
    if isinstance(predicate, And):
        for child in predicate.children:
            _collect_conjunctive(child, out)


def key_recipe(
    comparisons: Iterable[tuple[str, str, int, int]], columns: Sequence[str]
) -> Callable[[Sequence[object]], list[tuple[object, ...]]] | None:
    """The rule for "which keys can this statement touch", as a recipe.

    Each comparison is ``(column, operator, start, count)``: its values are
    ``values[start:start + count]`` of the sequence the recipe is applied to.
    A column is pinned by an ``=`` or non-empty ``IN`` comparison on it, the
    last one winning.  Returns ``None`` when any of ``columns`` is left
    unpinned, else a function of the values giving the cross product of the
    pinned values in ``columns`` order.  :func:`pinned_values` applies it to
    attribute conditions; statement shapes (:mod:`repro.sqlparse.shape`)
    build it once per shape and apply it to each statement's bind values.
    """
    pins: dict[str, tuple[int, int]] = {}
    for column, operator, start, count in comparisons:
        if count and operator in ("=", "in") and column in columns:
            pins[column] = (start, start + count)
    if any(column not in pins for column in columns):
        return None
    slices = [pins[column] for column in columns]
    if columns and all(stop - start == 1 for start, stop in slices):
        # Every column is pinned by one value: one key.
        if len(columns) == 1:
            position = slices[0][0]
            return lambda values: [(values[position],)]
        key_of = itemgetter(*(start for start, _ in slices))
        return lambda values: [key_of(values)]

    def cross(values: Sequence[object]) -> list[tuple[object, ...]]:
        pinned: list[tuple[object, ...]] = [()]
        for start, stop in slices:
            pinned = [prefix + (value,) for prefix in pinned for value in values[start:stop]]
        return pinned

    return cross


def pinned_values(
    conditions: Iterable[AttributeCondition], columns: Sequence[str]
) -> list[tuple[object, ...]] | None:
    """Every value tuple over ``columns`` that ``conditions`` admit, or ``None``.

    Applies :func:`key_recipe` to the conditions of one table
    (:func:`conjunctive_conditions`, filtered); the partitioning strategies
    use it to hash or range-route a statement by its conditions.
    """
    values: list[object] = []
    comparisons = []
    for condition in conditions:
        candidates = condition.candidate_values()
        comparisons.append((condition.column, condition.operator, len(values), len(candidates)))
        values.extend(candidates)
    recipe = key_recipe(comparisons, columns)
    return None if recipe is None else recipe(values)


def statement_where(statement: Statement) -> Predicate | None:
    """Return the WHERE predicate of a statement (None for INSERT)."""
    if isinstance(statement, (SelectStatement, UpdateStatement, DeleteStatement)):
        return statement.where
    return None


def referenced_attributes(statement: Statement) -> list[tuple[str | None, str]]:
    """Return ``(table, column)`` pairs referenced in the statement's WHERE clause.

    INSERT statements contribute their column list since inserts are routed by
    the values being inserted.  Used by the frequent-attribute-set analysis of
    the explanation phase (Section 4.3 of the paper).
    """
    if isinstance(statement, InsertStatement):
        return [(statement.table, column) for column in statement.row]
    attributes: list[tuple[str | None, str]] = []
    where = statement_where(statement)
    for comparison in iter_comparisons(where):
        attributes.append((comparison.column.table, comparison.column.name))
    for join in iter_join_conditions(where):
        attributes.append((join.left.table, join.left.name))
        attributes.append((join.right.table, join.right.name))
    return attributes
