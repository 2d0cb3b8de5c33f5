"""AST node definitions for the mini-SQL dialect.

These dataclasses are the canonical statement representation used throughout
the library.  Workload generators construct them directly; the parser in
:mod:`repro.sqlparse.parser` builds them from SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """Reference to a column, optionally qualified with a table name."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


#: Comparison operators supported in WHERE clauses.
COMPARISON_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")
#: every operator a :class:`Comparison` accepts (built once, not per node).
_VALID_OPERATORS = frozenset(COMPARISON_OPERATORS) | {"between", "in"}


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal`` or ``column BETWEEN low AND high`` (op='between')
    or ``column IN (v1, ..., vn)`` (op='in')."""

    column: ColumnRef
    operator: str
    value: object = None
    values: tuple[object, ...] = ()
    low: object = None
    high: object = None

    def __post_init__(self) -> None:
        if self.operator not in _VALID_OPERATORS:
            raise ValueError(f"unsupported comparison operator {self.operator!r}")

    def __str__(self) -> str:
        if self.operator == "between":
            return f"{self.column} BETWEEN {self.low!r} AND {self.high!r}"
        if self.operator == "in":
            inner = ", ".join(repr(v) for v in self.values)
            return f"{self.column} IN ({inner})"
        return f"{self.column} {self.operator} {self.value!r}"


@dataclass(frozen=True)
class JoinCondition:
    """Equality between columns of two tables: ``a.x = b.y``."""

    left: ColumnRef
    right: ColumnRef

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class And:
    """Conjunction of predicates."""

    children: tuple["Predicate", ...]

    def __str__(self) -> str:
        return " AND ".join(f"({child})" for child in self.children)


@dataclass(frozen=True)
class Or:
    """Disjunction of predicates."""

    children: tuple["Predicate", ...]

    def __str__(self) -> str:
        return " OR ".join(f"({child})" for child in self.children)


Predicate = Union[Comparison, JoinCondition, And, Or]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectStatement:
    """``SELECT columns FROM tables [WHERE predicate] [LIMIT n]``.

    ``columns`` empty means ``*``.  Multiple tables express an (implicit)
    join; the join condition lives in the predicate.
    """

    tables: tuple[str, ...]
    columns: tuple[ColumnRef, ...] = ()
    where: Predicate | None = None
    limit: int | None = None

    @property
    def is_join(self) -> bool:
        """Whether the statement reads from more than one table."""
        return len(self.tables) > 1

    def __str__(self) -> str:
        columns = ", ".join(str(column) for column in self.columns) if self.columns else "*"
        text = f"SELECT {columns} FROM {', '.join(self.tables)}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table (columns) VALUES (values)``."""

    table: str
    row: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        columns = ", ".join(self.row)
        values = ", ".join(repr(value) for value in self.row.values())
        return f"INSERT INTO {self.table} ({columns}) VALUES ({values})"


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET assignments [WHERE predicate]``.

    Assignment values are either literals or ``("delta", amount)`` tuples
    expressing the common ``SET col = col + amount`` OLTP idiom.
    """

    table: str
    assignments: Mapping[str, object] = field(default_factory=dict)
    where: Predicate | None = None

    def __str__(self) -> str:
        parts = []
        for column, value in self.assignments.items():
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "delta":
                parts.append(f"{column} = {column} + {value[1]!r}")
            else:
                parts.append(f"{column} = {value!r}")
        text = f"UPDATE {self.table} SET {', '.join(parts)}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table [WHERE predicate]``."""

    table: str
    where: Predicate | None = None

    def __str__(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


Statement = Union[SelectStatement, InsertStatement, UpdateStatement, DeleteStatement]


def statement_tables(statement: Statement) -> tuple[str, ...]:
    """Return the tables touched by ``statement``."""
    if isinstance(statement, SelectStatement):
        return statement.tables
    return (statement.table,)


def is_write(statement: Statement) -> bool:
    """Return whether the statement modifies data."""
    return isinstance(statement, (InsertStatement, UpdateStatement, DeleteStatement))


def eq(column: str, value: object, table: str | None = None) -> Comparison:
    """Shorthand for an equality comparison (heavily used by generators)."""
    return Comparison(ColumnRef(column, table), "=", value)


def between(column: str, low: object, high: object, table: str | None = None) -> Comparison:
    """Shorthand for a BETWEEN comparison."""
    return Comparison(ColumnRef(column, table), "between", low=low, high=high)


def in_list(column: str, values: Sequence[object], table: str | None = None) -> Comparison:
    """Shorthand for an IN comparison."""
    return Comparison(ColumnRef(column, table), "in", values=tuple(values))


def conj(*predicates: Predicate) -> Predicate:
    """Combine predicates with AND, flattening single elements."""
    flat = tuple(predicate for predicate in predicates if predicate is not None)
    if not flat:
        raise ValueError("conj requires at least one predicate")
    if len(flat) == 1:
        return flat[0]
    return And(flat)
