"""Statement shapes: each distinct shape is analysed once per process.

A statement's *shape* is the statement with its literals taken out: its
kind, its table(s) and column lists, ``LIMIT``, the AND/OR tree of its WHERE
clause with each comparison's column and operator, and each ``IN`` list's
length.  OLTP workloads run many statements of few shapes (the 800 live
transactions of a ``tpcc_e2e`` serving round: 18 897 statements, 22
shapes), so what depends only on the shape is derived once, the first time
the shape is seen, and kept for the life of the process:

* the parameterised SQLite text — values always travel as bind parameters,
  so SQLite's statement cache hits too;
* the *conjunctive* comparisons (reachable through ANDs only, so they hold
  for every matching row), each with the positions of its values among the
  bind values.  An INSERT's columns count as ``=`` comparisons on its table;
* per table and primary key, the key recipe
  (:func:`~repro.sqlparse.predicates.key_recipe`, the rule
  :func:`~repro.sqlparse.predicates.pinned_values` also applies): the last
  ``=`` or non-empty ``IN`` on each key column wins, and the keys are the
  cross product of their values in key-column order.

:func:`analyse` is the one walk each statement gets: it returns the shape
and the statement's bind values in SQL order.  The router, the SQL compiler
and the Database all start from it.  The ``sqlparse.shapes`` counter (label
``kind``) counts the distinct shapes each metrics registry sees: a shape is
counted again when it is met under a registry other than the one that last
counted it, so a run's snapshot does not depend on what the process ran
before it.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.obs import get_telemetry
from repro.sqlparse.ast import (
    And,
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
from repro.sqlparse.predicates import AttributeCondition, key_recipe


class UnsupportedStatementError(ValueError):
    """The statement uses a construct the SQLite backend cannot compile."""


def quote_identifier(name: str) -> str:
    """Quote an identifier for SQLite (doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def _column_sql(table: str | None, name: str) -> str:
    if table:
        return f"{quote_identifier(table)}.{quote_identifier(name)}"
    return quote_identifier(name)


# -- the per-statement walk ----------------------------------------------------------
_AND, _OR, _JOIN = "and", "or", "join"


def _where_key(predicate: Predicate, values: list[object]) -> tuple:
    """Shape of a WHERE tree; appends its literals to ``values`` in SQL order.

    A comparison becomes ``(operator, table, column, value count)``, a join
    ``("join", left table, left column, right table, right column)``.
    """
    kind = type(predicate)
    if kind is Comparison:
        operator = predicate.operator
        if operator == "in":
            values.extend(predicate.values)
            count = len(predicate.values)
        elif operator == "between":
            values.append(predicate.low)
            values.append(predicate.high)
            count = 2
        else:
            values.append(predicate.value)
            count = 1
        column = predicate.column
        return (operator, column.table, column.name, count)
    if kind is And or kind is Or:
        tag = _AND if kind is And else _OR
        return (tag, *[_where_key(child, values) for child in predicate.children])
    if kind is JoinCondition:
        left, right = predicate.left, predicate.right
        return (_JOIN, left.table, left.name, right.table, right.name)
    raise UnsupportedStatementError(f"cannot compile predicate {predicate!r}")


def _select_key(statement: SelectStatement, values: list[object]) -> tuple:
    where = statement.where
    columns = statement.columns
    return (
        "select",
        statement.tables,
        tuple([(column.table, column.name) for column in columns]) if columns else (),
        statement.limit,
        None if where is None else _where_key(where, values),
    )


def _insert_key(statement: InsertStatement, values: list[object]) -> tuple:
    row = statement.row
    values.extend(row.values())
    return ("insert", statement.table, tuple(row))


def _update_key(statement: UpdateStatement, values: list[object]) -> tuple:
    assignments = []
    for column, value in statement.assignments.items():
        delta = isinstance(value, tuple) and len(value) == 2 and value[0] == "delta"
        values.append(value[1] if delta else value)
        assignments.append((column, delta))
    where = statement.where
    return (
        "update",
        statement.table,
        tuple(assignments),
        None if where is None else _where_key(where, values),
    )


def _delete_key(statement: DeleteStatement, values: list[object]) -> tuple:
    where = statement.where
    return ("delete", statement.table, None if where is None else _where_key(where, values))


_KEYS: dict[type, Callable[[Statement, list[object]], tuple]] = {
    SelectStatement: _select_key,
    InsertStatement: _insert_key,
    UpdateStatement: _update_key,
    DeleteStatement: _delete_key,
}


# -- what a shape keeps ----------------------------------------------------------------
#: a conjunctive comparison: (qualifier, column, operator, first value position, count).
_Condition = tuple[str | None, str, str, int, int]


def _where_sql(node: tuple, position: int, conditions: list[_Condition] | None) -> tuple[str, int]:
    """SQL of a WHERE shape whose first value binds at ``position``; returns it
    with the next position and appends the conjunctive comparisons to
    ``conditions`` (``None`` below an OR)."""
    tag = node[0]
    if tag == _JOIN:
        _, left_table, left, right_table, right = node
        return f"{_column_sql(left_table, left)} = {_column_sql(right_table, right)}", position
    if tag == _AND or tag == _OR:
        below = conditions if tag == _AND else None
        parts = []
        for child in node[1:]:
            child_sql, position = _where_sql(child, position, below)
            parts.append(f"({child_sql})")
        return (" AND " if tag == _AND else " OR ").join(parts), position
    operator, table, column, count = node
    if conditions is not None:
        conditions.append((table, column, operator, position, count))
    column_sql = _column_sql(table, column)
    if operator == "between":
        sql = f"{column_sql} BETWEEN ? AND ?"
    elif operator == "in":
        # An empty IN list matches nothing; SQLite has no literal for that,
        # so it becomes a constant-false predicate.
        sql = f"{column_sql} IN ({', '.join('?' * count)})" if count else "0 = 1"
    else:
        sql = f"{column_sql} {operator} ?"
    return sql, position + count


class StatementShape:
    """What every statement of one shape shares (see the module doc).

    ``sql`` is ``None`` for a shape SQLite cannot run (an INSERT without
    columns, an UPDATE without assignments); routing does not need it, and
    the Database refuses such an UPDATE.
    """

    __slots__ = (
        "kind", "tables", "columns", "write", "sql", "counted_by",
        "_conditions", "_by_table", "_recipes", "_projection", "_from", "_keyed",
    )

    def __init__(self, key: tuple) -> None:
        kind = key[0]
        self.kind: str = kind
        self.write: bool = kind != "select"
        conditions: list[_Condition] = []
        where = None
        position = 0
        #: a single-table SELECT's projected column names; empty for ``*`` and for a join,
        #: whose rows carry every column.
        self.columns: tuple[str, ...] = ()
        self._projection: str | None = None
        if kind == "select":
            _, tables, columns, limit, where = key
            self.tables: tuple[str, ...] = tables
            selected = (
                ", ".join(_column_sql(table, name) for table, name in columns) if columns else "*"
            )
            if len(tables) == 1:
                self.columns = tuple(name for _, name in columns)
            self._projection = selected if self.columns else "*"
            sql = f"SELECT {selected} FROM {', '.join(map(quote_identifier, tables))}"
        elif kind == "insert":
            _, table, columns = key
            self.tables = (table,)
            conditions = [(table, column, "=", index, 1) for index, column in enumerate(columns)]
            sql = (
                f"INSERT INTO {quote_identifier(table)} "
                f"({', '.join(map(quote_identifier, columns))}) "
                f"VALUES ({', '.join('?' * len(columns))})"
                if columns
                else None
            )
        elif kind == "update":
            _, table, assignments, where = key
            self.tables = (table,)
            parts = []
            for column, delta in assignments:
                quoted = quote_identifier(column)
                parts.append(f"{quoted} = {quoted} + ?" if delta else f"{quoted} = ?")
            sql = f"UPDATE {quote_identifier(table)} SET {', '.join(parts)}" if parts else None
            position = len(assignments)
        else:
            _, table, where = key
            self.tables = (table,)
            sql = f"DELETE FROM {quote_identifier(table)}"
        if where is not None:
            where_sql, _ = _where_sql(where, position, conditions)
            if sql is not None:
                sql += f" WHERE {where_sql}"
        if kind == "select" and limit is not None:
            sql += f" LIMIT {int(limit)}"
        self.sql: str | None = sql
        #: a SELECT's text after its select list.
        self._from = sql[len("SELECT ") + len(selected) :] if kind == "select" else None
        self._keyed: dict[tuple[tuple[str, ...], ...], str] = {}
        #: the metrics registry that last counted this shape in ``sqlparse.shapes``.
        self.counted_by: object = None
        self._conditions = conditions
        self._by_table: dict[str, list[_Condition]] = {}
        self._recipes: dict[tuple, Callable[[Sequence[object]], list[tuple]] | None] = {}

    def _on(self, table: str) -> list[_Condition]:
        """The conjunctive comparisons on ``table``: qualified with it or unqualified."""
        on = self._by_table.get(table)
        if on is None:
            on = self._by_table[table] = [c for c in self._conditions if c[0] in (None, table)]
        return on

    def conditions(self, table: str, values: Sequence[object]) -> list[AttributeCondition]:
        """The conjunctive conditions on ``table`` of the statement with ``values``."""
        conditions = []
        for qualifier, column, operator, start, count in self._on(table):
            if operator == "in":
                condition = AttributeCondition(
                    qualifier, column, operator, values=tuple(values[start : start + count])
                )
            elif operator == "between":
                condition = AttributeCondition(
                    qualifier, column, operator, low=values[start], high=values[start + 1]
                )
            else:
                condition = AttributeCondition(qualifier, column, operator, values[start])
            conditions.append(condition)
        return conditions

    def keys(
        self, table: str, primary_key: tuple[str, ...], values: Sequence[object]
    ) -> list[tuple[object, ...]] | None:
        """Every ``primary_key`` value tuple of ``table`` the statement with
        ``values`` admits, or ``None`` when a key column is left unpinned."""
        recipe_key = (table, primary_key)
        if recipe_key in self._recipes:
            recipe = self._recipes[recipe_key]
        else:
            recipe = self._recipes[recipe_key] = self._recipe(table, primary_key)
        return None if recipe is None else recipe(values)

    def keyed_sql(self, primary_keys: tuple[tuple[str, ...], ...]) -> str:
        """The paper's §5.3 rewrite: SQL that also returns the primary key of
        every tuple the statement touches, ``primary_keys[i]`` being the key of
        ``tables[i]``.

        A SELECT projects each table's key columns after its own (a join
        selects ``*``); an UPDATE or DELETE returns its table's key.  An
        INSERT's key is its row's, so it has no rewrite.
        """
        sql = self._keyed.get(primary_keys)
        if sql is None:
            if self.kind == "insert" or self.sql is None:
                raise UnsupportedStatementError(f"no key rewrite for a {self.kind} of {self.tables}")
            keys = ", ".join(
                _column_sql(table, column)
                for table, key in zip(self.tables, primary_keys, strict=True)
                for column in key
            )
            if self.kind == "select":
                sql = f"SELECT {self._projection}, {keys}{self._from}"
            else:
                sql = f"{self.sql} RETURNING {keys}"
            self._keyed[primary_keys] = sql
        return sql

    def _recipe(
        self, table: str, primary_key: tuple[str, ...]
    ) -> Callable[[Sequence[object]], list[tuple[object, ...]]] | None:
        return key_recipe(
            [(column, operator, start, count) for _, column, operator, start, count in self._on(table)],
            primary_key,
        )


# -- the cache -----------------------------------------------------------------------
_SHAPES: dict[tuple, StatementShape] = {}
_FIRST_SIGHT = threading.Lock()


def analyse(statement: Statement) -> tuple[StatementShape, list[object]]:
    """The shape of ``statement`` and its bind values, in SQL order."""
    key_of = _KEYS.get(type(statement))
    if key_of is None:
        raise UnsupportedStatementError(f"cannot compile statement {statement!r}")
    values: list[object] = []
    key = key_of(statement, values)
    shape = _SHAPES.get(key)
    metrics = get_telemetry().metrics
    if shape is None or shape.counted_by is not metrics:
        with _FIRST_SIGHT:
            shape = _SHAPES.get(key)
            if shape is None:
                shape = _SHAPES[key] = StatementShape(key)
            if shape.counted_by is not metrics:
                shape.counted_by = metrics
                metrics.counter(
                    "sqlparse.shapes",
                    "distinct statement shapes analysed under this registry",
                    labels=("kind",),
                ).inc(kind=shape.kind)
    return shape, values
