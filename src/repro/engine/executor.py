"""Statement execution against :class:`~repro.engine.storage.TableStorage`.

The executor's primary job for Schism is not query answers but *read/write
sets*: for every statement it reports exactly which tuples were read and
which were written, identified by :class:`~repro.catalog.tuples.TupleId`.
That is the information the paper extracts from SQL traces (Section 5.3) to
build the partitioning graph, and it also drives the distributed-transaction
cost model.

One rule finds the rows of a table that a statement can touch — for SELECT,
UPDATE, DELETE and for every table of a join.  The candidates are the first
of:

1. the primary keys the table's conjunctive conditions pin, taken from the
   statement's shape (:func:`~repro.sqlparse.shape.analyse`, the router's
   derivation), in first-seen order, skipping keys that are not stored;
2. the smallest secondary-index bucket among ``=`` conditions on indexed
   columns (the first such condition on a tie), sorted by ``repr``;
3. every stored key, in insertion order.

Each candidate is then checked against the WHERE clause with
:func:`~repro.sqlparse.predicates.evaluate_predicate`; candidates only skip
rows that provably cannot match.  Read/write sets are sets, so the rule only
decides which rows are *examined* (counted by ``engine.rows_examined``); the
order of matches matters only under ``LIMIT``, and an index bucket comes out
in the same ``repr`` order whichever equality picked it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.catalog.tuples import TupleId
from repro.obs import get_telemetry
from repro.sqlparse.ast import (
    And,
    Comparison,
    DeleteStatement,
    InsertStatement,
    JoinCondition,
    Predicate,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.sqlparse.predicates import evaluate_predicate
from repro.sqlparse.shape import StatementShape, analyse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.schema import Table
    from repro.engine.storage import TableStorage


@dataclass
class StatementResult:
    """Outcome of executing one statement."""

    rows: list[dict[str, object]] = field(default_factory=list)
    read_set: set[TupleId] = field(default_factory=set)
    write_set: set[TupleId] = field(default_factory=set)

    @property
    def touched(self) -> set[TupleId]:
        """Union of read and write sets."""
        return self.read_set | self.write_set


def _conjuncts(predicate: Predicate | None) -> list[Predicate]:
    """The predicates every matching row satisfies: ``predicate``'s top-level AND terms."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return [term for child in predicate.children for term in _conjuncts(child)]
    return [predicate]


def _on_table(table: "Table", qualifier: str | None, column: str) -> bool:
    return qualifier == table.name or (qualifier is None and table.has_column(column))


def _examined(count: int) -> None:
    get_telemetry().metrics.counter(
        "engine.rows_examined", "candidate rows checked against a WHERE clause"
    ).inc(count)


class Executor:
    """Executes statements against a mapping of table name -> storage."""

    def __init__(self, storages: Mapping[str, "TableStorage"]) -> None:
        self._storages = storages

    # -- public API -------------------------------------------------------------------
    def execute(self, statement: Statement) -> StatementResult:
        """Execute one statement and return its rows and read/write sets."""
        if isinstance(statement, SelectStatement):
            if statement.is_join:
                return self._execute_join_select(statement)
            return self._execute_select(statement)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        raise TypeError(f"unsupported statement type {type(statement).__name__}")

    # -- helpers -----------------------------------------------------------------------
    def _storage(self, table: str) -> "TableStorage":
        storage = self._storages.get(table)
        if storage is None:
            raise KeyError(f"unknown table {table!r}")
        return storage

    @staticmethod
    def _matching_keys(
        storage: "TableStorage",
        where: Predicate | None,
        shape: StatementShape,
        values: list[object],
    ) -> list[tuple[object, ...]]:
        """Primary keys of the rows of ``storage`` that satisfy ``where`` (see
        module doc); the candidates come from the statement's ``shape`` and
        bind ``values``."""
        table = storage.table
        pinned = shape.keys(table.name, table.primary_key, values)
        if pinned is not None:
            candidates = [key for key in dict.fromkeys(pinned) if key in storage]
        else:
            indexed = [
                (condition.column, condition.value)
                for condition in shape.conditions(table.name, values)
                if condition.operator == "=" and condition.column in storage.indexed_columns
            ]
            if indexed:
                candidates = storage.lookup_equal(
                    *min(indexed, key=lambda pair: storage.count_equal(*pair))
                )
            else:
                candidates = list(storage.keys())
        if where is None:
            return candidates
        _examined(len(candidates))
        return [key for key in candidates if evaluate_predicate(where, storage.peek(key))]

    # -- statement kinds ----------------------------------------------------------------
    def _execute_select(self, statement: SelectStatement) -> StatementResult:
        storage = self._storage(statement.tables[0])
        result = StatementResult()
        keys = self._matching_keys(storage, statement.where, *analyse(statement))
        if statement.limit is not None:
            keys = keys[: statement.limit]
        for key in keys:
            result.rows.append(self._project(storage.peek(key), statement))
            result.read_set.add(TupleId(storage.table.name, key))
        return result

    def _execute_join_select(self, statement: SelectStatement) -> StatementResult:
        """Nested-loop join over two or more tables.

        Each table's rows are found by the one rule, checked against that
        table's own conjunctive comparisons; tables are then joined in FROM
        order, pruning on the conjunctive join conditions whose two sides are
        present, and every joined row is checked against the whole WHERE
        clause.  The read set is the rows that contribute to a result row.
        """
        where = statement.where
        shape, values = analyse(statement)
        conjuncts = _conjuncts(where)
        joins = [term for term in conjuncts if isinstance(term, JoinCondition)]
        joined: list[tuple[dict[str, object], frozenset[TupleId]]] = [({}, frozenset())]
        for table_name in statement.tables:
            storage = self._storage(table_name)
            own = tuple(
                term
                for term in conjuncts
                if isinstance(term, Comparison)
                and _on_table(storage.table, term.column.table, term.column.name)
            )
            rows = [
                (TupleId(table_name, key), storage.peek(key))
                for key in self._matching_keys(
                    storage, And(own) if own else None, shape, values
                )
            ]
            extended = []
            for partial, sources in joined:
                for tuple_id, row in rows:
                    candidate = dict(partial)
                    for column, value in row.items():
                        candidate[f"{table_name}.{column}"] = value
                        candidate.setdefault(column, value)
                    if self._joins_satisfied(candidate, joins):
                        extended.append((candidate, sources | {tuple_id}))
            joined = extended
        if where is not None:
            _examined(len(joined))
            joined = [(row, sources) for row, sources in joined if evaluate_predicate(where, row)]
        if statement.limit is not None:
            joined = joined[: statement.limit]
        result = StatementResult()
        for row, sources in joined:
            result.rows.append(row)
            result.read_set.update(sources)
        return result

    @staticmethod
    def _joins_satisfied(candidate: Mapping[str, object], joins: list[JoinCondition]) -> bool:
        """Check the join conditions whose two sides are already present in ``candidate``."""
        for join in joins:
            left, right = (
                f"{side.table}.{side.name}" if side.table else side.name
                for side in (join.left, join.right)
            )
            if left in candidate and right in candidate and candidate[left] != candidate[right]:
                return False
        return True

    @staticmethod
    def _project(row: Mapping[str, object], statement: SelectStatement) -> dict[str, object]:
        if not statement.columns:
            return dict(row)
        projected: dict[str, object] = {}
        for column in statement.columns:
            if column.name in row:
                projected[column.name] = row[column.name]
        return projected

    def _execute_insert(self, statement: InsertStatement) -> StatementResult:
        storage = self._storage(statement.table)
        tuple_id = storage.insert(statement.row)
        result = StatementResult()
        result.write_set.add(tuple_id)
        return result

    def _execute_update(self, statement: UpdateStatement) -> StatementResult:
        storage = self._storage(statement.table)
        result = StatementResult()
        for key in self._matching_keys(storage, statement.where, *analyse(statement)):
            storage.update(key, statement.assignments)
            result.write_set.add(TupleId(storage.table.name, key))
        return result

    def _execute_delete(self, statement: DeleteStatement) -> StatementResult:
        storage = self._storage(statement.table)
        result = StatementResult()
        for key in self._matching_keys(storage, statement.where, *analyse(statement)):
            storage.delete(key)
            result.write_set.add(TupleId(storage.table.name, key))
        return result
