"""Database facade: a catalog schema over one in-memory SQLite store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.schema import Schema, Table
from repro.catalog.tuples import TupleId
from repro.sqlparse.ast import InsertStatement, Statement
from repro.sqlparse.parser import parse_statement
from repro.sqlparse.shape import StatementShape, analyse
from repro.storage.sqlite_store import SqlitePartitionStore


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


class Database:
    """A single-node database for one :class:`Schema`, held in memory by SQLite.

    Besides statement execution (which reports each statement's read/write
    sets) it exposes what graph construction needs: enumerating tuples and
    their sizes.  A duplicate key raises
    :class:`~repro.storage.sqlite_store.StoreConstraintError` (a
    ``ValueError``).
    """

    def __init__(self, schema: Schema) -> None:
        schema.validate_foreign_keys()
        self.schema = schema
        self._store = SqlitePartitionStore(":memory:", schema)
        #: per statement shape: its keyed SQL and how to read its rows.
        self._plans: dict[StatementShape, tuple] = {}

    def close(self) -> None:
        """Release the in-memory store; the database is unusable afterwards."""
        self._store.close()

    def table(self, name: str) -> Table:
        """Return table metadata."""
        return self.schema.table(name)

    # -- rows ----------------------------------------------------------------------------
    def insert_row(self, table: str, row: Mapping[str, object]) -> TupleId:
        """Insert one validated row (the generators' loading path)."""
        meta = self.schema.table(table)
        meta.validate_row(row)
        self._store.bulk_load(table, (row,))
        return TupleId(table, meta.primary_key_of(row))

    def delete_row(self, tuple_id: TupleId) -> bool:
        """Delete the row behind ``tuple_id``; False when there is none."""
        return self._store.delete_row(tuple_id.table, tuple_id.key)

    def get_row(self, tuple_id: TupleId) -> dict[str, object] | None:
        """Fetch the row behind ``tuple_id`` (or None if it does not exist)."""
        return self._store.export_row(tuple_id.table, tuple_id.key)

    def rows(self, table: str) -> dict[tuple[object, ...], dict[str, object]]:
        """Every row of ``table`` keyed by primary key, in rowid order.

        That is insertion order, except that a single INTEGER primary key is
        the rowid itself, so such a table walks in key order.
        """
        return self._store.all_rows(table)

    # -- execution ----------------------------------------------------------------------
    def execute(self, statement: Statement | str) -> StatementResult:
        """Execute a statement AST or SQL text and report what it touched.

        A SELECT, UPDATE or DELETE runs as its shape's
        :meth:`~repro.sqlparse.shape.StatementShape.keyed_sql`, whose extra
        columns are the primary keys of the rows it read or wrote; an INSERT
        writes its row's key.  A ``LIMIT`` read sees SQLite's row order, the
        order the SQLite partitions serve.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, InsertStatement):
            return StatementResult(write_set={self.insert_row(statement.table, statement.row)})
        shape, values = analyse(statement)
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._plan(shape)
        sql, names, keys = plan
        fetched = self._store.execute(sql, values)
        result = StatementResult()
        if names is None:
            [(table, _, _)] = keys
            result.write_set = {TupleId(table, row) for row in fetched}
            return result
        rows, read_set = result.rows, result.read_set
        for row in fetched:
            rows.append({name: row[position] for position, name in names})
            for table, start, stop in keys:
                read_set.add(TupleId(table, row[start:stop]))
        return result

    def _plan(self, shape: StatementShape) -> tuple[str, list[tuple[int, str]] | None, list]:
        """``shape``'s keyed SQL, where each row column lands (None for a
        write) and where each table's key sits in a returned row."""
        tables = [self.schema.table(name) for name in shape.tables]
        sql = shape.keyed_sql(tuple(table.primary_key for table in tables))
        if shape.write:
            names, start = None, 0
        elif len(tables) == 1:
            projected = shape.columns or tables[0].column_names
            names, start = list(enumerate(projected)), len(projected)
        else:
            # A join's rows carry every column, qualified, and unqualified for
            # the first table that has it.
            qualified = [(table.name, column) for table in tables for column in table.column_names]
            names = [(i, f"{table}.{column}") for i, (table, column) in enumerate(qualified)]
            first: dict[str, int] = {}
            for i, (_, column) in enumerate(qualified):
                first.setdefault(column, i)
            names += [(i, column) for column, i in first.items()]
            start = len(qualified)
        keys = []
        for table in tables:
            stop = start + len(table.primary_key)
            keys.append((table.name, start, stop))
            start = stop
        return sql, names, keys

    # -- introspection -------------------------------------------------------------------
    def row_count(self, table: str | None = None) -> int:
        """Rows in ``table`` or in the whole database."""
        return self._store.row_count(table)

    def all_tuple_ids(self, table: str | None = None) -> list[TupleId]:
        """All tuple ids in ``table`` or the whole database, in ``rows`` order."""
        return self._store.tuple_ids(table)

    def tuple_byte_size(self, tuple_id: TupleId) -> int:
        """Approximate size in bytes of one tuple (schema row size)."""
        return self.schema.table(tuple_id.table).row_byte_size
