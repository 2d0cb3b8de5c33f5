"""Database facade: schema + per-table storage + executor."""

from __future__ import annotations

from typing import Mapping

from repro.catalog.schema import Schema, Table
from repro.catalog.tuples import TupleId
from repro.engine.executor import Executor, StatementResult
from repro.engine.storage import TableStorage
from repro.sqlparse.ast import Statement
from repro.sqlparse.parser import parse_statement


class Database:
    """A single-node in-memory database for one :class:`Schema`.

    Besides statement execution (which reports each statement's read/write
    sets) it exposes what graph construction needs: enumerating tuples and
    their sizes.
    """

    def __init__(self, schema: Schema) -> None:
        schema.validate_foreign_keys()
        self.schema = schema
        self._storages: dict[str, TableStorage] = {
            table.name: TableStorage(table) for table in schema.tables
        }
        self._executor = Executor(self._storages)
        # Index primary-key prefix columns and foreign-key columns by default:
        # OLTP statements overwhelmingly filter on them.
        for table in schema.tables:
            storage = self._storages[table.name]
            for column in table.primary_key:
                storage.create_index(column)
            for foreign_key in table.foreign_keys:
                for column in foreign_key.columns:
                    storage.create_index(column)

    # -- storage access -----------------------------------------------------------------
    def storage(self, table: str) -> TableStorage:
        """Return the storage object for ``table``."""
        if table not in self._storages:
            raise KeyError(f"unknown table {table!r}")
        return self._storages[table]

    def table(self, name: str) -> Table:
        """Return table metadata."""
        return self.schema.table(name)

    def create_index(self, table: str, column: str) -> None:
        """Create a secondary index."""
        self.storage(table).create_index(column)

    # -- loading -----------------------------------------------------------------------
    def insert_row(self, table: str, row: Mapping[str, object]) -> TupleId:
        """Insert one row directly (bulk loading path used by generators)."""
        return self.storage(table).insert(row)

    # -- execution ----------------------------------------------------------------------
    def execute(self, statement: Statement | str) -> StatementResult:
        """Execute a statement AST or SQL text."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        return self._executor.execute(statement)

    # -- introspection -------------------------------------------------------------------
    def row_count(self, table: str | None = None) -> int:
        """Rows in ``table`` or in the whole database."""
        if table is not None:
            return len(self.storage(table))
        return sum(len(storage) for storage in self._storages.values())

    def all_tuple_ids(self, table: str | None = None) -> list[TupleId]:
        """All tuple ids in ``table`` or the whole database."""
        if table is not None:
            return self.storage(table).tuple_ids()
        tuple_ids: list[TupleId] = []
        for storage in self._storages.values():
            tuple_ids.extend(storage.tuple_ids())
        return tuple_ids

    def tuple_byte_size(self, tuple_id: TupleId) -> int:
        """Approximate size in bytes of one tuple (schema row size)."""
        return self.schema.table(tuple_id.table).row_byte_size

    def get_row(self, tuple_id: TupleId) -> dict[str, object] | None:
        """Fetch the row behind ``tuple_id`` (or None if it does not exist)."""
        return self.storage(tuple_id.table).get(tuple_id.key)
