"""One partition's durable store: a SQLite database file in WAL mode.

The store owns exactly one file and provides the operations the worker
process serves: exactly-once transaction application, reads, and the audit
walks.  Crash safety comes from SQLite itself — ``journal_mode=WAL`` plus
``synchronous=FULL`` means a ``SIGKILL`` at any instruction leaves the file
in the last committed state, and the next open replays the WAL.

**Exactly-once application.**  Each partition keeps a dedup table
(``_repro_applied``) of transaction ids it has durably applied.  A
transaction's statements for this partition are executed and the dedup row
inserted inside *one* SQLite transaction, so a crash either persists both or
neither; a retried apply whose id is already present is a no-op reporting
``"duplicate"``.  This is what makes the coordinator's retry loop safe: a
timeout tells the client nothing about whether the write landed, and the
dedup table resolves the ambiguity instead of double-applying delta updates.

**Compiled SQL only.**  Every statement arrives as a ``(sql, params)`` pair
the coordinator compiled (:func:`repro.storage.sql.compile_statement`); the
store checks each pair's verb before running it, so a read batch can never
autocommit a write and anything else fails closed with a ``ValueError``.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.catalog.schema import Schema, Table
from repro.catalog.tuples import TupleId
from repro.storage.sql import create_schema_sql, quote_identifier

#: dedup table name; underscore-prefixed so it can never collide with a
#: catalog table (catalog identifiers are plain words).
APPLIED_TABLE = "_repro_applied"

#: a compiled statement: parameterised SQL text and its bind values.
CompiledSql = tuple[str, Sequence[object]]
_READ_VERBS = ("SELECT ",)
_WRITE_VERBS = ("INSERT ", "UPDATE ", "DELETE ")


def _checked(pairs: Sequence[CompiledSql], verbs: tuple[str, ...]) -> Iterator[CompiledSql]:
    """``pairs`` one by one, refusing any whose SQL is not a string starting with ``verbs``."""
    for sql, params in pairs:
        if not isinstance(sql, str) or not sql.startswith(verbs):
            raise ValueError(f"expected compiled SQL starting with {verbs}, got {sql!r}")
        yield sql, params


class _TableSql(NamedTuple):
    """The per-table SQL text the row operations run, built once per store."""

    columns: tuple[str, ...]
    #: every column of the rows with this primary key.
    select: str
    #: every row, in rowid order (key order for a single INTEGER key).
    scan: str
    #: every primary key, in the same order as ``scan``.
    keys: str
    insert: str
    delete: str
    count: str


def _table_sql(table: Table) -> _TableSql:
    name = quote_identifier(table.name)
    selected = ", ".join(map(quote_identifier, table.column_names))
    key = ", ".join(map(quote_identifier, table.primary_key))
    at_key = " AND ".join(f"{quote_identifier(column)} = ?" for column in table.primary_key)
    return _TableSql(
        columns=table.column_names,
        select=f"SELECT {selected} FROM {name} WHERE {at_key}",
        # NOT INDEXED keeps both walks in rowid order: a covering primary-key
        # index would otherwise return the rows sorted by key.  Rowid order is
        # insertion order, except that a single INTEGER primary key *is* the
        # rowid, so such a table walks in key order.
        scan=f"SELECT {selected} FROM {name} NOT INDEXED",
        keys=f"SELECT {key} FROM {name} NOT INDEXED",
        insert=(
            f"INSERT INTO {name} ({selected}) "
            f"VALUES ({', '.join('?' * len(table.column_names))})"
        ),
        delete=f"DELETE FROM {name} WHERE {at_key}",
        count=f"SELECT COUNT(*) FROM {name}",
    )


_APPLIED = quote_identifier(APPLIED_TABLE)
_IS_APPLIED = f"SELECT 1 FROM {_APPLIED} WHERE txn_id = ?"
_MARK_APPLIED = f"INSERT INTO {_APPLIED} (txn_id) VALUES (?)"


class StoreConstraintError(ValueError):
    """A statement violated a constraint (duplicate key, type error).

    Non-retryable by definition: re-running the statement can only fail the
    same way, so the retry policy classifies it fatal.
    """


class SqlitePartitionStore:
    """One partition's SQLite database (WAL mode, schema from the catalog)."""

    def __init__(self, path: str | Path, schema: Schema, *, synchronous: str = "FULL") -> None:
        self.path = Path(path)
        self.schema = schema
        self._tables = {table.name: _table_sql(table) for table in schema.tables}
        # Callers serialise their own use of one store; it may move between threads.
        self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
        self._connection.isolation_level = None  # explicit BEGIN/COMMIT only
        cursor = self._connection.cursor()
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute(f"PRAGMA synchronous={synchronous}")
        cursor.execute("PRAGMA busy_timeout=5000")
        for ddl in create_schema_sql(schema):
            cursor.execute(ddl)
        cursor.execute(f"CREATE TABLE IF NOT EXISTS {_APPLIED} (txn_id TEXT PRIMARY KEY)")
        self._connection.commit()

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "SqlitePartitionStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writes ------------------------------------------------------------------------
    def apply_transaction(
        self, txn_id: str, writes: Sequence[CompiledSql], reads: Sequence[CompiledSql]
    ) -> tuple[str, list[list[tuple]]]:
        """Apply this partition's share of one transaction, exactly once, and
        answer the transaction's reads routed here.

        The reads run first, inside the same ``BEGIN IMMEDIATE`` as the writes,
        so on first application they observe this partition's state before
        the transaction's writes.  Returns ``("applied", rows)``, or
        ``("duplicate", rows)`` when ``txn_id`` was already durably applied
        (the retried-after-timeout case; its rows then include the writes).
        ``rows`` holds one row list per read.  All writes plus the dedup marker
        commit atomically; any failure rolls the whole batch back, so a fatal
        error leaves this partition untouched by the transaction.
        """
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            rows = [cursor.execute(*pair).fetchall() for pair in _checked(reads, _READ_VERBS)]
            if cursor.execute(_IS_APPLIED, (txn_id,)).fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate", rows
            for sql, params in _checked(writes, _WRITE_VERBS):
                cursor.execute(sql, params)
            cursor.execute(_MARK_APPLIED, (txn_id,))
            cursor.execute("COMMIT")
            return "applied", rows
        except sqlite3.IntegrityError as error:
            cursor.execute("ROLLBACK")
            raise StoreConstraintError(str(error)) from error
        except Exception:
            cursor.execute("ROLLBACK")
            raise

    def execute(self, sql: str, params: Sequence[object]) -> list[tuple]:
        """Run one compiled statement on its own (autocommit) and return its rows.

        The single-node path: no dedup marker, so a write here is not
        exactly-once.  A constraint violation raises
        :class:`StoreConstraintError`.
        """
        [(sql, params)] = _checked([(sql, params)], _READ_VERBS + _WRITE_VERBS)
        try:
            return self._connection.execute(sql, params).fetchall()
        except sqlite3.IntegrityError as error:
            raise StoreConstraintError(str(error)) from error

    def delete_row(self, table: str, key: Sequence[object]) -> bool:
        """Delete the row of ``table`` at primary key ``key``; False when absent."""
        return self._connection.execute(self._tables[table].delete, tuple(key)).rowcount > 0

    # -- migration primitives ----------------------------------------------------------
    def export_row(self, table: str, key: Sequence[object]) -> dict[str, object] | None:
        """The row of ``table`` at primary key ``key``, or ``None`` if absent.

        The bulk-export read of the migration copy path: the migrator reads
        the source replica here and ships it to the destination's
        :meth:`migrate_in`.
        """
        sql = self._tables[table]
        values = self._connection.execute(sql.select, tuple(key)).fetchone()
        if values is None:
            return None
        return dict(zip(sql.columns, values))

    def migrate_in(
        self, txn_id: str, table: str, key: Sequence[object], row: dict[str, object]
    ) -> str:
        """Land a migrated replica of ``row`` exactly once.

        The check, the insert, and the dedup marker commit in one SQLite
        transaction.  Returns ``"applied"`` on first application,
        ``"present"`` when a row with this key already exists (a dual-write
        landed it first, or a crashed copy is being replayed without its
        marker — either way the resident row is newer-or-equal and must win),
        and ``"duplicate"`` when ``txn_id``'s marker is already durable.
        """
        sql = self._tables[table]
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            if cursor.execute(_IS_APPLIED, (txn_id,)).fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate"
            outcome = "present"
            if cursor.execute(sql.select, tuple(key)).fetchone() is None:
                cursor.execute(sql.insert, [row[column] for column in sql.columns])
                outcome = "applied"
            cursor.execute(_MARK_APPLIED, (txn_id,))
            cursor.execute("COMMIT")
            return outcome
        except sqlite3.IntegrityError as error:
            cursor.execute("ROLLBACK")
            raise StoreConstraintError(str(error)) from error
        except Exception:
            cursor.execute("ROLLBACK")
            raise

    def migrate_out(self, txn_id: str, table: str, key: Sequence[object]) -> str:
        """Remove a stale replica exactly once (the migration drop path).

        Returns ``"applied"`` when the row was deleted, ``"absent"`` when no
        row with this key exists (already dropped before the marker landed),
        ``"duplicate"`` when ``txn_id``'s marker is already durable.  Delete
        and marker commit atomically, like :meth:`migrate_in`.
        """
        sql = self._tables[table]
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            if cursor.execute(_IS_APPLIED, (txn_id,)).fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate"
            cursor.execute(sql.delete, tuple(key))
            outcome = "applied" if cursor.rowcount else "absent"
            cursor.execute(_MARK_APPLIED, (txn_id,))
            cursor.execute("COMMIT")
            return outcome
        except Exception:
            cursor.execute("ROLLBACK")
            raise

    def has_transaction(self, txn_id: str) -> bool:
        """Whether ``txn_id`` was durably applied on this partition."""
        return self._connection.execute(_IS_APPLIED, (txn_id,)).fetchone() is not None

    # -- reads -------------------------------------------------------------------------
    def execute_read(self, reads: Sequence[CompiledSql]) -> list[list[tuple]]:
        """Execute a batch of compiled reads: one raw row list per read, in order."""
        return [
            self._connection.execute(*pair).fetchall() for pair in _checked(reads, _READ_VERBS)
        ]

    # -- audit walks -------------------------------------------------------------------
    def all_rows(self, table: str) -> dict[tuple[object, ...], dict[str, object]]:
        """Every row of ``table`` keyed by primary key (audit surface)."""
        sql = self._tables[table]
        key_of = self.schema.table(table).primary_key_of
        rows: dict[tuple[object, ...], dict[str, object]] = {}
        for values in self._connection.execute(sql.scan):
            row = dict(zip(sql.columns, values))
            rows[key_of(row)] = row
        return rows

    def tuple_ids(self, table: str | None = None) -> list[TupleId]:
        """Every tuple stored on this partition (or in its ``table``)."""
        names = [table] if table is not None else list(self._tables)
        return [
            TupleId(name, key)
            for name in names
            for key in self._connection.execute(self._tables[name].keys)
        ]

    def row_count(self, table: str | None = None) -> int:
        """Rows stored in ``table``, or across the catalog tables (dedup table excluded)."""
        names = [table] if table is not None else list(self._tables)
        return sum(
            self._connection.execute(self._tables[name].count).fetchone()[0] for name in names
        )

    # -- bulk loading ------------------------------------------------------------------
    def bulk_load(self, table: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert ``rows`` in one transaction; returns count.

        A duplicate key rolls the whole load back and raises
        :class:`StoreConstraintError`.
        """
        sql = self._tables[table]
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        count = 0
        try:
            for row in rows:
                cursor.execute(sql.insert, [row[column] for column in sql.columns])
                count += 1
            cursor.execute("COMMIT")
        except sqlite3.IntegrityError as error:
            cursor.execute("ROLLBACK")
            raise StoreConstraintError(str(error)) from error
        except Exception:
            cursor.execute("ROLLBACK")
            raise
        return count
