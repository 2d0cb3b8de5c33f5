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
from typing import Iterator, Sequence

from repro.catalog.schema import Schema
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
        self._connection = sqlite3.connect(str(self.path))
        self._connection.isolation_level = None  # explicit BEGIN/COMMIT only
        cursor = self._connection.cursor()
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute(f"PRAGMA synchronous={synchronous}")
        cursor.execute("PRAGMA busy_timeout=5000")
        for ddl in create_schema_sql(schema):
            cursor.execute(ddl)
        cursor.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(APPLIED_TABLE)} "
            "(txn_id TEXT PRIMARY KEY)"
        )
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
            cursor.execute(
                f"SELECT 1 FROM {quote_identifier(APPLIED_TABLE)} WHERE txn_id = ?",
                (txn_id,),
            )
            if cursor.fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate", rows
            for sql, params in _checked(writes, _WRITE_VERBS):
                cursor.execute(sql, params)
            cursor.execute(
                f"INSERT INTO {quote_identifier(APPLIED_TABLE)} (txn_id) VALUES (?)",
                (txn_id,),
            )
            cursor.execute("COMMIT")
            return "applied", rows
        except sqlite3.IntegrityError as error:
            cursor.execute("ROLLBACK")
            raise StoreConstraintError(str(error)) from error
        except Exception:
            cursor.execute("ROLLBACK")
            raise

    # -- migration primitives ----------------------------------------------------------
    def _pk_predicate(self, table: str) -> tuple[tuple[str, ...], str]:
        meta = self.schema.table(table)
        predicate = " AND ".join(
            f"{quote_identifier(column)} = ?" for column in meta.primary_key
        )
        return meta.primary_key, predicate

    def export_row(self, table: str, key: Sequence[object]) -> dict[str, object] | None:
        """The row of ``table`` at primary key ``key``, or ``None`` if absent.

        The bulk-export read of the migration copy path: the migrator reads
        the source replica here and ships it to the destination's
        :meth:`migrate_in`.
        """
        meta = self.schema.table(table)
        columns = meta.column_names
        _, predicate = self._pk_predicate(table)
        selected = ", ".join(quote_identifier(column) for column in columns)
        values = self._connection.execute(
            f"SELECT {selected} FROM {quote_identifier(table)} WHERE {predicate}",
            tuple(key),
        ).fetchone()
        if values is None:
            return None
        return dict(zip(columns, values))

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
        meta = self.schema.table(table)
        columns = meta.column_names
        _, predicate = self._pk_predicate(table)
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            cursor.execute(
                f"SELECT 1 FROM {quote_identifier(APPLIED_TABLE)} WHERE txn_id = ?",
                (txn_id,),
            )
            if cursor.fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate"
            cursor.execute(
                f"SELECT 1 FROM {quote_identifier(table)} WHERE {predicate}",
                tuple(key),
            )
            outcome = "present"
            if cursor.fetchone() is None:
                cursor.execute(
                    f"INSERT INTO {quote_identifier(table)} "
                    f"({', '.join(quote_identifier(column) for column in columns)}) "
                    f"VALUES ({', '.join('?' for _ in columns)})",
                    [row[column] for column in columns],
                )
                outcome = "applied"
            cursor.execute(
                f"INSERT INTO {quote_identifier(APPLIED_TABLE)} (txn_id) VALUES (?)",
                (txn_id,),
            )
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
        _, predicate = self._pk_predicate(table)
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            cursor.execute(
                f"SELECT 1 FROM {quote_identifier(APPLIED_TABLE)} WHERE txn_id = ?",
                (txn_id,),
            )
            if cursor.fetchone() is not None:
                cursor.execute("ROLLBACK")
                return "duplicate"
            cursor.execute(
                f"DELETE FROM {quote_identifier(table)} WHERE {predicate}",
                tuple(key),
            )
            outcome = "applied" if cursor.rowcount else "absent"
            cursor.execute(
                f"INSERT INTO {quote_identifier(APPLIED_TABLE)} (txn_id) VALUES (?)",
                (txn_id,),
            )
            cursor.execute("COMMIT")
            return outcome
        except Exception:
            cursor.execute("ROLLBACK")
            raise

    def has_transaction(self, txn_id: str) -> bool:
        """Whether ``txn_id`` was durably applied on this partition."""
        cursor = self._connection.execute(
            f"SELECT 1 FROM {quote_identifier(APPLIED_TABLE)} WHERE txn_id = ?",
            (txn_id,),
        )
        return cursor.fetchone() is not None

    # -- reads -------------------------------------------------------------------------
    def execute_read(self, reads: Sequence[CompiledSql]) -> list[list[tuple]]:
        """Execute a batch of compiled reads: one raw row list per read, in order."""
        return [
            self._connection.execute(*pair).fetchall() for pair in _checked(reads, _READ_VERBS)
        ]

    # -- audit walks -------------------------------------------------------------------
    def all_rows(self, table: str) -> dict[tuple[object, ...], dict[str, object]]:
        """Every row of ``table`` keyed by primary key (audit surface)."""
        meta = self.schema.table(table)
        columns = meta.column_names
        selected = ", ".join(quote_identifier(column) for column in columns)
        rows: dict[tuple[object, ...], dict[str, object]] = {}
        for values in self._connection.execute(
            f"SELECT {selected} FROM {quote_identifier(table)}"
        ):
            row = dict(zip(columns, values))
            rows[meta.primary_key_of(row)] = row
        return rows

    def tuple_ids(self) -> list[TupleId]:
        """Every tuple stored on this partition."""
        out: list[TupleId] = []
        for table in self.schema.tables:
            out.extend(
                TupleId(table.name, key) for key in self.all_rows(table.name)
            )
        return out

    def row_count(self) -> int:
        """Total rows stored across the catalog tables (dedup table excluded)."""
        total = 0
        for table in self.schema.tables:
            (count,) = self._connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table.name)}"
            ).fetchone()
            total += count
        return total

    # -- bulk loading ------------------------------------------------------------------
    def bulk_load(self, table: str, rows) -> int:
        """Insert ``rows`` (mapping iterable) in one transaction; returns count."""
        meta = self.schema.table(table)
        columns = meta.column_names
        sql = (
            f"INSERT INTO {quote_identifier(table)} "
            f"({', '.join(quote_identifier(column) for column in columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
        cursor = self._connection.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        count = 0
        try:
            for row in rows:
                cursor.execute(sql, [row[column] for column in columns])
                count += 1
            cursor.execute("COMMIT")
        except Exception:
            cursor.execute("ROLLBACK")
            raise
        return count
