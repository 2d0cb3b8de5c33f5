"""Row storage for a single table with primary-key and secondary hash indexes."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Mapping

from repro.catalog.schema import Table
from repro.catalog.tuples import TupleId


class DuplicateKeyError(ValueError):
    """Raised when inserting a row whose primary key already exists."""


class MissingRowError(KeyError):
    """Raised when an operation targets a primary key that does not exist."""


class TableStorage:
    """In-memory storage for one table.

    Rows are stored in a dict keyed by the primary-key tuple.  Secondary hash
    indexes can be created on single columns; the executor consults them for
    equality lookups and falls back to full scans otherwise (which is exactly
    what matters for modelling OLTP read/write sets).
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._rows: dict[tuple[object, ...], dict[str, object]] = {}
        self._indexes: dict[str, dict[object, set[tuple[object, ...]]]] = {}

    # -- indexes --------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        """Create (and backfill) a secondary hash index on ``column``."""
        if not self.table.has_column(column):
            raise KeyError(f"table {self.table.name!r} has no column {column!r}")
        if column in self._indexes:
            return
        index: dict[object, set[tuple[object, ...]]] = defaultdict(set)
        for key, row in self._rows.items():
            index[row[column]].add(key)
        self._indexes[column] = index

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        """Columns that currently have a secondary index."""
        return tuple(self._indexes)

    def _index_insert(self, key: tuple[object, ...], row: Mapping[str, object]) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(key)

    def _index_remove(self, key: tuple[object, ...], row: Mapping[str, object]) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[row[column]]

    # -- row operations ---------------------------------------------------------------
    def insert(self, row: Mapping[str, object]) -> TupleId:
        """Insert ``row``; returns its :class:`TupleId`."""
        self.table.validate_row(row)
        key = self.table.primary_key_of(row)
        if key in self._rows:
            raise DuplicateKeyError(f"duplicate key {key!r} in table {self.table.name!r}")
        stored = dict(row)
        self._rows[key] = stored
        self._index_insert(key, stored)
        return TupleId(self.table.name, key)

    def delete(self, key: tuple[object, ...]) -> None:
        """Delete the row with primary key ``key``."""
        row = self._rows.pop(key, None)
        if row is None:
            raise MissingRowError(f"no row with key {key!r} in table {self.table.name!r}")
        self._index_remove(key, row)

    def update(self, key: tuple[object, ...], assignments: Mapping[str, object]) -> None:
        """Apply ``assignments`` (literal or ``("delta", amount)``) to a row."""
        row = self._rows.get(key)
        if row is None:
            raise MissingRowError(f"no row with key {key!r} in table {self.table.name!r}")
        self._index_remove(key, row)
        for column, value in assignments.items():
            if not self.table.has_column(column):
                raise KeyError(f"table {self.table.name!r} has no column {column!r}")
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "delta":
                row[column] = row[column] + value[1]  # type: ignore[operator]
            else:
                row[column] = value
        self._index_insert(key, row)

    def get(self, key: tuple[object, ...]) -> dict[str, object] | None:
        """Return a copy of the row with primary key ``key`` (or None)."""
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def peek(self, key: tuple[object, ...]) -> dict[str, object] | None:
        """The live row with primary key ``key`` (or None); do not mutate it."""
        return self._rows.get(key)

    def __contains__(self, key: tuple[object, ...]) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    # -- scans ---------------------------------------------------------------------
    def keys(self) -> Iterator[tuple[object, ...]]:
        """Iterate over all primary keys."""
        return iter(self._rows)

    def rows(self) -> Iterator[tuple[tuple[object, ...], dict[str, object]]]:
        """Iterate over ``(key, row)`` pairs (rows are the live dicts; do not mutate)."""
        return iter(self._rows.items())

    def count_equal(self, column: str, value: object) -> int:
        """Number of rows with ``row[column] == value`` (``column`` must be indexed)."""
        return len(self._indexes[column].get(value, ()))

    def lookup_equal(self, column: str, value: object) -> list[tuple[object, ...]]:
        """Keys of rows with ``row[column] == value`` in ``repr`` order (``column`` indexed)."""
        return sorted(self._indexes[column].get(value, ()), key=repr)

    def tuple_ids(self) -> list[TupleId]:
        """All tuple ids currently stored."""
        return [TupleId(self.table.name, key) for key in self._rows]

    @property
    def byte_size(self) -> int:
        """Approximate total size in bytes (row count x schema row size)."""
        return len(self._rows) * self.table.row_byte_size
