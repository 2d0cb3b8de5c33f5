"""Schema metadata for the simulated shared-nothing database.

The catalog is intentionally small: a :class:`Schema` is a set of
:class:`Table` objects, each with typed :class:`Column` definitions, a primary
key, and optional foreign keys.  The rest of the library (storage engine, SQL
parser, graph builder, explanation phase) consumes these objects rather than
raw strings so that mistakes such as referencing an unknown column surface as
early, explicit errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence


class ColumnType(Enum):
    """Supported column types (the OLTP workloads only need these)."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"

    def python_type(self) -> type:
        """Return the Python type used to store values of this column type."""
        if self is ColumnType.INTEGER:
            return int
        if self is ColumnType.FLOAT:
            return float
        return str


@dataclass(frozen=True)
class Column:
    """A single typed column.

    ``byte_size`` feeds the data-size node weighting of the partitioning
    graph (Section 4.1 of the paper: node weight = tuple size in bytes).
    """

    name: str
    column_type: ColumnType = ColumnType.INTEGER
    byte_size: int = 8

    def validate_value(self, value: object) -> None:
        """Raise :class:`TypeError` if ``value`` does not match the column type."""
        expected = self.column_type.python_type()
        if expected is float and isinstance(value, int):
            return
        if not isinstance(value, expected):
            raise TypeError(
                f"column {self.name!r} expects {expected.__name__}, got {type(value).__name__}"
            )


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference from ``columns`` to ``parent_table.parent_columns``."""

    columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.parent_columns):
            raise ValueError("foreign key column lists must have equal length")


class Table:
    """Table metadata: named columns, a primary key, and foreign keys."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        if not name:
            raise ValueError("table name must be non-empty")
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._columns_by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._columns_by_name:
                raise ValueError(f"duplicate column {column.name!r} in table {name!r}")
            self._columns_by_name[column.name] = column
        self.primary_key: tuple[str, ...] = tuple(primary_key)
        if not self.primary_key:
            raise ValueError(f"table {name!r} must declare a primary key")
        for key_column in self.primary_key:
            if key_column not in self._columns_by_name:
                raise ValueError(
                    f"primary key column {key_column!r} not defined in table {name!r}"
                )
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        for foreign_key in self.foreign_keys:
            for column_name in foreign_key.columns:
                if column_name not in self._columns_by_name:
                    raise ValueError(
                        f"foreign key column {column_name!r} not defined in table {name!r}"
                    )

    # -- lookups -----------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`KeyError`."""
        return self._columns_by_name[name]

    def has_column(self, name: str) -> bool:
        """Return whether the table defines a column named ``name``."""
        return name in self._columns_by_name

    @property
    def column_names(self) -> tuple[str, ...]:
        """All column names in declaration order."""
        return tuple(column.name for column in self.columns)

    @property
    def row_byte_size(self) -> int:
        """Approximate bytes per row (sum of column sizes)."""
        return sum(column.byte_size for column in self.columns)

    # -- row helpers ---------------------------------------------------------------
    def validate_row(self, row: Mapping[str, object]) -> None:
        """Raise if ``row`` is missing columns, has extras, or has type errors."""
        missing = set(self.column_names) - set(row)
        if missing:
            raise ValueError(f"row for table {self.name!r} missing columns {sorted(missing)}")
        extra = set(row) - set(self.column_names)
        if extra:
            raise ValueError(f"row for table {self.name!r} has unknown columns {sorted(extra)}")
        for column in self.columns:
            column.validate_value(row[column.name])

    def primary_key_of(self, row: Mapping[str, object]) -> tuple[object, ...]:
        """Extract the primary-key tuple from ``row``."""
        return tuple(row[column] for column in self.primary_key)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={list(self.column_names)}, pk={list(self.primary_key)})"


class Schema:
    """A named collection of tables."""

    def __init__(self, name: str, tables: Iterable[Table] = ()) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        """Register ``table``; duplicate names are an error."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already defined in schema {self.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Return the table named ``name`` or raise :class:`KeyError`."""
        if name not in self._tables:
            raise KeyError(f"unknown table {name!r} in schema {self.name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        """Return whether the schema defines a table named ``name``."""
        return name in self._tables

    @property
    def tables(self) -> tuple[Table, ...]:
        """All tables in insertion order."""
        return tuple(self._tables.values())

    @property
    def table_names(self) -> tuple[str, ...]:
        """All table names in insertion order."""
        return tuple(self._tables)

    @property
    def primary_keys(self) -> dict[str, tuple[str, ...]]:
        """Every table's primary-key columns, in key order."""
        return {name: table.primary_key for name, table in self._tables.items()}

    def validate_foreign_keys(self) -> None:
        """Check that every foreign key references an existing table and columns."""
        for table in self.tables:
            for foreign_key in table.foreign_keys:
                if not self.has_table(foreign_key.parent_table):
                    raise ValueError(
                        f"table {table.name!r} references unknown table "
                        f"{foreign_key.parent_table!r}"
                    )
                parent = self.table(foreign_key.parent_table)
                for column_name in foreign_key.parent_columns:
                    if not parent.has_column(column_name):
                        raise ValueError(
                            f"table {table.name!r} references unknown column "
                            f"{foreign_key.parent_table}.{column_name}"
                        )

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, tables={list(self.table_names)})"


def integer_column(name: str, byte_size: int = 8) -> Column:
    """Convenience constructor for an integer column."""
    return Column(name, ColumnType.INTEGER, byte_size)


def float_column(name: str, byte_size: int = 8) -> Column:
    """Convenience constructor for a float column."""
    return Column(name, ColumnType.FLOAT, byte_size)


def string_column(name: str, byte_size: int = 32) -> Column:
    """Convenience constructor for a string column."""
    return Column(name, ColumnType.STRING, byte_size)
