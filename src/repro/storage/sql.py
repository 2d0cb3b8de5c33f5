"""Compile the mini-dialect statement ASTs to parameterised SQLite SQL.

The workload generators and the parser both produce
:data:`repro.sqlparse.ast.Statement` values; this module turns them into
``(sql, params)`` pairs for :mod:`sqlite3`.  Values always travel as bind
parameters — never interpolated — so the compiled text depends only on the
statement *shape*: :mod:`repro.sqlparse.shape` renders it once per shape,
and SQLite's statement cache can actually hit.  This module also holds the
DDL that materialises a catalog schema.

The dialect is intentionally small (conjunctions/disjunctions of
comparisons, implicit joins, delta updates); anything outside it is a
programming error and raises :class:`UnsupportedStatementError` rather than
guessing.
"""

from __future__ import annotations

from repro.catalog.schema import ColumnType, Schema, Table
from repro.sqlparse.ast import Statement
from repro.sqlparse.shape import UnsupportedStatementError, analyse, quote_identifier


def compile_statement(statement: Statement) -> tuple[str, list[object]]:
    """Compile one statement AST to ``(sql, params)`` for SQLite."""
    shape, values = analyse(statement)
    if shape.sql is None:
        raise UnsupportedStatementError(f"cannot compile statement {statement!r}")
    return shape.sql, values


_TYPE_AFFINITY = {
    ColumnType.INTEGER: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STRING: "TEXT",
}


def create_table_sql(table: Table) -> str:
    """``CREATE TABLE IF NOT EXISTS`` DDL for one catalog table."""
    columns = [
        f"{quote_identifier(column.name)} {_TYPE_AFFINITY[column.column_type]}"
        for column in table.columns
    ]
    primary_key = ", ".join(quote_identifier(name) for name in table.primary_key)
    columns.append(f"PRIMARY KEY ({primary_key})")
    return (
        f"CREATE TABLE IF NOT EXISTS {quote_identifier(table.name)} "
        f"({', '.join(columns)})"
    )


def create_schema_sql(schema: Schema) -> list[str]:
    """DDL statements materialising ``schema`` (tables + secondary indexes).

    Every SQLite store runs it, the in-memory one behind
    :class:`~repro.engine.database.Database` included, so the planner and the
    partitions see the same tables and indexes.  Primary-key prefix columns
    come with the table's primary key; foreign-key columns get explicit
    secondary indexes, since OLTP statements overwhelmingly filter on them.
    """
    statements = []
    for table in schema.tables:
        statements.append(create_table_sql(table))
        indexed: set[str] = set()
        for foreign_key in table.foreign_keys:
            for column in foreign_key.columns:
                if column in indexed:
                    continue
                indexed.add(column)
                index_name = quote_identifier(f"idx_{table.name}_{column}")
                statements.append(
                    f"CREATE INDEX IF NOT EXISTS {index_name} ON "
                    f"{quote_identifier(table.name)} ({quote_identifier(column)})"
                )
    return statements
