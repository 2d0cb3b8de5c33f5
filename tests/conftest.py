"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Schema, Table, integer_column, string_column
from repro.engine.database import Database
from repro.sqlparse.ast import (
    ColumnRef,
    Comparison,
    SelectStatement,
    UpdateStatement,
    eq,
    in_list,
)
from repro.workload.rwsets import AccessTrace, extract_access_trace
from repro.workload.trace import Workload
from repro.workloads import TpccConfig, generate_tpcc


@pytest.fixture
def bank_schema() -> Schema:
    """A one-table bank schema mirroring the paper's running example."""
    return Schema(
        "bank",
        [
            Table(
                "account",
                [integer_column("id"), string_column("name"), integer_column("bal")],
                primary_key=["id"],
            )
        ],
    )


@pytest.fixture
def bank_database(bank_schema: Schema) -> Database:
    """The five-account database from Figure 2 of the paper."""
    database = Database(bank_schema)
    rows = [
        (1, "carlo", 80_000),
        (2, "evan", 60_000),
        (3, "sam", 129_000),
        (4, "eugene", 29_000),
        (5, "yang", 12_000),
    ]
    for account_id, name, balance in rows:
        database.insert_row("account", {"id": account_id, "name": name, "bal": balance})
    return database


@pytest.fixture
def bank_workload() -> Workload:
    """The four transactions of Figure 2."""
    workload = Workload("bank")
    workload.add_statements(
        [
            UpdateStatement("account", {"bal": ("delta", -1000)}, where=eq("name", "carlo")),
            UpdateStatement("account", {"bal": ("delta", 1000)}, where=eq("name", "evan")),
        ],
        kind="transfer",
    )
    workload.add_statements(
        [SelectStatement(("account",), where=eq("id", 1)), SelectStatement(("account",), where=eq("id", 3))],
        kind="read-pair",
    )
    workload.add_statements(
        [
            UpdateStatement("account", {"bal": 60_000}, where=eq("id", 2)),
            SelectStatement(("account",), where=eq("id", 5)),
        ],
        kind="mixed",
    )
    workload.add_statements(
        [
            UpdateStatement(
                "account",
                {"bal": ("delta", 1000)},
                where=Comparison(ColumnRef("bal"), "<", 100_000),
            )
        ],
        kind="bulk",
    )
    return workload


@pytest.fixture
def tiny_tpcc():
    """A small TPC-C bundle (fresh per test: extraction mutates the database)."""
    config = TpccConfig(
        warehouses=2,
        districts_per_warehouse=3,
        customers_per_district=10,
        items=50,
    )
    return generate_tpcc(config, num_transactions=300)


class KeyedTable:
    """A table ``t(id, v)`` holding ids ``0 .. rows - 1``, and SQL over its keys.

    What cost-model and validation tests score: each transaction is real SQL
    whose read/write sets come from executing it, so the router and the
    extracted trace see the same statements.
    """

    schema = Schema("keyed", [Table("t", [integer_column("id"), integer_column("v")], ["id"])])

    def __init__(self, rows: int = 400) -> None:
        self.database = Database(self.schema)
        for key in range(rows):
            self.database.insert_row("t", {"id": key, "v": 0})

    @staticmethod
    def read(*keys: int) -> SelectStatement:
        """``SELECT * FROM t WHERE id IN (keys)``."""
        return SelectStatement(("t",), where=in_list("id", keys))

    @staticmethod
    def write(*keys: int) -> UpdateStatement:
        """``UPDATE t SET v = v + 1 WHERE id IN (keys)``."""
        return UpdateStatement("t", {"v": ("delta", 1)}, where=in_list("id", keys))

    def trace(self, *transactions) -> AccessTrace:
        """Execute ``transactions`` (statement sequences) and record their accesses."""
        workload = Workload("keyed")
        for statements in transactions:
            workload.add_statements(statements)
        return extract_access_trace(self.database, workload)


@pytest.fixture
def keyed() -> KeyedTable:
    """A fresh :class:`KeyedTable` (execution mutates its database)."""
    return KeyedTable()
