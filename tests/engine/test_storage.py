"""Tests for the Database's row storage (its in-memory SQLite store)."""

import pytest

from repro.catalog.schema import Schema, Table, integer_column, string_column
from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.sqlparse.ast import UpdateStatement, eq


@pytest.fixture
def database() -> Database:
    table = Table(
        "account",
        [integer_column("id"), string_column("name"), integer_column("bal")],
        ["id"],
    )
    database = Database(Schema("bank", [table]))
    for i in range(5):
        database.insert_row("account", {"id": i, "name": f"user{i}", "bal": i * 100})
    return database


def test_insert_returns_tuple_id(database):
    tuple_id = database.insert_row("account", {"id": 10, "name": "new", "bal": 1})
    assert tuple_id == TupleId("account", (10,))
    assert database.row_count("account") == 6


def test_duplicate_key_rejected(database):
    with pytest.raises(ValueError):
        database.insert_row("account", {"id": 0, "name": "dup", "bal": 0})
    assert database.get_row(TupleId("account", (0,)))["name"] == "user0"


def test_get_returns_copy(database):
    row = database.get_row(TupleId("account", (1,)))
    row["bal"] = 999_999
    assert database.get_row(TupleId("account", (1,)))["bal"] == 100


def test_update_literal_and_delta(database):
    database.execute(UpdateStatement("account", {"bal": 500}, where=eq("id", 2)))
    assert database.get_row(TupleId("account", (2,)))["bal"] == 500
    database.execute(UpdateStatement("account", {"bal": ("delta", -100)}, where=eq("id", 2)))
    assert database.get_row(TupleId("account", (2,)))["bal"] == 400


def test_update_missing_row(database):
    result = database.execute(UpdateStatement("account", {"bal": 1}, where=eq("id", 99)))
    assert result.write_set == set()
    assert database.get_row(TupleId("account", (99,))) is None
    assert database.row_count() == 5


def test_delete(database):
    tuple_id = TupleId("account", (3,))
    assert database.delete_row(tuple_id)
    assert database.get_row(tuple_id) is None
    assert not database.delete_row(tuple_id)


def test_tuple_ids(database):
    assert database.all_tuple_ids("account") == [TupleId("account", (i,)) for i in range(5)]


def test_validation_of_rows(database):
    with pytest.raises(ValueError):
        database.insert_row("account", {"id": 11, "name": "x"})
    with pytest.raises(TypeError):
        database.insert_row("account", {"id": 12, "name": 5, "bal": 0})
    assert database.row_count() == 5
