"""Tests for the Database facade."""

import threading

import pytest

from repro.catalog.schema import Schema, Table, integer_column
from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.sqlparse.ast import SelectStatement, eq


def test_row_count_and_tuple_ids(bank_database):
    assert bank_database.row_count() == 5
    assert bank_database.row_count("account") == 5
    assert len(bank_database.all_tuple_ids()) == 5
    assert len(bank_database.all_tuple_ids("account")) == 5


def test_get_row_and_byte_size(bank_database):
    tuple_id = TupleId("account", (1,))
    assert bank_database.get_row(tuple_id)["name"] == "carlo"
    assert bank_database.tuple_byte_size(tuple_id) == bank_database.table("account").row_byte_size


def test_unknown_table_raises(bank_database):
    with pytest.raises(KeyError):
        bank_database.rows("missing")
    with pytest.raises(KeyError):
        bank_database.insert_row("missing", {"id": 1})


def test_rows_walk_in_rowid_order(bank_database):
    rows = bank_database.rows("account")
    assert list(rows) == [(i,) for i in range(1, 6)]
    assert rows[(3,)] == {"id": 3, "name": "sam", "bal": 129_000}
    # A single INTEGER key is the rowid: a late, smaller key walks in key order.
    bank_database.insert_row("account", {"id": 0, "name": "zoe", "bal": 1})
    assert list(bank_database.rows("account")) == [(i,) for i in range(0, 6)]
    assert bank_database.all_tuple_ids("account")[0] == TupleId("account", (0,))


def test_rows_walk_in_insertion_order_without_an_integer_key():
    schema = Schema(
        "pairs",
        [
            Table(
                "pair",
                [integer_column("a"), integer_column("b")],
                primary_key=["a", "b"],
            )
        ],
    )
    database = Database(schema)
    for key in [(2, 1), (1, 9), (1, 2)]:
        database.insert_row("pair", {"a": key[0], "b": key[1]})
    assert list(database.rows("pair")) == [(2, 1), (1, 9), (1, 2)]
    assert database.all_tuple_ids() == [TupleId("pair", key) for key in [(2, 1), (1, 9), (1, 2)]]


def test_usable_from_another_thread(bank_database):
    # The storage coordinator writes its oracle from client threads.
    results = []
    thread = threading.Thread(
        target=lambda: results.append(
            bank_database.execute(SelectStatement(("account",), where=eq("id", 2)))
        )
    )
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert results[0].read_set == {TupleId("account", (2,))}
