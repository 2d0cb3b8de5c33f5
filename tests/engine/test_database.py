"""Tests for the Database facade."""

import pytest

from repro.catalog.tuples import TupleId


def test_row_count_and_tuple_ids(bank_database):
    assert bank_database.row_count() == 5
    assert bank_database.row_count("account") == 5
    assert len(bank_database.all_tuple_ids()) == 5
    assert len(bank_database.all_tuple_ids("account")) == 5


def test_primary_key_indexed_by_default(bank_database):
    storage = bank_database.storage("account")
    assert "id" in storage.indexed_columns


def test_get_row_and_byte_size(bank_database):
    tuple_id = TupleId("account", (1,))
    assert bank_database.get_row(tuple_id)["name"] == "carlo"
    assert bank_database.tuple_byte_size(tuple_id) == bank_database.table("account").row_byte_size


def test_unknown_table_raises(bank_database):
    with pytest.raises(KeyError):
        bank_database.storage("missing")


def test_create_index(bank_database):
    bank_database.create_index("account", "name")
    assert "name" in bank_database.storage("account").indexed_columns
