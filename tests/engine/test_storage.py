"""Tests for table storage."""

import pytest

from repro.catalog.schema import Table, integer_column, string_column
from repro.catalog.tuples import TupleId
from repro.engine.storage import DuplicateKeyError, MissingRowError, TableStorage


@pytest.fixture
def storage() -> TableStorage:
    table = Table(
        "account",
        [integer_column("id"), string_column("name"), integer_column("bal")],
        ["id"],
    )
    store = TableStorage(table)
    for i in range(5):
        store.insert({"id": i, "name": f"user{i}", "bal": i * 100})
    return store


def test_insert_returns_tuple_id(storage):
    tuple_id = storage.insert({"id": 10, "name": "new", "bal": 1})
    assert tuple_id == TupleId("account", (10,))
    assert len(storage) == 6


def test_duplicate_key_rejected(storage):
    with pytest.raises(DuplicateKeyError):
        storage.insert({"id": 0, "name": "dup", "bal": 0})


def test_get_returns_copy(storage):
    row = storage.get((1,))
    row["bal"] = 999_999
    assert storage.get((1,))["bal"] == 100


def test_update_literal_and_delta(storage):
    storage.update((2,), {"bal": 500})
    assert storage.get((2,))["bal"] == 500
    storage.update((2,), {"bal": ("delta", -100)})
    assert storage.get((2,))["bal"] == 400


def test_update_missing_row(storage):
    with pytest.raises(MissingRowError):
        storage.update((99,), {"bal": 1})


def test_delete(storage):
    storage.delete((3,))
    assert (3,) not in storage
    with pytest.raises(MissingRowError):
        storage.delete((3,))


def test_secondary_index_lookup(storage):
    storage.create_index("name")
    assert storage.lookup_equal("name", "user4") == [(4,)]
    storage.update((4,), {"name": "renamed"})
    assert storage.lookup_equal("name", "user4") == []
    assert storage.lookup_equal("name", "renamed") == [(4,)]


def test_index_backfill_and_delete_maintenance(storage):
    storage.create_index("bal")
    assert storage.lookup_equal("bal", 200) == [(2,)]
    storage.delete((2,))
    assert storage.lookup_equal("bal", 200) == []


def test_index_on_unknown_column(storage):
    with pytest.raises(KeyError):
        storage.create_index("missing")


def test_tuple_ids(storage):
    assert storage.tuple_ids() == [TupleId("account", (i,)) for i in range(5)]


def test_byte_size(storage):
    assert storage.byte_size == 5 * storage.table.row_byte_size


def test_validation_of_rows(storage):
    with pytest.raises(ValueError):
        storage.insert({"id": 11, "name": "x"})
    with pytest.raises(TypeError):
        storage.insert({"id": 12, "name": 5, "bal": 0})
