"""One partition's SQLite store: WAL mode, exactly-once apply, audits."""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.sqlparse.ast import InsertStatement, SelectStatement, UpdateStatement, eq
from repro.storage.sqlite_store import SqlitePartitionStore, StoreConstraintError


@pytest.fixture
def store(tmp_path, bank_schema):
    with SqlitePartitionStore(tmp_path / "p0.sqlite", bank_schema) as opened:
        yield opened


def _seed_account(store, account_id=1, name="carlo", bal=100):
    store.bulk_load("account", [{"id": account_id, "name": name, "bal": bal}])


def test_wal_mode_is_active(store):
    (mode,) = store._connection.execute("PRAGMA journal_mode").fetchone()
    assert mode == "wal"


def test_apply_is_exactly_once_for_delta_updates(store):
    _seed_account(store, bal=100)
    statements = [UpdateStatement("account", {"bal": ("delta", -30)}, where=eq("id", 1))]
    assert store.apply_transaction("txn-1", statements) == "applied"
    # the retried-after-timeout case: same txn id must be a no-op.
    assert store.apply_transaction("txn-1", statements) == "duplicate"
    (rows,) = store.execute_read([SelectStatement(("account",), where=eq("id", 1))])
    assert rows[0][2] == 70
    assert store.has_transaction("txn-1")
    assert not store.has_transaction("txn-2")


def test_constraint_violation_rolls_back_whole_batch(store):
    _seed_account(store, account_id=1)
    statements = [
        UpdateStatement("account", {"bal": ("delta", -10)}, where=eq("id", 1)),
        InsertStatement("account", {"id": 1, "name": "dup", "bal": 0}),  # duplicate pk
    ]
    with pytest.raises(StoreConstraintError):
        store.apply_transaction("txn-bad", statements)
    # atomicity: the update preceding the violating insert must not persist,
    # and the txn must not be marked applied (a retry would legitimately fail
    # again, classified fatal).
    (rows,) = store.execute_read([SelectStatement(("account",), where=eq("id", 1))])
    assert rows[0][2] == 100
    assert not store.has_transaction("txn-bad")


def test_audit_walks_cover_loaded_rows(store):
    store.bulk_load(
        "account",
        [
            {"id": 1, "name": "carlo", "bal": 10},
            {"id": 2, "name": "evan", "bal": 20},
        ],
    )
    assert store.row_count() == 2
    rows = store.all_rows("account")
    assert rows[(1,)]["name"] == "carlo"
    assert rows[(2,)]["bal"] == 20
    assert sorted(store.tuple_ids()) == [
        TupleId("account", (1,)),
        TupleId("account", (2,)),
    ]


def test_state_survives_reopen(tmp_path, bank_schema):
    path = tmp_path / "p0.sqlite"
    with SqlitePartitionStore(path, bank_schema) as store:
        _seed_account(store)
        store.apply_transaction(
            "txn-1",
            [UpdateStatement("account", {"bal": ("delta", 5)}, where=eq("id", 1))],
        )
    # a reopen is exactly what a supervisor restart does: the dedup marker
    # and the committed write must both be there.
    with SqlitePartitionStore(path, bank_schema) as reopened:
        assert reopened.has_transaction("txn-1")
        (rows,) = reopened.execute_read([SelectStatement(("account",), where=eq("id", 1))])
        assert rows[0][2] == 105
