"""One partition's SQLite store: WAL mode, exactly-once apply, carried reads, audits."""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.sqlparse.ast import InsertStatement, SelectStatement, UpdateStatement, eq
from repro.storage.sql import compile_statement
from repro.storage.sqlite_store import SqlitePartitionStore, StoreConstraintError

#: the compiled read of account 1, as the coordinator ships it.
READ_1 = compile_statement(SelectStatement(("account",), where=eq("id", 1)))


def _debit(amount: int, account_id: int = 1):
    return compile_statement(
        UpdateStatement("account", {"bal": ("delta", -amount)}, where=eq("id", account_id))
    )


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
    assert store.apply_transaction("txn-1", [_debit(30)], []) == ("applied", [])
    # the retried-after-timeout case: same txn id must be a no-op.
    assert store.apply_transaction("txn-1", [_debit(30)], []) == ("duplicate", [])
    (rows,) = store.execute_read([READ_1])
    assert rows[0][2] == 70
    assert store.has_transaction("txn-1")
    assert not store.has_transaction("txn-2")


def test_constraint_violation_rolls_back_whole_batch(store):
    _seed_account(store, account_id=1)
    writes = [
        _debit(10),
        compile_statement(InsertStatement("account", {"id": 1, "name": "dup", "bal": 0})),
    ]
    with pytest.raises(StoreConstraintError):
        store.apply_transaction("txn-bad", writes, [READ_1])
    # atomicity: the update preceding the violating insert must not persist,
    # and the txn must not be marked applied (a retry would legitimately fail
    # again, classified fatal).
    (rows,) = store.execute_read([READ_1])
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
        store.apply_transaction("txn-1", [_debit(-5)], [])
    # a reopen is exactly what a supervisor restart does: the dedup marker
    # and the committed write must both be there.
    with SqlitePartitionStore(path, bank_schema) as reopened:
        assert reopened.has_transaction("txn-1")
        (rows,) = reopened.execute_read([READ_1])
        assert rows[0][2] == 105


def test_carried_reads_see_the_state_before_the_applys_writes(store):
    _seed_account(store, bal=100)
    status, (before, other) = store.apply_transaction(
        "txn-1",
        [_debit(30)],
        [READ_1, compile_statement(SelectStatement(("account",), where=eq("id", 2)))],
    )
    assert status == "applied"
    assert before == [(1, "carlo", 100)] and other == []
    (after,) = store.execute_read([READ_1])
    assert after == [(1, "carlo", 70)]


def test_a_duplicate_apply_returns_its_reads_rows_and_changes_nothing(store):
    _seed_account(store, bal=100)
    assert store.apply_transaction("txn-1", [_debit(30)], []) == ("applied", [])
    # the resent payload of an in-doubt completion: the dedup marker wins, the
    # reads still answer (with the state the first apply left).
    assert store.apply_transaction("txn-1", [_debit(30)], [READ_1]) == (
        "duplicate",
        [[(1, "carlo", 70)]],
    )
    assert store.execute_read([READ_1]) == [[(1, "carlo", 70)]]
    assert store.row_count() == 1

