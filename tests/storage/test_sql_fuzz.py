"""Property-based fuzz: the SQLite compiler agrees with the simulated engine.

Seeded random write-statement ASTs (inserts, delta and assignment updates,
deletes, over the mini-dialect's predicate grammar: =, <>, range
inequalities, BETWEEN, IN — alone and under AND/OR) are applied in the same
order to

* an in-memory :class:`~repro.engine.database.Database` (the simulated
  engine the planner and oracle audits trust), and
* a real :class:`~repro.storage.sqlite_store.SqlitePartitionStore` through
  :mod:`repro.storage.sql`'s compiled ``(sql, params)`` pairs,

and after every burst the two row states must be identical.  Any semantic
drift between the two execution paths — predicate evaluation, delta
updates, empty IN lists, type affinity — shows up as a row diff with the
seed that produced it.  Runs under both array backends, since the engine's
row state is the oracle every storage audit compares against.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.schema import (
    Schema,
    Table,
    float_column,
    integer_column,
    string_column,
)
from repro.engine.database import Database
from repro.graph.backend import backend_context, numpy
from repro.sqlparse.ast import (
    And,
    ColumnRef,
    Comparison,
    DeleteStatement,
    InsertStatement,
    Or,
    UpdateStatement,
)
from repro.storage.sql import compile_statement
from repro.storage.sqlite_store import SqlitePartitionStore

pytestmark = pytest.mark.storage

BACKENDS = [
    "list",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(numpy is None, reason="numpy not installed"),
    ),
]

NUM_SEED_ROWS = 30
NUM_STATEMENTS = 200


def _schema() -> Schema:
    return Schema(
        "fuzz",
        [
            Table(
                "item",
                [
                    integer_column("id"),
                    string_column("name"),
                    integer_column("qty"),
                    float_column("score"),
                ],
                primary_key=["id"],
            )
        ],
    )


def _column(name: str) -> ColumnRef:
    return ColumnRef(name)


def _random_predicate(rng: random.Random, next_id: int):
    """A predicate from the dialect both execution paths support."""

    def leaf():
        kind = rng.randrange(5)
        if kind == 0:  # primary-key equality (sometimes missing rows)
            return Comparison(_column("id"), "=", value=rng.randrange(next_id + 5))
        if kind == 1:  # BETWEEN over the key space
            low = rng.randrange(next_id + 1)
            return Comparison(
                _column("id"), "between", low=low, high=low + rng.randrange(8)
            )
        if kind == 2:  # inequality on a non-key integer column
            operator = rng.choice(("<", "<=", ">", ">=", "<>"))
            return Comparison(_column("qty"), operator, value=rng.randrange(-5, 25))
        if kind == 3:  # IN lists, occasionally empty (matches nothing)
            population = range(next_id + 2)
            count = rng.choice((0, 1, 2, 4))
            values = tuple(rng.sample(population, min(count, next_id + 2)))
            return Comparison(_column("id"), "in", values=values)
        return Comparison(_column("name"), "=", value=f"item-{rng.randrange(next_id + 2)}")

    shape = rng.randrange(4)
    if shape == 0:
        return And(children=(leaf(), leaf()))
    if shape == 1:
        return Or(children=(leaf(), leaf()))
    return leaf()


def _random_statement(rng: random.Random, state: dict):
    kind = rng.randrange(6)
    if kind in (0, 1):  # insert a fresh row (unique key: both paths must agree)
        row_id = state["next_id"]
        state["next_id"] += 1
        return InsertStatement(
            "item",
            row={
                "id": row_id,
                "name": f"item-{row_id}",
                "qty": rng.randrange(0, 20),
                "score": round(rng.uniform(0.0, 10.0), 3),
            },
        )
    where = _random_predicate(rng, state["next_id"])
    if kind in (2, 3):  # delta update (the OLTP hot path)
        return UpdateStatement(
            "item",
            assignments={"qty": ("delta", rng.randrange(-3, 4))},
            where=where,
        )
    if kind == 4:  # plain assignment update
        return UpdateStatement(
            "item",
            assignments={
                "name": f"renamed-{rng.randrange(100)}",
                "score": round(rng.uniform(0.0, 10.0), 3),
            },
            where=where,
        )
    return DeleteStatement("item", where=where)


def _seed_rows() -> list[dict]:
    return [
        {"id": i, "name": f"item-{i}", "qty": i % 7, "score": float(i)}
        for i in range(NUM_SEED_ROWS)
    ]


def _engine_rows(database: Database) -> dict:
    return {key: dict(row) for key, row in database.storage("item").rows()}


@pytest.mark.parametrize("array_backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_compiled_statements_match_engine_row_state(tmp_path, seed, array_backend):
    with backend_context(array_backend):
        rng = random.Random(seed)
        schema = _schema()
        database = Database(schema)
        for row in _seed_rows():
            database.insert_row("item", row)
        store = SqlitePartitionStore(tmp_path / f"fuzz-{seed}.sqlite", schema)
        try:
            store.bulk_load("item", _seed_rows())
            state = {"next_id": NUM_SEED_ROWS}
            for index in range(NUM_STATEMENTS):
                statement = _random_statement(rng, state)
                database.execute(statement)
                outcome = store.apply_transaction(
                    f"fuzz-{seed}-{index}", [compile_statement(statement)], []
                )
                assert outcome == ("applied", [])
                if index % 50 == 0:
                    assert store.all_rows("item") == _engine_rows(database)
            assert store.all_rows("item") == _engine_rows(database)
            # Exactly-once: replaying any txn id is a durable no-op.
            replay = store.apply_transaction(
                f"fuzz-{seed}-0", [compile_statement(DeleteStatement("item", where=None))], []
            )
            assert replay == ("duplicate", [])
            assert store.all_rows("item") == _engine_rows(database)
        finally:
            store.close()
