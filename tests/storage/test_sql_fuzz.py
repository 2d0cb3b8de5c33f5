"""Property-based fuzz: the Database agrees with a brute-force Python model.

The :class:`~repro.engine.database.Database` runs every statement as
compiled SQL on SQLite, so comparing it with a SQLite partition store would
compare SQLite with SQLite.  The oracle here is independent of SQL: a model
that keeps rows in a dict, finds a statement's rows by checking
:func:`~repro.sqlparse.predicates.evaluate_predicate` on every row, and
applies deltas, assignments and deletes in Python.

Seeded random write-statement ASTs (inserts, delta and assignment updates,
deletes, over the mini-dialect's predicate grammar: =, <>, range
inequalities, BETWEEN, IN — alone and under AND/OR) are applied in the same
order to the Database, to the model, and to a real
:class:`~repro.storage.sqlite_store.SqlitePartitionStore` through
:mod:`repro.storage.sql`'s compiled ``(sql, params)`` pairs.  Each
statement's write set must equal the model's, and after every burst the
three row states must be identical.  Any semantic drift — predicate
evaluation, delta updates, empty IN lists, type affinity — shows up as a
diff with the seed that produced it.  Runs under both array backends.

A second, two-table schema (one table with a composite primary key) checks
reads: random join SELECTs with AND/OR over both tables must return the
model's rows, both from the Database and, as the explicit-column SQL a
partition serves, from a partition store; the Database's read set must be
exactly the primary keys of the rows that contribute to them.
``k1 = ? AND k2 IN (...)`` delta UPDATEs whose IN lists repeat values must
apply once per row, in all three.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.schema import (
    ForeignKey,
    Schema,
    Table,
    float_column,
    integer_column,
    string_column,
)
from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.graph.backend import backend_context, numpy
from repro.sqlparse.ast import (
    And,
    ColumnRef,
    Comparison,
    DeleteStatement,
    InsertStatement,
    JoinCondition,
    Or,
    SelectStatement,
    UpdateStatement,
)
from repro.sqlparse.predicates import evaluate_predicate
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


class _Model:
    """Brute force: rows in a dict per table, every row checked against the WHERE clause."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.rows: dict[str, dict[tuple, dict]] = {table.name: {} for table in schema.tables}

    def insert(self, table: str, row: dict) -> TupleId:
        key = self.schema.table(table).primary_key_of(row)
        assert key not in self.rows[table]
        self.rows[table][key] = dict(row)
        return TupleId(table, key)

    def _matching(self, table: str, where) -> list[tuple]:
        return [key for key, row in self.rows[table].items() if evaluate_predicate(where, row)]

    def write(self, statement) -> set[TupleId]:
        """Apply one write statement; its write set."""
        if isinstance(statement, InsertStatement):
            return {self.insert(statement.table, statement.row)}
        rows = self.rows[statement.table]
        keys = self._matching(statement.table, statement.where)
        for key in keys:
            if isinstance(statement, DeleteStatement):
                del rows[key]
                continue
            for column, value in statement.assignments.items():
                if isinstance(value, tuple) and value[0] == "delta":
                    rows[key][column] += value[1]
                else:
                    rows[key][column] = value
        return {TupleId(statement.table, key) for key in keys}

    def select(self, statement: SelectStatement) -> tuple[list[dict], set[TupleId]]:
        """A nested-loop join in FROM order: the joined rows and their contributing keys."""
        joined: list[tuple[dict, frozenset]] = [({}, frozenset())]
        for table in statement.tables:
            extended = []
            for partial, sources in joined:
                for key, row in self.rows[table].items():
                    candidate = dict(partial)
                    for column, value in row.items():
                        candidate[f"{table}.{column}"] = value
                        candidate.setdefault(column, value)
                    extended.append((candidate, sources | {TupleId(table, key)}))
            joined = extended
        matched = [pair for pair in joined if evaluate_predicate(statement.where, pair[0])]
        return [row for row, _ in matched], {t for _, sources in matched for t in sources}


@pytest.mark.parametrize("array_backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_compiled_statements_match_engine_row_state(tmp_path, seed, array_backend):
    with backend_context(array_backend):
        rng = random.Random(seed)
        schema = _schema()
        database = Database(schema)
        model = _Model(schema)
        for row in _seed_rows():
            database.insert_row("item", row)
            model.insert("item", row)
        store = SqlitePartitionStore(tmp_path / f"fuzz-{seed}.sqlite", schema)
        try:
            store.bulk_load("item", _seed_rows())
            state = {"next_id": NUM_SEED_ROWS}
            for index in range(NUM_STATEMENTS):
                statement = _random_statement(rng, state)
                result = database.execute(statement)
                assert result.write_set == model.write(statement), str(statement)
                assert result.read_set == set()
                outcome = store.apply_transaction(
                    f"fuzz-{seed}-{index}", [compile_statement(statement)], []
                )
                assert outcome == ("applied", [])
                if index % 50 == 0:
                    assert database.rows("item") == model.rows["item"]
                    assert store.all_rows("item") == model.rows["item"]
            assert database.rows("item") == model.rows["item"]
            assert store.all_rows("item") == model.rows["item"]
            # Exactly-once: replaying any txn id is a durable no-op.
            replay = store.apply_transaction(
                f"fuzz-{seed}-0", [compile_statement(DeleteStatement("item", where=None))], []
            )
            assert replay == ("duplicate", [])
            assert store.all_rows("item") == model.rows["item"]
        finally:
            store.close()


# -- joins and composite keys -------------------------------------------------------------
NUM_JOIN_STATEMENTS = 150

A_ID, A_X = ColumnRef("id", "a"), ColumnRef("x", "a")
B_K1, B_K2 = ColumnRef("k1", "b"), ColumnRef("k2", "b")
B_A_ID, B_W = ColumnRef("a_id", "b"), ColumnRef("w", "b")
JOIN = JoinCondition(A_ID, B_A_ID)

#: shapes the engine once answered wrongly: an OR under the join's AND was
#: never checked, and a join condition under an OR still pruned the product.
FIXED_JOIN_WHERES = [
    And(
        children=(
            JOIN,
            Or(children=(Comparison(A_X, "=", value=1), Comparison(B_W, "=", value=2))),
        )
    ),
    Or(children=(JOIN, Comparison(A_X, "=", value=1))),
]


def _join_schema() -> Schema:
    return Schema(
        "fuzz-join",
        [
            Table("a", [integer_column("id"), integer_column("x")], primary_key=["id"]),
            Table(
                "b",
                [
                    integer_column("k1"),
                    integer_column("k2"),
                    integer_column("a_id"),
                    integer_column("w"),
                ],
                primary_key=["k1", "k2"],
                foreign_keys=[ForeignKey(("a_id",), "a", ("id",))],
            ),
        ],
    )


def _join_seed_rows() -> dict[str, list[dict]]:
    return {
        "a": [{"id": i, "x": i % 3} for i in range(6)],
        "b": [
            {"k1": k1, "k2": k2, "a_id": (k1 + 2 * k2) % 7, "w": (3 * k1 + k2) % 4}
            for k1 in range(3)
            for k2 in range(4)
        ],
    }


def _join_leaf(rng: random.Random) -> Comparison:
    kind = rng.randrange(6)
    if kind == 0:
        return Comparison(A_ID, "=", value=rng.randrange(7))
    if kind == 1:
        return Comparison(A_X, rng.choice(("=", "<>", "<", ">=")), value=rng.randrange(3))
    if kind == 2:
        return Comparison(B_K1, "=", value=rng.randrange(4))
    if kind == 3:
        return Comparison(B_K2, "in", values=tuple(rng.choices(range(5), k=rng.randrange(4))))
    if kind == 4:
        low = rng.randrange(4)
        return Comparison(B_W, "between", low=low, high=low + rng.randrange(2))
    return Comparison(B_A_ID, "=", value=rng.randrange(7))


def _random_join_where(rng: random.Random):
    shape = rng.randrange(6)
    if shape == 0:
        return And(children=(JOIN, _join_leaf(rng)))
    if shape == 1:
        return And(children=(JOIN, Or(children=(_join_leaf(rng), _join_leaf(rng)))))
    if shape == 2:
        return Or(children=(JOIN, _join_leaf(rng)))
    if shape == 3:
        return And(children=(JOIN, _join_leaf(rng), _join_leaf(rng)))
    if shape == 4:
        return Or(children=(And(children=(JOIN, _join_leaf(rng))), _join_leaf(rng)))
    return And(children=(_join_leaf(rng), _join_leaf(rng)))


def _composite_key_update(rng: random.Random) -> tuple[UpdateStatement, list[tuple[int, int]]]:
    """``k1 = ? AND k2 IN (...)`` with repeated values, and the keys it names."""
    k1 = rng.randrange(4)
    values = tuple(rng.choices(range(5), k=rng.randrange(1, 6)))
    where = And(children=(Comparison(B_K1, "=", value=k1), Comparison(B_K2, "in", values=values)))
    statement = UpdateStatement(
        "b", assignments={"w": ("delta", rng.randrange(1, 4))}, where=where
    )
    return statement, [(k1, k2) for k2 in values]


def _check_join(
    database: Database, model: _Model, store: SqlitePartitionStore, where
) -> None:
    statement = SelectStatement(("a", "b"), columns=(A_ID, B_K1, B_K2), where=where)
    result = database.execute(statement)
    expected_rows, expected_reads = model.select(statement)
    assert sorted(map(sorted, (row.items() for row in result.rows))) == sorted(
        map(sorted, (row.items() for row in expected_rows))
    ), str(where)
    assert result.read_set == expected_reads, str(where)
    # The explicit-column SQL a partition serves returns the projected rows.
    [served] = store.execute_read([compile_statement(statement)])
    projected = [(row["a.id"], row["b.k1"], row["b.k2"]) for row in expected_rows]
    assert sorted(served) == sorted(projected), str(where)


@pytest.mark.parametrize("array_backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_join_selects_and_composite_key_updates_match_sqlite(tmp_path, seed, array_backend):
    with backend_context(array_backend):
        rng = random.Random(seed)
        schema = _join_schema()
        database = Database(schema)
        model = _Model(schema)
        store = SqlitePartitionStore(tmp_path / f"join-{seed}.sqlite", schema)
        try:
            for table, rows in _join_seed_rows().items():
                for row in rows:
                    database.insert_row(table, row)
                    model.insert(table, row)
                store.bulk_load(table, rows)
            for where in FIXED_JOIN_WHERES:
                _check_join(database, model, store, where)
            for index in range(NUM_JOIN_STATEMENTS):
                if rng.randrange(3):
                    _check_join(database, model, store, _random_join_where(rng))
                    continue
                statement, keys = _composite_key_update(rng)
                written = database.execute(statement).write_set
                assert written == model.write(statement)
                assert written == {TupleId("b", key) for key in keys if key in model.rows["b"]}
                outcome = store.apply_transaction(
                    f"join-{seed}-{index}", [compile_statement(statement)], []
                )
                assert outcome == ("applied", [])
                assert database.rows("b") == model.rows["b"]
                assert store.all_rows("b") == model.rows["b"]
        finally:
            store.close()
