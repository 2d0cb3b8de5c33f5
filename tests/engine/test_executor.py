"""Tests for statement execution and read/write-set extraction."""

import pytest

from repro.catalog.schema import ForeignKey, Schema, Table, integer_column
from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.sqlparse.ast import (
    ColumnRef,
    Comparison,
    DeleteStatement,
    InsertStatement,
    JoinCondition,
    SelectStatement,
    UpdateStatement,
    between,
    conj,
    eq,
    in_list,
)


class TestSelect:
    def test_primary_key_lookup(self, bank_database):
        result = bank_database.execute(SelectStatement(("account",), where=eq("id", 2)))
        assert len(result.rows) == 1
        assert result.read_set == {TupleId("account", (2,))}
        assert result.write_set == set()

    def test_in_list_read_set(self, bank_database):
        result = bank_database.execute(SelectStatement(("account",), where=in_list("id", [1, 3])))
        assert result.read_set == {TupleId("account", (1,)), TupleId("account", (3,))}

    def test_range_scan(self, bank_database):
        result = bank_database.execute(SelectStatement(("account",), where=between("id", 2, 4)))
        assert {row["id"] for row in result.rows} == {2, 3, 4}

    def test_non_key_predicate_scan(self, bank_database):
        statement = SelectStatement(("account",), where=eq("name", "carlo"))
        result = bank_database.execute(statement)
        assert result.read_set == {TupleId("account", (1,))}

    def test_limit(self, bank_database):
        result = bank_database.execute(SelectStatement(("account",), limit=2))
        assert len(result.rows) == 2

    def test_projection(self, bank_database):
        statement = SelectStatement(("account",), columns=(ColumnRef("name"),), where=eq("id", 1))
        result = bank_database.execute(statement)
        assert result.rows == [{"name": "carlo"}]

    def test_no_match_empty(self, bank_database):
        result = bank_database.execute(SelectStatement(("account",), where=eq("id", 99)))
        assert result.rows == [] and result.read_set == set()


class TestJoin:
    def test_join_reads_the_contributing_rows_of_both_tables(self):
        schema = Schema(
            "shop",
            [
                Table("customer", [integer_column("id"), integer_column("tier")], ["id"]),
                Table(
                    "orders",
                    [integer_column("o_id"), integer_column("c_id"), integer_column("tier")],
                    ["o_id"],
                    foreign_keys=[ForeignKey(("c_id",), "customer", ("id",))],
                ),
            ],
        )
        database = Database(schema)
        for customer in range(3):
            database.insert_row("customer", {"id": customer, "tier": customer % 2})
        for order in range(6):
            database.insert_row("orders", {"o_id": order, "c_id": order % 3, "tier": 7})
        join = SelectStatement(
            ("customer", "orders"),
            where=conj(
                JoinCondition(ColumnRef("id", "customer"), ColumnRef("c_id", "orders")),
                Comparison(ColumnRef("tier", "customer"), "=", 1),
            ),
        )
        result = database.execute(join)
        assert result.read_set == {
            TupleId("customer", (1,)),
            TupleId("orders", (1,)),
            TupleId("orders", (4,)),
        }
        assert {row["orders.o_id"] for row in result.rows} == {1, 4}
        # A column both tables have reads, unqualified, as the first table's.
        assert all(row["tier"] == row["customer.tier"] == 1 for row in result.rows)
        assert all(row["orders.tier"] == 7 for row in result.rows)


class TestWrites:
    def test_insert(self, bank_database):
        statement = InsertStatement("account", {"id": 9, "name": "newbie", "bal": 5})
        result = bank_database.execute(statement)
        assert result.write_set == {TupleId("account", (9,))}
        assert bank_database.get_row(TupleId("account", (9,)))["name"] == "newbie"

    def test_update_delta(self, bank_database):
        statement = UpdateStatement("account", {"bal": ("delta", -1000)}, where=eq("name", "carlo"))
        result = bank_database.execute(statement)
        assert result.write_set == {TupleId("account", (1,))}
        assert bank_database.get_row(TupleId("account", (1,)))["bal"] == 79_000

    def test_update_by_range_touches_multiple(self, bank_database):
        statement = UpdateStatement(
            "account", {"bal": ("delta", 1)}, where=Comparison(ColumnRef("bal"), "<", 100_000)
        )
        result = bank_database.execute(statement)
        assert len(result.write_set) == 4

    def test_delete(self, bank_database):
        statement = DeleteStatement("account", where=eq("id", 5))
        result = bank_database.execute(statement)
        assert result.write_set == {TupleId("account", (5,))}
        assert bank_database.get_row(TupleId("account", (5,))) is None

    def test_sql_text_execution(self, bank_database):
        result = bank_database.execute("SELECT * FROM account WHERE id = 4")
        assert result.read_set == {TupleId("account", (4,))}



class TestAccessRule:
    """The rows a statement touches when its keys are pinned, partly pinned or ranged."""

    @pytest.fixture
    def lines(self) -> Database:
        table = Table(
            "line",
            [integer_column("w"), integer_column("o"), integer_column("n"), integer_column("q")],
            ["w", "o", "n"],
        )
        database = Database(Schema("lines", [table]))
        for w in range(2):
            for o in range(5):
                for n in range(3):
                    database.insert_row("line", {"w": w, "o": o, "n": n, "q": 0})
        return database

    def test_pinned_composite_keys_skip_missing_and_repeated(self, lines):
        where = conj(eq("w", 1), eq("o", 2), in_list("n", [0, 0, 2, 7]))
        result = lines.execute(SelectStatement(("line",), where=where))
        assert result.read_set == {TupleId("line", (1, 2, 0)), TupleId("line", (1, 2, 2))}
        assert len(result.rows) == 2

    def test_repeated_in_values_update_each_row_once(self, lines):
        where = conj(eq("w", 0), eq("o", 1), in_list("n", [1, 1, 1]))
        lines.execute(UpdateStatement("line", {"q": ("delta", 5)}, where=where))
        assert lines.get_row(TupleId("line", (0, 1, 1)))["q"] == 5

    def test_smallest_index_bucket_is_examined(self, lines):
        statement = SelectStatement(("line",), where=conj(eq("w", 0), eq("o", 3)))
        result = lines.execute(statement)
        assert result.read_set == {TupleId("line", (0, 3, n)) for n in range(3)}

    def test_range_scans_every_row(self, lines):
        result = lines.execute(SelectStatement(("line",), where=between("o", 1, 2)))
        assert len(result.read_set) == 12
        assert {tuple_id.key[1] for tuple_id in result.read_set} == {1, 2}
