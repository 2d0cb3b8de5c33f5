"""Statement shapes: one analysis per shape gives what the per-statement walks gave.

The reference for every random statement is the derivation the shape cache
replaced: ``conjunctive_conditions`` (an INSERT's columns as ``=``
conditions), filtered to the table, then ``pinned_values`` for its keys; and
for the SQL, the recursive compiler below, kept verbatim as the expected
text and parameters.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry, use_telemetry
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
    eq,
    in_list,
)
from repro.sqlparse.predicates import AttributeCondition, conjunctive_conditions, pinned_values
from repro.sqlparse.shape import analyse, quote_identifier
from repro.storage.sql import compile_statement

#: table -> (primary key, other columns); ``k1`` also names a column of ``b``.
TABLES = {
    "a": (("k1", "k2"), ("x", "y")),
    "b": (("id",), ("k1", "w")),
}


# -- the replaced derivations, as the reference ----------------------------------------
def _column_sql(column):
    if column.table:
        return f"{quote_identifier(column.table)}.{quote_identifier(column.name)}"
    return quote_identifier(column.name)


def _reference_predicate(predicate):
    if isinstance(predicate, Comparison):
        column = _column_sql(predicate.column)
        if predicate.operator == "between":
            return f"{column} BETWEEN ? AND ?", [predicate.low, predicate.high]
        if predicate.operator == "in":
            if not predicate.values:
                return "0 = 1", []
            marks = ", ".join("?" for _ in predicate.values)
            return f"{column} IN ({marks})", list(predicate.values)
        return f"{column} {predicate.operator} ?", [predicate.value]
    if isinstance(predicate, JoinCondition):
        return f"{_column_sql(predicate.left)} = {_column_sql(predicate.right)}", []
    keyword = " AND " if isinstance(predicate, And) else " OR "
    parts, params = [], []
    for child in predicate.children:
        child_sql, child_params = _reference_predicate(child)
        parts.append(f"({child_sql})")
        params.extend(child_params)
    return keyword.join(parts), params


def _reference_compile(statement):
    params = []
    if isinstance(statement, SelectStatement):
        columns = ", ".join(map(_column_sql, statement.columns)) if statement.columns else "*"
        sql = f"SELECT {columns} FROM {', '.join(map(quote_identifier, statement.tables))}"
        if statement.where is not None:
            where_sql, params = _reference_predicate(statement.where)
            sql += f" WHERE {where_sql}"
        if statement.limit is not None:
            sql += f" LIMIT {int(statement.limit)}"
        return sql, params
    if isinstance(statement, InsertStatement):
        columns = ", ".join(map(quote_identifier, statement.row))
        marks = ", ".join("?" for _ in statement.row)
        sql = f"INSERT INTO {quote_identifier(statement.table)} ({columns}) VALUES ({marks})"
        return sql, list(statement.row.values())
    if isinstance(statement, UpdateStatement):
        parts = []
        for column, value in statement.assignments.items():
            quoted = quote_identifier(column)
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "delta":
                parts.append(f"{quoted} = {quoted} + ?")
                params.append(value[1])
            else:
                parts.append(f"{quoted} = ?")
                params.append(value)
        sql = f"UPDATE {quote_identifier(statement.table)} SET {', '.join(parts)}"
    else:
        sql = f"DELETE FROM {quote_identifier(statement.table)}"
    if statement.where is not None:
        where_sql, where_params = _reference_predicate(statement.where)
        sql += f" WHERE {where_sql}"
        params.extend(where_params)
    return sql, params


def _reference_conditions(statement, table):
    if isinstance(statement, InsertStatement):
        conditions = [
            AttributeCondition(statement.table, column, "=", value)
            for column, value in statement.row.items()
        ]
    else:
        conditions = conjunctive_conditions(statement.where)
    return [condition for condition in conditions if condition.table in (None, table)]


# -- random statements -----------------------------------------------------------------
values = st.integers(0, 3) | st.sampled_from(["p", "q"])


def _columns(tables):
    """Column references a statement over ``tables`` may use."""
    refs = []
    for table in tables:
        key, others = TABLES[table]
        for name in key + others:
            refs.append(ColumnRef(name, table))
            refs.append(ColumnRef(name))
    return st.sampled_from(refs)


def _comparisons(tables):
    column = _columns(tables)
    return st.one_of(
        st.builds(Comparison, column, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), values),
        st.builds(lambda c, lo, hi: Comparison(c, "between", low=lo, high=hi), column, values, values),
        st.builds(
            lambda c, vs: Comparison(c, "in", values=tuple(vs)),
            column,
            st.lists(values, max_size=4),
        ),
    )


def _predicates(tables):
    leaves = _comparisons(tables)
    if len(tables) == 2:
        leaves = leaves | st.just(JoinCondition(ColumnRef("k1", "a"), ColumnRef("k1", "b")))
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda kind, parts: kind(tuple(parts)),
            st.sampled_from([And, Or]),
            st.lists(children, min_size=2, max_size=3),
        ),
        max_leaves=8,
    )


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["select", "join", "insert", "update", "delete"]))
    table = draw(st.sampled_from(sorted(TABLES)))
    tables = ("a", "b") if kind == "join" else (table,)
    where = draw(st.none() | _predicates(tables))
    if kind in ("select", "join"):
        columns = draw(st.lists(_columns(tables), max_size=3))
        limit = draw(st.none() | st.integers(0, 5))
        return SelectStatement(tables, tuple(columns), where, limit)
    key, others = TABLES[table]
    if kind == "insert":
        order = draw(st.permutations(key + others))
        return InsertStatement(table, {column: draw(values) for column in order})
    if kind == "update":
        assigned = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
        assignments = {
            column: draw(st.tuples(st.just("delta"), values) | values) for column in assigned
        }
        return UpdateStatement(table, assignments, where)
    return DeleteStatement(table, where)


@given(statements())
@settings(max_examples=400, deadline=None)
def test_shape_path_equals_the_per_statement_derivation(statement):
    shape, bound = analyse(statement)
    assert compile_statement(statement) == _reference_compile(statement)
    assert (shape.sql, bound) == _reference_compile(statement)
    for table in shape.tables:
        conditions = _reference_conditions(statement, table)
        assert shape.conditions(table, bound) == conditions
        primary_key = TABLES[table][0]
        assert shape.keys(table, primary_key, bound) == pinned_values(conditions, primary_key)
    again, bound_again = analyse(statement)
    assert again is shape and bound_again == bound


# -- fixed cases -----------------------------------------------------------------------
def test_statements_that_differ_only_in_literals_share_a_shape():
    first, first_values = analyse(SelectStatement(("a",), where=And((eq("k1", 1), eq("k2", 2)))))
    second, second_values = analyse(SelectStatement(("a",), where=And((eq("k1", 3), eq("k2", 4)))))
    assert first is second
    assert (first_values, second_values) == ([1, 2], [3, 4])
    longer, _ = analyse(SelectStatement(("a",), where=And((eq("k1", 1), in_list("k2", [2, 3])))))
    shorter, _ = analyse(SelectStatement(("a",), where=And((eq("k1", 1), in_list("k2", [2])))))
    assert longer is not shorter


def test_last_pin_wins_and_in_lists_cross_in_key_order():
    where = And((in_list("k2", [5, 6]), eq("k1", 1), in_list("k1", [2, 2]), in_list("k2", [])))
    shape, bound = analyse(SelectStatement(("a",), where=where))
    assert shape.keys("a", ("k1", "k2"), bound) == [(2, 5), (2, 6), (2, 5), (2, 6)]
    unpinned = Or((eq("k1", 1), eq("k2", 2)))
    shape, bound = analyse(SelectStatement(("a",), where=unpinned))
    assert shape.keys("a", ("k1", "k2"), bound) is None and shape.conditions("a", bound) == []


def test_pinned_values_follows_the_key_rule():
    def condition(column, operator, *values):
        if operator == "in":
            return AttributeCondition(None, column, operator, values=values)
        return AttributeCondition(None, column, operator, values[0])

    conditions = [
        condition("k2", "in", 5, 6),
        condition("k1", "=", 1),
        condition("k1", "in", 2, 3),
        condition("k2", "in"),
        condition("k1", ">", 9),
    ]
    assert pinned_values(conditions, ("k1", "k2")) == [(2, 5), (2, 6), (3, 5), (3, 6)]
    assert pinned_values(conditions, ("k2", "k1")) == [(5, 2), (5, 3), (6, 2), (6, 3)]
    assert pinned_values(conditions[1:2], ("k1",)) == [(1,)]
    assert pinned_values(conditions[1:2], ("k1", "k2")) is None
    assert pinned_values(conditions[3:], ("k2",)) is None
    assert pinned_values([], ()) == [()]


def test_first_sights_are_counted_once_per_shape():
    table = "shape_counter_probe"
    with use_telemetry(Telemetry.create()) as telemetry:
        for value in range(3):
            analyse(SelectStatement((table,), where=eq("id", value)))
        analyse(InsertStatement(table, {"id": 1}))
        analyse(InsertStatement(table, {"id": 2}))
        snapshot = telemetry.metrics.snapshot()
    series = snapshot["families"]["sqlparse.shapes"]["series"]
    assert {entry["labels"]["kind"]: entry["value"] for entry in series} == {
        "insert": 1,
        "select": 1,
    }


def test_each_registry_counts_the_shapes_it_sees():
    statement = SelectStatement(("shape_registry_probe",), where=eq("id", 1))
    shape, _ = analyse(statement)
    counts = []
    for _ in range(2):
        with use_telemetry(Telemetry.create()) as telemetry:
            assert analyse(statement)[0] is shape
            analyse(statement)
            snapshot = telemetry.metrics.snapshot()
        [series] = snapshot["families"]["sqlparse.shapes"]["series"]
        counts.append(series["value"])
    assert counts == [1, 1]


def test_concurrent_first_sights_build_and_count_each_shape_once():
    tables = [f"shape_race_probe_{index}" for index in range(50)]
    seen: list[list] = [[] for _ in range(4)]

    def client(out):
        for table in tables:
            out.append(analyse(SelectStatement((table,), where=eq("id", 1)))[0])

    threads = [threading.Thread(target=client, args=(out,)) for out in seen]
    interval = sys.getswitchinterval()
    with use_telemetry(Telemetry.create()) as telemetry:
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        snapshot = telemetry.metrics.snapshot()
    assert not any(thread.is_alive() for thread in threads)
    assert all(shapes == seen[0] for shapes in seen)
    [series] = snapshot["families"]["sqlparse.shapes"]["series"]
    assert series["value"] == len(tables)
