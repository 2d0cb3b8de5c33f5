"""Tests for predicate evaluation and analysis."""

import pytest

from repro.sqlparse.ast import (
    And,
    ColumnRef,
    Comparison,
    InsertStatement,
    JoinCondition,
    Or,
    SelectStatement,
    between,
    conj,
    eq,
    in_list,
)
from repro.sqlparse.parser import parse_statement
from repro.sqlparse.predicates import (
    conjunctive_conditions,
    evaluate_predicate,
    referenced_attributes,
)


class TestEvaluate:
    row = {"id": 3, "name": "sam", "bal": 129_000}

    def test_equality(self):
        assert evaluate_predicate(eq("id", 3), self.row)
        assert not evaluate_predicate(eq("id", 4), self.row)

    def test_inequalities(self):
        assert evaluate_predicate(Comparison(ColumnRef("bal"), "<", 200_000), self.row)
        assert evaluate_predicate(Comparison(ColumnRef("bal"), ">=", 129_000), self.row)
        assert not evaluate_predicate(Comparison(ColumnRef("bal"), "<=", 1000), self.row)
        assert evaluate_predicate(Comparison(ColumnRef("id"), "<>", 9), self.row)

    def test_unknown_operator_is_rejected(self):
        with pytest.raises(ValueError, match="unsupported comparison operator 'like'"):
            Comparison(ColumnRef("name"), "like", "s%")

    def test_between_and_in(self):
        assert evaluate_predicate(between("id", 1, 5), self.row)
        assert not evaluate_predicate(between("id", 10, 20), self.row)
        assert evaluate_predicate(in_list("id", [1, 3]), self.row)
        assert not evaluate_predicate(in_list("id", [2, 4]), self.row)

    def test_and_or(self):
        predicate = And((eq("id", 3), Comparison(ColumnRef("bal"), ">", 1)))
        assert evaluate_predicate(predicate, self.row)
        predicate = Or((eq("id", 99), eq("name", "sam")))
        assert evaluate_predicate(predicate, self.row)

    def test_missing_column_is_false(self):
        assert not evaluate_predicate(eq("missing", 1), self.row)

    def test_none_predicate_is_true(self):
        assert evaluate_predicate(None, self.row)

    def test_join_condition(self):
        joined = {"a.x": 1, "b.y": 1}
        predicate = JoinCondition(ColumnRef("x", "a"), ColumnRef("y", "b"))
        assert evaluate_predicate(predicate, joined)
        assert not evaluate_predicate(predicate, {"a.x": 1, "b.y": 2})

    def test_qualified_lookup_falls_back_to_bare_name(self):
        predicate = Comparison(ColumnRef("id", "account"), "=", 3)
        assert evaluate_predicate(predicate, self.row)


class TestConjunctiveConditions:
    def test_collects_top_level_and(self):
        predicate = conj(eq("a", 1), eq("b", 2))
        conditions = conjunctive_conditions(predicate)
        assert {(c.column, c.value) for c in conditions} == {("a", 1), ("b", 2)}

    def test_skips_or_branches(self):
        predicate = Or((eq("a", 1), eq("b", 2)))
        assert conjunctive_conditions(predicate) == []

    def test_candidate_values(self):
        conditions = conjunctive_conditions(in_list("a", [1, 2]))
        assert conditions[0].candidate_values() == (1, 2)
        conditions = conjunctive_conditions(Comparison(ColumnRef("a"), ">", 5))
        assert conditions[0].candidate_values() == ()


class TestReferencedAttributes:
    def test_select_where_attributes(self):
        statement = parse_statement("SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id = 5")
        attributes = referenced_attributes(statement)
        assert (None, "s_w_id") in attributes
        assert (None, "s_i_id") in attributes

    def test_insert_contributes_columns(self):
        statement = InsertStatement("t", {"a": 1, "b": 2})
        assert set(referenced_attributes(statement)) == {("t", "a"), ("t", "b")}

    def test_join_contributes_both_sides(self):
        statement = SelectStatement(
            ("a", "b"),
            where=JoinCondition(ColumnRef("x", "a"), ColumnRef("y", "b")),
        )
        attributes = referenced_attributes(statement)
        assert ("a", "x") in attributes
        assert ("b", "y") in attributes
