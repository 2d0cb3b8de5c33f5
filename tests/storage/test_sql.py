"""Statement-AST -> parameterised SQLite compilation."""

from __future__ import annotations

import pytest

from repro.sqlparse.ast import (
    And,
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
    between,
    eq,
    in_list,
)
from repro.storage.sql import (
    UnsupportedStatementError,
    compile_statement,
    create_schema_sql,
    quote_identifier,
)


def test_select_with_equality_predicate():
    sql, params = compile_statement(
        SelectStatement(("account",), where=eq("id", 3), limit=1)
    )
    assert sql == 'SELECT * FROM "account" WHERE "id" = ? LIMIT 1'
    assert params == [3]


def test_insert_binds_every_column():
    sql, params = compile_statement(
        InsertStatement("account", {"id": 9, "name": "zoe", "bal": 100})
    )
    assert sql == 'INSERT INTO "account" ("id", "name", "bal") VALUES (?, ?, ?)'
    assert params == [9, "zoe", 100]


def test_update_delta_compiles_to_self_referencing_assignment():
    sql, params = compile_statement(
        UpdateStatement("account", {"bal": ("delta", -50)}, where=eq("id", 1))
    )
    assert sql == 'UPDATE "account" SET "bal" = "bal" + ? WHERE "id" = ?'
    assert params == [-50, 1]


def test_delete_with_predicate():
    sql, params = compile_statement(DeleteStatement("account", where=eq("id", 2)))
    assert sql == 'DELETE FROM "account" WHERE "id" = ?'
    assert params == [2]


def test_between_and_empty_in_predicates():
    sql, params = compile_statement(
        DeleteStatement("account", where=And((between("bal", 10, 20), in_list("id", ()))))
    )
    assert sql == 'DELETE FROM "account" WHERE ("bal" BETWEEN ? AND ?) AND (0 = 1)'
    assert params == [10, 20]


def test_qualified_column_references():
    sql, _ = compile_statement(
        SelectStatement(
            ("account",),
            columns=(ColumnRef("bal", "account"),),
            where=eq("id", 1, table="account"),
        )
    )
    assert sql == 'SELECT "account"."bal" FROM "account" WHERE "account"."id" = ?'


def test_unsupported_statements_raise():
    with pytest.raises(UnsupportedStatementError):
        compile_statement(InsertStatement("account", {}))
    with pytest.raises(UnsupportedStatementError):
        compile_statement(UpdateStatement("account", {}))


def test_quote_identifier_escapes_embedded_quotes():
    assert quote_identifier('we"ird') == '"we""ird"'


def test_schema_ddl_has_primary_key_and_fk_indexes(bank_schema):
    ddl = create_schema_sql(bank_schema)
    assert any('PRIMARY KEY ("id")' in statement for statement in ddl)
