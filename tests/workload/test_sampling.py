"""Tests for the graph-size reduction heuristics."""

import pytest

from repro.catalog.tuples import TupleId
from repro.sqlparse.ast import SelectStatement, eq
from repro.utils.rng import SeededRng
from repro.workload.rwsets import AccessTrace
from repro.workload.sampling import (
    filter_blanket_statements,
    sample_transactions,
    sample_tuples,
)
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess


def make_trace(num_transactions: int = 20, tuples_per_transaction: int = 3) -> AccessTrace:
    trace = AccessTrace("synthetic")
    for index in range(num_transactions):
        statement = SelectStatement(("t",), where=eq("id", index))
        transaction = Transaction((statement,), transaction_id=index)
        read = [TupleId("t", (index * tuples_per_transaction + offset,)) for offset in range(tuples_per_transaction)]
        access = StatementAccess(statement, frozenset(read), frozenset())
        trace.accesses.append(TransactionAccess(transaction, (access,)))
    return trace


def test_sample_transactions_reduces_count():
    trace = make_trace(100)
    sampled = sample_transactions(trace, 0.3, SeededRng(1))
    assert 10 <= len(sampled) <= 60
    assert len(sampled) < len(trace)


def test_sample_transactions_full_fraction_is_identity():
    trace = make_trace(10)
    assert len(sample_transactions(trace, 1.0)) == 10


def test_sample_transactions_never_empty():
    trace = make_trace(3)
    sampled = sample_transactions(trace, 0.0001, SeededRng(0))
    assert len(sampled) >= 1


def test_invalid_fraction_rejected():
    trace = make_trace(3)
    with pytest.raises(ValueError):
        sample_transactions(trace, 0.0)
    with pytest.raises(ValueError):
        sample_tuples(trace, 1.5)


def test_sample_tuples_restricts_tuple_set():
    trace = make_trace(50)
    sampled = sample_tuples(trace, 0.3, SeededRng(2))
    assert sampled.all_tuples() < trace.all_tuples()


def test_filter_blanket_statements_drops_wide_statements():
    trace = AccessTrace("blanket")
    wide_statement = SelectStatement(("t",))
    narrow_statement = SelectStatement(("t",), where=eq("id", 1))
    transaction = Transaction((wide_statement, narrow_statement))
    from repro.workload.trace import StatementAccess, TransactionAccess

    wide_access = StatementAccess(
        wide_statement, frozenset(TupleId("t", (i,)) for i in range(100)), frozenset()
    )
    narrow_access = StatementAccess(narrow_statement, frozenset({TupleId("t", (1,))}), frozenset())
    trace.accesses.append(TransactionAccess(transaction, (wide_access, narrow_access)))
    filtered = filter_blanket_statements(trace, max_tuples_per_statement=10)
    assert len(filtered) == 1
    assert filtered.accesses[0].touched == {TupleId("t", (1,))}
