"""Unit tests for the incremental tuple-graph maintainer."""

from __future__ import annotations

import pytest

from repro.catalog.tuples import TupleId
from repro.online import maintainer as maintainer_module
from repro.online.maintainer import IncrementalGraphMaintainer
from repro.sqlparse.ast import SelectStatement
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess


@pytest.fixture
def constants(monkeypatch):
    """Patch the maintainer's module constants for one test."""

    def patch(**values):
        for name, value in values.items():
            assert hasattr(maintainer_module, name), name
            monkeypatch.setattr(maintainer_module, name, value)

    return patch


@pytest.fixture
def no_aging(constants):
    constants(EPOCH_DECAY=1.0)


def _access(keys, txn_id=0):
    statement = SelectStatement(("t",))
    read = frozenset(TupleId("t", (key,)) for key in keys)
    return TransactionAccess(
        Transaction((statement,), transaction_id=txn_id),
        (StatementAccess(statement, read, frozenset()),),
    )


def test_nodes_created_on_first_sight_with_stable_ids(no_aging):
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply(_access([5, 1]))
    maintainer.apply(_access([1, 9]))
    assert maintainer.num_tuples == 3
    # Ids assigned in sorted-tuple order within each transaction.
    assert maintainer.node_of(TupleId("t", (1,))) == 0
    assert maintainer.node_of(TupleId("t", (5,))) == 1
    assert maintainer.node_of(TupleId("t", (9,))) == 2
    assert maintainer.tuple_of(2) == TupleId("t", (9,))
    assert maintainer.node_of(TupleId("t", (999,))) is None


def test_clique_edges_accumulate(no_aging):
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply(_access([1, 2, 3]))
    maintainer.apply(_access([1, 2]))
    graph = maintainer.graph
    node = maintainer.node_of
    one, two, three = node(TupleId("t", (1,))), node(TupleId("t", (2,))), node(TupleId("t", (3,)))
    assert graph.edge_weight(one, two) == 2.0
    assert graph.edge_weight(one, three) == 1.0
    assert graph.node_weights[one] == 2.0
    assert graph.node_weights[three] == 1.0


def test_apply_batch_matches_sequential_applies(no_aging):
    accesses = [_access([1, 2, 3], 0), _access([2, 3], 1), _access([4, 1], 2)]
    sequential = IncrementalGraphMaintainer()
    for access in accesses:
        sequential.apply(access)
    sequential.advance_epoch()
    batched = IncrementalGraphMaintainer()
    batched.apply_batch(accesses)
    assert sequential.graph.node_weights == batched.graph.node_weights
    assert list(sequential.graph.edges()) == list(batched.graph.edges())
    assert sequential.tuples() == batched.tuples()


def test_decay_ages_weights(constants):
    constants(EPOCH_DECAY=0.5)
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply_batch([_access([1, 2])])
    assert maintainer.node_weight(0) == pytest.approx(0.5)
    assert maintainer.node_weight(1) == pytest.approx(0.5)
    assert maintainer.edge_weight(0, 1) == pytest.approx(0.5)
    maintainer.apply_batch([_access([1, 2])])
    # (0.5 + 1) * 0.5 after the second epoch.
    assert maintainer.edge_weight(0, 1) == pytest.approx(0.75)
    # The decay is lazy: freezing folds the scale into true weights.
    csr, _ = maintainer.freeze()
    assert csr.node_weights[0] == pytest.approx(0.75)


def test_lazy_decay_survives_renormalisation(constants):
    constants(EPOCH_DECAY=0.5, PRUNE_THRESHOLD=0.0, PRUNE_INTERVAL=1000)
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply(_access([1, 2]))
    for _ in range(60):  # decay far past the renormalisation limit
        maintainer.advance_epoch()
    maintainer.apply(_access([3, 4]))
    assert maintainer.node_weight(2) == pytest.approx(1.0)
    assert maintainer.edge_weight(2, 3) == pytest.approx(1.0)
    assert maintainer.node_weight(0) == pytest.approx(2.0 ** -60, rel=1e-6)


def test_prune_drops_decayed_edges_but_keeps_nodes(constants):
    constants(EPOCH_DECAY=0.5, PRUNE_THRESHOLD=0.2, PRUNE_INTERVAL=1)
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply_batch([_access([1, 2])])
    assert maintainer.graph.num_edges == 1
    for _ in range(3):
        maintainer.advance_epoch()
    assert maintainer.graph.num_edges == 0
    assert maintainer.num_tuples == 2  # node ids stay stable


def test_blanket_transactions_skipped(constants):
    constants(EPOCH_DECAY=1.0, BLANKET_TRANSACTION_THRESHOLD=3)
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply(_access(list(range(10))))
    assert maintainer.num_tuples == 0
    assert maintainer.transactions_applied == 0


def test_freeze_returns_csr_and_mapping(no_aging):
    maintainer = IncrementalGraphMaintainer()
    maintainer.apply(_access([1, 2]))
    csr, tuples = maintainer.freeze()
    assert csr.num_nodes == 2
    assert csr.num_edges == 1
    assert tuples == [TupleId("t", (1,)), TupleId("t", (2,))]
