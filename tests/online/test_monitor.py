"""Unit tests for the streaming workload monitor."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog.schema import Schema, Table, integer_column
from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning
from repro.graph.assignment import PartitionAssignment
from repro.online import maintainer as maintainer_module
from repro.online import monitor as monitor_module
from repro.online.monitor import (
    CHURN_SHARE_FLOOR,
    DRIFT_SKEW_THRESHOLD,
    MonitorOptions,
    WorkloadMonitor,
)
from repro.routing.router import Router
from repro.sqlparse.ast import SelectStatement, in_list
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess

SCHEMA = Schema("monitored", [Table("t", [integer_column("id")], ["id"])])


def _access(keys, txn_id=0):
    """A transaction reading ``keys`` of table ``t`` by primary key."""
    statement = SelectStatement(("t",), where=in_list("id", keys))
    read = frozenset(TupleId("t", (key,)) for key in keys)
    return TransactionAccess(
        Transaction((statement,), transaction_id=txn_id),
        (StatementAccess(statement, read, frozenset()),),
    )


@pytest.fixture
def constants(monkeypatch):
    """Patch module constants of the monitor or of its ledger for one test."""

    def patch(**values):
        for name, value in values.items():
            module = monitor_module if hasattr(monitor_module, name) else maintainer_module
            assert hasattr(module, name), name
            monkeypatch.setattr(module, name, value)

    return patch


def _weight(monitor, key):
    """Decayed access count of tuple ``key`` as the monitor's ledger holds it."""
    ledger = monitor.maintainer
    return ledger.node_weight(ledger.node_of(TupleId("t", (key,))))


def _router(num_partitions=2, placements=None):
    """A router over a lookup table placing key ``k`` on ``placements[k]``."""
    assignment = PartitionAssignment(num_partitions)
    for key, partition in (placements or {}).items():
        assignment.assign(TupleId("t", (key,)), {partition})
    return Router(LookupTablePartitioning(num_partitions, assignment, "hash"), SCHEMA)


def test_window_distributed_fraction():
    router = _router(2, {0: 0, 1: 0, 2: 1})
    monitor = WorkloadMonitor(MonitorOptions(window_size=10), router)
    monitor.ingest(_access([0, 1]))  # local
    monitor.ingest(_access([0, 2]))  # distributed
    stats = monitor.window_stats()
    assert stats.transactions == 2
    assert stats.distributed_fraction == 0.5
    assert stats.load_skew > 1.0


def test_window_eviction_keeps_counters_consistent():
    router = _router(2, {0: 0, 1: 1})
    monitor = WorkloadMonitor(MonitorOptions(window_size=2), router)
    monitor.ingest(_access([0, 1]))  # distributed
    monitor.ingest(_access([0]))
    monitor.ingest(_access([0]))  # evicts the distributed one
    stats = monitor.window_stats()
    assert stats.transactions == 2
    assert stats.distributed_fraction == 0.0


def test_decayed_counts_and_hot_set(constants):
    constants(EPOCH_DECAY=0.5, HOT_SET_SIZE=2)
    monitor = WorkloadMonitor(MonitorOptions())
    monitor.ingest(_access([1]))
    monitor.ingest(_access([1]))
    monitor.ingest(_access([2]))
    monitor.advance_epoch()
    monitor.ingest(_access([3]))
    # Tuple 1: 2 accesses decayed once = 1.0; tuple 3: fresh = 1.0; tuple 2: 0.5.
    assert _weight(monitor, 1) == pytest.approx(1.0)
    assert _weight(monitor, 2) == pytest.approx(0.5)
    assert _weight(monitor, 3) == pytest.approx(1.0)
    # Deterministic tie-break: equal counts rank by tuple id.
    assert monitor.hot_tuples() == (TupleId("t", (1,)), TupleId("t", (3,)))


def test_renormalisation_preserves_relative_counts(constants):
    constants(EPOCH_DECAY=0.5)
    monitor = WorkloadMonitor(MonitorOptions())
    monitor.ingest(_access([1]))
    monitor.ingest(_access([1]))
    monitor.ingest(_access([2]))
    for _ in range(60):  # decay far past the renormalisation limit
        monitor.advance_epoch()
    monitor.ingest(_access([3]))
    assert _weight(monitor, 3) == pytest.approx(1.0)
    # Tuple 1 decayed to ~2*2^-60 but is still ranked above tuple 2.
    hot = monitor.hot_tuples()
    assert hot.index(TupleId("t", (3,))) == 0


def test_drift_requires_window_fill():
    router = _router(2, {0: 0, 1: 1})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=100, min_window_fill=50), router
    )
    for _ in range(10):
        monitor.ingest(_access([0, 1]))
    report = monitor.check_drift()
    assert not report.drifted


def test_drift_on_distributed_fraction_increase():
    router = _router(2, {0: 0, 1: 0, 2: 1})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=100, min_window_fill=10), router
    )
    for _ in range(20):
        monitor.ingest(_access([0, 1]))
    monitor.set_baseline()
    for _ in range(30):
        monitor.ingest(_access([0, 2]))
    report = monitor.check_drift()
    assert report.drifted
    assert any("distributed fraction" in reason for reason in report.reasons)


def test_drift_on_hot_tuple_churn(constants):
    router = _router(2, {key: 0 for key in range(40)})
    constants(
        HOT_SET_SIZE=4,
        EPOCH_DECAY=0.5,
        DRIFT_DISTRIBUTED_INCREASE=2.0,  # disable the other signals
        DRIFT_SKEW_THRESHOLD=100.0,
        DRIFT_CHURN_THRESHOLD=0.5,
    )
    options = MonitorOptions(window_size=200, min_window_fill=10)
    monitor = WorkloadMonitor(options, router)
    for key in (0, 1, 2, 3) * 5:
        monitor.ingest(_access([key]))
    monitor.set_baseline()
    for _ in range(8):
        monitor.advance_epoch()
    for key in (10, 11, 12, 13) * 5:
        monitor.ingest(_access([key]))
    report = monitor.check_drift()
    assert report.drifted
    assert any("churn" in reason for reason in report.reasons)


def test_rebaseline_reattributes_window(constants):
    # Initially tuples 0/1 are split -> every transaction distributed.
    split = _router(2, {0: 0, 1: 1})
    # Skew is out of scope here: with both tuples co-located on one of two
    # partitions the load is (correctly) maximally skewed.
    constants(DRIFT_SKEW_THRESHOLD=100.0)
    monitor = WorkloadMonitor(MonitorOptions(window_size=50, min_window_fill=5), split)
    for _ in range(20):
        monitor.ingest(_access([0, 1]))
    assert monitor.window_stats().distributed_fraction == 1.0
    # After "migration" co-locates them, rebaseline re-attributes the window.
    colocated = _router(2, {0: 0, 1: 0})
    monitor.rebaseline(colocated.strategy)
    stats = monitor.window_stats()
    assert stats.distributed_fraction == 0.0
    assert not monitor.check_drift().drifted


def test_ingest_batch_advances_epoch(constants):
    constants(EPOCH_DECAY=0.5)
    monitor = WorkloadMonitor(MonitorOptions())
    monitor.ingest_batch([_access([1])])
    assert monitor.maintainer.epochs == 1
    assert _weight(monitor, 1) == pytest.approx(0.5)
    assert monitor.transaction_rate() == 1.0


def test_blanket_transaction_leaves_hot_set_and_graph_unchanged(constants):
    """A transaction past the blanket threshold is skipped by the one ledger,
    so it neither enters the hot set nor adds nodes or edges."""
    constants(HOT_SET_SIZE=2, BLANKET_TRANSACTION_THRESHOLD=3)
    monitor = WorkloadMonitor(MonitorOptions())
    monitor.ingest_batch([_access([1, 2])])
    hot = monitor.hot_tuples()
    graph = monitor.maintainer.graph
    before = (list(graph.node_weights), list(graph.edges()))
    monitor.ingest(_access(list(range(10, 20))))  # 10 tuples > 3: blanket
    assert monitor.hot_tuples() == hot
    assert (list(graph.node_weights), list(graph.edges())) == before
    assert monitor.maintainer.num_tuples == 2
    # The window still sees it: placement quality counts every transaction.
    assert monitor.window_stats().transactions == 2


_HASH_SEED_SCRIPT = """
import random
from repro.catalog.tuples import TupleId
from repro.online.monitor import WorkloadMonitor
from repro.sqlparse.ast import SelectStatement
from repro.workload.trace import StatementAccess, Transaction, TransactionAccess

rng = random.Random(7)
monitor = WorkloadMonitor()
for epoch in range(30):
    batch = []
    for txn in range(40):
        touched = [
            TupleId(rng.choice(("warehouse", "district", "stock")), (rng.randrange(60),))
            for _ in range(rng.randrange(1, 8))
        ]
        statement = SelectStatement(("t",))
        access = StatementAccess(statement, frozenset(touched), frozenset(touched[:1]))
        batch.append(TransactionAccess(Transaction((statement,), transaction_id=txn), (access,)))
    monitor.ingest_batch(batch)
print(repr(monitor.hot_weight_share()), monitor.hot_tuples()[:3])
"""


def test_hot_weight_share_is_identical_across_hash_seeds():
    """The hot set and its weight share depend only on the trace, not on the
    order a process's string-hash seed gives set iteration."""
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1, outputs


def test_min_window_fill_clamped_to_window_size():
    # A fill requirement above capacity would disable drift detection forever.
    options = MonitorOptions(window_size=40, min_window_fill=50)
    assert options.min_window_fill == 40
    router = _router(2, {0: 0, 1: 1})
    monitor = WorkloadMonitor(options, router)
    for _ in range(40):
        monitor.ingest(_access([0, 1]))
    # The full (small) window satisfies the clamped fill gate.
    assert "window not yet filled" not in monitor.check_drift().reasons


def test_inherently_skewed_baseline_does_not_refire_skew_drift():
    # Everything lives on partition 0 of 4: maximally skewed, but stable.
    router = _router(4, {0: 0, 1: 0})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=50, min_window_fill=5), router
    )
    for _ in range(20):
        monitor.ingest(_access([0, 1]))
    monitor.set_baseline()
    for _ in range(20):
        monitor.ingest(_access([0, 1]))
    report = monitor.check_drift()
    # Skew (4.0) exceeds the absolute threshold but not the baseline: no drift.
    assert report.stats.load_skew > DRIFT_SKEW_THRESHOLD
    assert not report.drifted


def test_skew_drift_fires_on_increase_over_baseline():
    router = _router(4, {0: 0, 1: 1, 2: 0})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=40, min_window_fill=5), router
    )
    for _ in range(20):
        monitor.ingest(_access([0]))
        monitor.ingest(_access([1]))
    monitor.set_baseline()  # balanced-ish baseline (skew 2.0 over 4 parts)
    for _ in range(40):
        monitor.ingest(_access([0, 2]))  # all load collapses onto partition 0
    report = monitor.check_drift()
    assert report.drifted
    assert any("load skew" in reason for reason in report.reasons)


def test_empty_baseline_is_adopted_from_first_filled_window():
    """A baseline snapshot of an empty window (cold deploy, no warm-up) is
    replaced by the first filled window instead of reading steady traffic as
    drift against zeros."""
    router = _router(2, {0: 0, 1: 0, 2: 1})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=10, min_window_fill=4), router
    )
    monitor.set_baseline()  # empty window: nothing learned yet
    for _ in range(4):
        monitor.ingest(_access([0, 2]))  # 100% distributed
    # Enough for a drift check, but the baseline waits for a *full* window.
    report = monitor.check_drift()
    assert not report.drifted
    assert report.reasons == ["baseline pending a full window"]
    for _ in range(6):
        monitor.ingest(_access([0, 2]))
    report = monitor.check_drift()
    assert not report.drifted
    assert report.reasons == ["baseline adopted from first full window"]
    # The adopted baseline now carries the observed fraction: steady traffic
    # at the same rate is not drift.
    for _ in range(10):
        monitor.ingest(_access([0, 2]))
    assert not monitor.check_drift().drifted


def test_small_real_warmup_baseline_is_kept():
    """A baseline from a small-but-nonempty warm-up window is genuine signal:
    the cold-deploy guard must not overwrite it, so drift against it is
    still detected once the window fills."""
    router = _router(2, {0: 0, 1: 0, 2: 1})
    monitor = WorkloadMonitor(
        MonitorOptions(window_size=10, min_window_fill=4), router
    )
    monitor.ingest(_access([0, 1]))  # local traffic only
    monitor.set_baseline()  # 1 transaction < min_window_fill, but real
    for _ in range(6):
        monitor.ingest(_access([0, 2]))  # drift: all distributed
    report = monitor.check_drift()
    assert report.drifted
    assert any("distributed fraction" in reason for reason in report.reasons)


# -- auto-derived churn weight-share threshold ---------------------------------------
def test_churn_threshold_floor_before_any_traffic():
    monitor = WorkloadMonitor(MonitorOptions(), _router())
    assert monitor.churn_weight_share_threshold() == CHURN_SHARE_FLOOR


def test_churn_threshold_tracks_uniform_expectation(constants):
    constants(HOT_SET_SIZE=4)
    options = MonitorOptions(window_size=400)
    monitor = WorkloadMonitor(options, _router(2, {k: 0 for k in range(20)}))
    for key in range(20):
        monitor.ingest(_access([key]))
    # 20 tracked tuples, hot set 4: uniform expectation 0.2, lifted 1.25x.
    assert monitor.churn_weight_share_threshold() == pytest.approx(0.25)
    # Under perfectly uniform traffic the hot set carries exactly the
    # uniform expectation — strictly below the lifted bar, so the churn
    # gate stays closed no matter how the hot-set *membership* drifts.
    assert monitor.hot_weight_share() == pytest.approx(0.2)
    assert monitor.hot_weight_share() < monitor.churn_weight_share_threshold()


def test_churn_threshold_floor_on_wide_populations(constants):
    constants(HOT_SET_SIZE=4)
    options = MonitorOptions(window_size=2000)
    monitor = WorkloadMonitor(options, _router(2, {k: 0 for k in range(100)}))
    for key in range(100):
        monitor.ingest(_access([key]))
    # 4/100 lifted is 0.05 — below the floor, so the old 10% bar holds.
    assert monitor.churn_weight_share_threshold() == pytest.approx(CHURN_SHARE_FLOOR)


def test_churn_threshold_capped_for_tiny_populations(constants):
    constants(HOT_SET_SIZE=4)
    options = MonitorOptions(window_size=100)
    monitor = WorkloadMonitor(options, _router(2, {k: 0 for k in range(4)}))
    for key in range(4):
        monitor.ingest(_access([key]))
    # hot_set_size >= tracked: the uncapped bar would be 1.25 — unreachable.
    assert monitor.churn_weight_share_threshold() == pytest.approx(0.95)


def test_skewed_traffic_clears_the_derived_bar(constants):
    constants(
        HOT_SET_SIZE=4,
        DRIFT_DISTRIBUTED_INCREASE=2.0,
        DRIFT_SKEW_THRESHOLD=100.0,
        DRIFT_CHURN_THRESHOLD=0.5,
    )
    options = MonitorOptions(window_size=400, min_window_fill=10)
    monitor = WorkloadMonitor(options, _router(2, {k: 0 for k in range(40)}))
    # Baseline: tuples 0..3 hot, with the rest seen once (tracked = 20).
    for key in range(16, 32):
        monitor.ingest(_access([key]))
    for key in (0, 1, 2, 3) * 20:
        monitor.ingest(_access([key]))
    monitor.set_baseline()
    # New hot set 10..13 dominates the window: the share clears the bar and
    # the membership churn (Jaccard 0 vs baseline) fires the signal.
    for key in (10, 11, 12, 13) * 30:
        monitor.ingest(_access([key]))
    assert monitor.hot_weight_share() > monitor.churn_weight_share_threshold()
    report = monitor.check_drift()
    assert report.drifted
    assert any("churn" in reason for reason in report.reasons)


def test_uniform_churn_does_not_fire_derived_gate(constants):
    constants(
        HOT_SET_SIZE=4,
        DRIFT_DISTRIBUTED_INCREASE=2.0,
        DRIFT_SKEW_THRESHOLD=100.0,
        DRIFT_CHURN_THRESHOLD=0.5,
    )
    options = MonitorOptions(window_size=400, min_window_fill=10)
    monitor = WorkloadMonitor(options, _router(2, {k: 0 for k in range(40)}))
    # Uniform traffic over 20 tuples; the "hot set" is sampling noise.
    for key in list(range(20)) * 3:
        monitor.ingest(_access([key]))
    monitor.set_baseline()
    # Entirely different — but still uniform — tuples: membership churn is
    # total, yet no hot set exists, so the weight-share gate must block it.
    for key in list(range(20, 40)) * 3:
        monitor.ingest(_access([key]))
    report = monitor.check_drift()
    assert not any("churn" in reason for reason in report.reasons)
