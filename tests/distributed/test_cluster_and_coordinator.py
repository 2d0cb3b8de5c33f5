"""Tests for the cluster materialisation and the 2PC coordinator."""

import pytest

from repro.core.strategies import CompositePartitioning, FullReplication, range_on, replicate
from repro.distributed.cluster import Cluster
from repro.distributed.coordinator import TwoPhaseCommitCoordinator
from repro.routing.router import Router
from repro.sqlparse.ast import SelectStatement, UpdateStatement, eq
from repro.workload.trace import Transaction, Workload


def range_strategy(k=2):
    return CompositePartitioning(k, {"account": range_on("id", [2])})


def test_cluster_materialisation(bank_database):
    cluster = Cluster.from_database(bank_database, range_strategy())
    assert cluster.num_partitions == 2
    assert sum(cluster.row_counts()) == 5
    assert cluster.database(0).row_count() == 2  # ids 1, 2
    assert cluster.database(1).row_count() == 3  # ids 3, 4, 5


def test_cluster_replication_copies_everywhere(bank_database):
    cluster = Cluster.from_database(bank_database, FullReplication(3))
    assert cluster.row_counts() == [5, 5, 5]
    assert cluster.total_rows() == 15
    assert cluster.imbalance() == 1.0


def test_cluster_index_bounds(bank_database):
    cluster = Cluster.from_database(bank_database, range_strategy())
    with pytest.raises(IndexError):
        cluster.database(5)


def test_coordinator_single_partition_transaction(bank_database):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    transaction = Transaction((SelectStatement(("account",), where=eq("id", 1)),))
    outcome = coordinator.execute_transaction(transaction)
    assert outcome.participants == {0}
    assert not outcome.is_distributed
    # one statement (2 messages) + local commit (2 messages)
    assert outcome.messages == 4


def test_coordinator_distributed_transaction(bank_database):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    transaction = Transaction(
        (
            UpdateStatement("account", {"bal": ("delta", -1)}, where=eq("id", 1)),
            UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 5)),
        )
    )
    outcome = coordinator.execute_transaction(transaction)
    assert outcome.participants == {0, 1}
    assert outcome.is_distributed
    # two statements (4 messages) + 2PC over two participants (8 messages)
    assert outcome.messages == 12
    # Both partition databases applied their own update.
    assert cluster.database(0).get_row(next(iter(outcome.statement_results[0].write_set)))["bal"] == 79_999


def test_coordinator_statistics(bank_database):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    workload = Workload("w")
    workload.add_statements([SelectStatement(("account",), where=eq("id", 1))])
    workload.add_statements(
        [
            SelectStatement(("account",), where=eq("id", 1)),
            SelectStatement(("account",), where=eq("id", 5)),
        ]
    )
    coordinator.execute_workload(workload)
    stats = coordinator.statistics
    assert stats.transactions == 2
    assert stats.distributed_transactions == 1
    assert stats.distributed_fraction == 0.5
    assert stats.mean_messages > 0


def test_coordinator_partition_mismatch(bank_database):
    cluster = Cluster.from_database(bank_database, range_strategy(2))
    router = Router(range_strategy(3), bank_database.schema)
    with pytest.raises(ValueError):
        TwoPhaseCommitCoordinator(cluster, router)


# -- 2PC message accounting (exercised heavily by live migration) --------------------
def test_coordinator_broadcast_statement_messages(bank_database):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    # No partitioning attribute pinned: the select is broadcast to both
    # partitions, and the transaction pays full 2PC.
    transaction = Transaction((SelectStatement(("account",), where=eq("name", "sam")),))
    outcome = coordinator.execute_transaction(transaction)
    assert outcome.participants == {0, 1}
    # one statement to 2 partitions (4 messages) + 2PC over 2 participants (8).
    assert outcome.messages == 12
    assert outcome.is_distributed


def test_coordinator_replicated_read_stays_local(bank_database):
    strategy = FullReplication(3)
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    transaction = Transaction(
        (
            SelectStatement(("account",), where=eq("id", 1)),
            SelectStatement(("account",), where=eq("id", 5)),
        )
    )
    outcome = coordinator.execute_transaction(transaction)
    # Replica selection pins both reads to one replica: local commit.
    assert len(outcome.participants) == 1
    assert not outcome.is_distributed
    # two statements (2 each) + local commit (2).
    assert outcome.messages == 6


def test_coordinator_write_to_replicated_table_pays_full_2pc(bank_database):
    strategy = FullReplication(3)
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    transaction = Transaction(
        (UpdateStatement("account", {"bal": ("delta", -1)}, where=eq("id", 1)),)
    )
    outcome = coordinator.execute_transaction(transaction)
    assert outcome.participants == {0, 1, 2}
    # one statement to 3 replicas (6 messages) + 2PC over 3 participants (12).
    assert outcome.messages == 18
    # Every replica applied the write.
    written = next(iter(outcome.statement_results[0].write_set))
    for partition in range(3):
        assert cluster.database(partition).get_row(written)["bal"] == 79_999


def test_coordinator_statistics_accumulate_message_totals(bank_database):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    coordinator = TwoPhaseCommitCoordinator(cluster, Router(strategy, bank_database.schema))
    workload = Workload("w")
    workload.add_statements([SelectStatement(("account",), where=eq("id", 1))])  # 4 msgs
    workload.add_statements(
        [
            SelectStatement(("account",), where=eq("id", 1)),
            SelectStatement(("account",), where=eq("id", 5)),
        ]
    )  # 4 + 8 = 12 msgs
    outcomes = coordinator.execute_workload(workload)
    stats = coordinator.statistics
    assert stats.total_messages == sum(outcome.messages for outcome in outcomes) == 16
    assert stats.mean_messages == 8.0
    assert stats.total_participants == 3
    assert stats.distributed_fraction == 0.5


def test_coordinator_empty_statistics_are_zero():
    from repro.distributed.coordinator import CoordinatorStatistics

    stats = CoordinatorStatistics()
    assert stats.distributed_fraction == 0.0
    assert stats.mean_messages == 0.0


# -- tuple-level cluster operations (live migration substrate) -----------------------
def test_cluster_copy_and_drop_tuple(bank_database):
    from repro.catalog.tuples import TupleId

    cluster = Cluster.from_database(bank_database, range_strategy())
    tuple_id = TupleId("account", (1,))
    assert cluster.tuple_locations(tuple_id) == {0}
    assert cluster.copy_tuple(tuple_id, 0, 1) > 0
    assert cluster.tuple_locations(tuple_id) == {0, 1}
    # Copy is idempotent: the second call writes nothing.
    assert cluster.copy_tuple(tuple_id, 0, 1) == 0
    assert cluster.drop_tuple(tuple_id, 0)
    assert cluster.tuple_locations(tuple_id) == {1}
    assert not cluster.drop_tuple(tuple_id, 0)  # already gone
    # Copying a vanished row reports None.
    assert cluster.copy_tuple(TupleId("account", (99,)), 0, 1) is None


def test_shrink_closes_the_removed_partitions(bank_database):
    import sqlite3

    cluster = Cluster.from_database(bank_database, range_strategy())
    cluster.grow_to(3)
    kept, removed = cluster.database(1), cluster.database(2)
    cluster.shrink_to(2)
    with pytest.raises(sqlite3.ProgrammingError):
        removed.row_count()
    assert kept.row_count() == 3


def test_refused_shrink_closes_nothing(bank_database):
    cluster = Cluster.from_database(bank_database, range_strategy())
    stored = cluster.database(1)
    with pytest.raises(ValueError, match="still stores"):
        cluster.shrink_to(1)
    assert stored.row_count() == 3


# -- fault-injected execution (resilience substrate) ---------------------------------
def _faulty_coordinator(bank_database, plan):
    strategy = range_strategy()
    cluster = Cluster.from_database(bank_database, strategy)
    router = Router(strategy, bank_database.schema)
    return cluster, TwoPhaseCommitCoordinator(cluster, router, plan.build())


def _transfer():
    return Transaction(
        (
            UpdateStatement("account", {"bal": ("delta", -1)}, where=eq("id", 1)),
            UpdateStatement("account", {"bal": ("delta", 1)}, where=eq("id", 5)),
        )
    )


def test_aborted_attempt_has_zero_side_effects(bank_database):
    from repro.distributed.faults import FaultPlan, NodeCrash

    cluster, coordinator = _faulty_coordinator(
        bank_database,
        FaultPlan(node_crashes=(NodeCrash(partition=1, at_tick=0, duration=100),)),
    )
    before = {0: cluster.database(0).row_count(), 1: cluster.database(1).row_count()}
    balance = cluster.database(0).get_row(
        next(iter(cluster.database(0).all_tuple_ids("account")))
    )["bal"]
    outcome = coordinator.execute_transaction(_transfer())
    assert outcome.aborted
    assert "unavailable" in outcome.abort_reason
    # Zero side effects: neither partition was touched, not even the live one.
    assert cluster.database(0).row_count() == before[0]
    assert cluster.database(1).row_count() == before[1]
    assert cluster.database(0).get_row(
        next(iter(cluster.database(0).all_tuple_ids("account")))
    )["bal"] == balance
    assert coordinator.statistics.aborts == 1
    assert coordinator.statistics.transactions == 0


def test_abort_message_accounting_is_exact(bank_database):
    from repro.distributed.faults import FaultPlan, NodeCrash

    _, coordinator = _faulty_coordinator(
        bank_database,
        FaultPlan(node_crashes=(NodeCrash(partition=1, at_tick=0, duration=100),)),
    )
    outcome = coordinator.execute_transaction(_transfer())
    assert outcome.aborted
    # Prepare failed: one request/response pair per participant, no commit.
    assert outcome.messages == 2 * len(outcome.participants)
    assert outcome.latency == float(outcome.messages)


def test_retries_commit_after_crash_window_expires(bank_database):
    from repro.distributed.faults import FaultPlan, NodeCrash

    cluster, coordinator = _faulty_coordinator(
        bank_database,
        # Down for ticks 0..3; the clock advances *before* each attempt's
        # fault draw, so attempts run at ticks 1, 2, 3 (abort) and 4 (commit).
        FaultPlan(node_crashes=(NodeCrash(partition=1, at_tick=0, duration=4),)),
    )
    observed = []
    outcome = coordinator.execute_with_retries(_transfer(), observer=observed.append)
    assert not outcome.aborted
    # The observer saw every attempt, aborted retries included.
    assert [o.aborted for o in observed] == [True, True, True, False]
    assert coordinator.statistics.aborts == 3
    assert coordinator.statistics.transactions == 1


def test_retries_exhaust_against_permanent_outage(bank_database):
    from repro.distributed.faults import FaultPlan, NodeCrash

    _, coordinator = _faulty_coordinator(
        bank_database,
        FaultPlan(node_crashes=(NodeCrash(partition=1, at_tick=0, duration=10_000),)),
    )
    outcome = coordinator.execute_with_retries(_transfer(), max_attempts=3)
    assert outcome.aborted
    assert coordinator.statistics.aborts == 3
