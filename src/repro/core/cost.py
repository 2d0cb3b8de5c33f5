"""Distributed-transaction cost model.

Section 3 of the paper establishes that the dominant cost in partitioned OLTP
is the *number of distributed transactions*; Section 6 uses the fraction of
distributed transactions as the comparison metric for every strategy.  This
module computes that metric for any strategy over an access trace:

* every tuple **written** by a transaction involves *all* partitions holding a
  replica of the tuple (replicas must be kept consistent);
* every tuple **read** involves *one* replica, picked statement by statement
  by :func:`repro.core.strategies.choose_replica` — one the transaction
  already visits, else one spread by transaction id.  The router calls the
  same function, so for key-pinned statements this is what it serves;
* the transaction is *distributed* when more than one partition ends up
  involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.tuples import TupleId
from repro.core.strategies import PartitioningStrategy, choose_replica
from repro.engine.database import Database
from repro.workload.rwsets import AccessTrace
from repro.workload.trace import TransactionAccess


@dataclass
class CostReport:
    """Result of evaluating one strategy over one access trace."""

    strategy_name: str
    num_partitions: int
    total_transactions: int = 0
    distributed_transactions: int = 0
    single_partition_transactions: int = 0
    empty_transactions: int = 0
    #: how many transactions touched each partition.
    partition_transaction_counts: list[int] = field(default_factory=list)
    #: total number of (transaction, partition) participations.
    total_participations: int = 0

    @property
    def distributed_fraction(self) -> float:
        """Fraction of (non-empty) transactions that are distributed."""
        effective = self.total_transactions - self.empty_transactions
        if effective <= 0:
            return 0.0
        return self.distributed_transactions / effective

    @property
    def mean_participants(self) -> float:
        """Average number of partitions per non-empty transaction."""
        effective = self.total_transactions - self.empty_transactions
        if effective <= 0:
            return 0.0
        return self.total_participations / effective

    def partition_load_imbalance(self) -> float:
        """Max/mean ratio of per-partition transaction counts (1.0 = perfectly even)."""
        counts = [count for count in self.partition_transaction_counts]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0

    def describe(self) -> str:
        """One-line summary used by the experiment harness."""
        return (
            f"{self.strategy_name}: {self.distributed_fraction:6.1%} distributed "
            f"({self.distributed_transactions}/{self.total_transactions - self.empty_transactions} transactions, "
            f"mean participants {self.mean_participants:.2f})"
        )


def evaluate_strategy(
    strategy: PartitioningStrategy,
    trace: AccessTrace,
    database: Database | None = None,
    row_cache: Mapping[TupleId, Mapping[str, object]] | None = None,
) -> CostReport:
    """Evaluate ``strategy`` over ``trace``, returning a :class:`CostReport`.

    ``database`` (or a pre-built ``row_cache``) supplies tuple attribute
    values to strategies that need them (range predicates, attribute
    hashing); strategies that only use the primary key work without it.
    Given only a ``database``, each row the trace touches is read once.
    """
    if row_cache is None and database is not None:
        row_cache = trace_rows(trace, database)
    report = CostReport(strategy.name, strategy.num_partitions)
    report.partition_transaction_counts = [0] * strategy.num_partitions
    for access in trace:
        report.total_transactions += 1
        partitions = transaction_partitions(strategy, access, database, row_cache)
        if not partitions:
            report.empty_transactions += 1
            continue
        report.total_participations += len(partitions)
        for partition in partitions:
            report.partition_transaction_counts[partition] += 1
        if len(partitions) > 1:
            report.distributed_transactions += 1
        else:
            report.single_partition_transactions += 1
    return report


def trace_rows(trace: AccessTrace, database: Database) -> dict[TupleId, dict[str, object] | None]:
    """The row behind every tuple ``trace`` touches (None when gone), each read once."""
    return {tuple_id: database.get_row(tuple_id) for tuple_id in trace.all_tuples()}


def transaction_partitions(
    strategy: PartitioningStrategy,
    access: TransactionAccess,
    database: Database | None = None,
    row_cache: Mapping[TupleId, Mapping[str, object]] | None = None,
) -> frozenset[int]:
    """The partitions a transaction must involve under ``strategy``, statement
    by statement as the router serves it: a written tuple involves every
    replica, a read tuple only the one :func:`choose_replica` picks."""
    involved: set[int] = set()
    transaction_id = access.transaction.transaction_id
    for statement in access.statement_accesses:
        written = statement.write_set
        for tuple_id in sorted(written):
            row = _row_for(tuple_id, database, row_cache)
            involved.update(strategy.partitions_for_tuple(tuple_id, row))
        for tuple_id in sorted(statement.read_set - written):
            row = _row_for(tuple_id, database, row_cache)
            replicas = strategy.partitions_for_tuple(tuple_id, row)
            involved.add(choose_replica(replicas, involved, transaction_id))
    return frozenset(involved)


def _row_for(
    tuple_id: TupleId,
    database: Database | None,
    row_cache: Mapping[TupleId, Mapping[str, object]] | None,
) -> Mapping[str, object] | None:
    if row_cache is not None and tuple_id in row_cache:
        return row_cache[tuple_id]
    if database is not None:
        return database.get_row(tuple_id)
    return None
