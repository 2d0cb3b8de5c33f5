"""Distributed-transaction cost model.

Section 3 of the paper establishes that the dominant cost in partitioned OLTP
is the *number of distributed transactions*; Section 6 uses the fraction of
distributed transactions as the comparison metric for every strategy.  This
module computes that metric as a deployment of the strategy serves it: each
transaction is routed (:meth:`repro.routing.router.Router.transaction_participants`)
over the strategy's :func:`~repro.core.strategies.deployed_form`, and costs
the partitions the router cannot skip — a write every replica of what it
pins, a read one replica, a statement nothing narrows every partition.  It
is *distributed* when that is more than one.  Before routing, the form places
every tuple the trace touches by its row, as loading a deployment does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.tuples import TupleId
from repro.core.strategies import PartitioningStrategy, deployed_form
from repro.engine.database import Database
from repro.routing.router import scoring_router
from repro.workload.rwsets import AccessTrace


@dataclass
class CostReport:
    """Result of evaluating one strategy over one access trace."""

    strategy_name: str
    num_partitions: int
    total_transactions: int = 0
    distributed_transactions: int = 0
    #: how many transactions touched each partition.
    partition_transaction_counts: list[int] = field(default_factory=list)
    #: total number of (transaction, partition) participations.
    total_participations: int = 0

    @property
    def distributed_fraction(self) -> float:
        """Fraction of transactions that are distributed."""
        if self.total_transactions <= 0:
            return 0.0
        return self.distributed_transactions / self.total_transactions

    @property
    def mean_participants(self) -> float:
        """Average number of partitions per transaction."""
        if self.total_transactions <= 0:
            return 0.0
        return self.total_participations / self.total_transactions

    def partition_load_imbalance(self) -> float:
        """Max/mean ratio of per-partition transaction counts (1.0 = perfectly even)."""
        counts = self.partition_transaction_counts
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0

    def describe(self) -> str:
        """One-line summary used by the experiment harness."""
        return (
            f"{self.strategy_name}: {self.distributed_fraction:6.1%} distributed "
            f"({self.distributed_transactions}/{self.total_transactions} transactions, "
            f"mean participants {self.mean_participants:.2f})"
        )


def evaluate_strategy(
    strategy: PartitioningStrategy,
    trace: AccessTrace,
    database: Database,
    row_cache: Mapping[TupleId, Mapping[str, object] | None] | None = None,
    default_policy: str = "hash",
) -> CostReport:
    """Evaluate ``strategy`` over ``trace``, returning a :class:`CostReport`.

    ``database`` supplies the schema's primary keys and the row of every
    tuple the trace touches (each read once, or taken from ``row_cache``).
    ``default_policy`` is the deployed form's last resort (see
    :func:`~repro.core.validation.default_policy`).
    """
    rows = trace_rows(trace, database) if row_cache is None else row_cache
    schema = database.schema
    deployed = deployed_form(strategy, schema.primary_keys, default_policy)
    for tuple_id, row in rows.items():
        if row is not None:
            deployed.partitions_for_tuple(tuple_id, row)
    router = scoring_router(deployed, schema)
    report = CostReport(strategy.name, strategy.num_partitions)
    report.partition_transaction_counts = [0] * strategy.num_partitions
    for access in trace:
        partitions = router.transaction_participants(access.transaction)
        report.total_transactions += 1
        report.total_participations += len(partitions)
        for partition in partitions:
            report.partition_transaction_counts[partition] += 1
        if len(partitions) > 1:
            report.distributed_transactions += 1
    return report


def trace_rows(trace: AccessTrace, database: Database) -> dict[TupleId, dict[str, object] | None]:
    """The row behind every tuple ``trace`` touches (None when gone), each read once."""
    return {tuple_id: database.get_row(tuple_id) for tuple_id in trace.all_tuples()}
