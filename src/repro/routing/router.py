"""Statement and transaction routing (Appendix C.2 of the paper).

Given a partitioning strategy, the router decides which partitions each
statement must be sent to:

* statements whose WHERE clause pins the partitioning attributes (or the
  primary key, for a per-tuple strategy: its lookup table's entries, then
  its rules and default) are sent only to the owning partition(s);
* statements over other attributes are broadcast to every partition and the
  results unioned;
* reads of replicated tuples are sent to the single replica
  :func:`repro.core.strategies.choose_replica` picks — one the transaction
  already touches, else one spread by transaction id.  The paper credits this
  replica selection with fewer distributed transactions on read-mostly
  workloads.

The router is the only code that decides a transaction's participants: the
cost model and the online monitor score through a :func:`scoring_router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.schema import Schema
from repro.catalog.tuples import TupleId
from repro.core.strategies import (
    BASE, BROADCAST, EXPLICIT, MECHANISMS, PartitioningStrategy, ReplicaSet, choose_replica
)
from repro.graph.assignment import PartitionAssignment
from repro.obs import get_telemetry, use_telemetry
from repro.sqlparse.ast import Statement
from repro.sqlparse.shape import analyse
from repro.workload.trace import Transaction


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """Where one statement must be executed."""

    statement: Statement
    partitions: frozenset[int]
    broadcast: bool
    #: primary keys of the statement's one table it can touch, as resolved for
    #: routing; ``None`` when it could touch any row or spans several tables.
    keys: list[tuple[object, ...]] | None
    #: the statement compiled for SQLite: its shape's text (``None`` outside
    #: what SQLite can run) and its bind values.
    sql: str | None
    params: list[object]

    @property
    def is_single_partition(self) -> bool:
        """Whether the statement touches exactly one partition."""
        return len(self.partitions) == 1


@dataclass
class TransactionRoutingContext:
    """State carried across the statements of one transaction."""

    touched_partitions: set[int] = field(default_factory=set)
    #: spreads the replica choice of reads that share nothing with the rest.
    transaction_id: int = 0


_NO_EXTRA: frozenset[int] = frozenset()


class MigrationWindow:
    """Dual-write window a journaled migration opens on the router.

    While a migration is in flight, a write to a tuple whose placement is
    changing must reach the replicas being *added* as well as the current
    ones — otherwise an update landing after the copy step would be lost at
    the new location.  Reads keep preferring the source placement (the
    strategy's entries are untouched until the routing flip), so the window only
    widens the destination set of pk-resolved **writes**; a write the
    strategy would route by its conditions is broadcast while it is open.

    The window maps each in-flight tuple to its extra write partitions; it
    opens before the first copy and closes at the routing flip (forward
    path) or once rollback restores the old placement (cancel path).
    """

    def __init__(self) -> None:
        self._extra: dict[TupleId, frozenset[int]] = {}
        self._window_events = get_telemetry().metrics.counter(
            "router.window",
            "dual-write window lifecycle (opens/closes with in-flight tuples)",
            labels=("event",),
        )

    def __bool__(self) -> bool:
        return bool(self._extra)

    def __len__(self) -> int:
        return len(self._extra)

    def open(self, entries) -> None:
        """Start dual-writing: ``entries`` yields ``(tuple_id, extra)`` pairs."""
        for tuple_id, extra in entries:
            if extra:
                self._extra[tuple_id] = frozenset(extra)
        if self._extra:
            self._window_events.inc(event="opened")

    def close(self) -> None:
        """Stop dual-writing (after the flip, or once rollback completes)."""
        if self._extra:
            self._window_events.inc(event="closed")
        self._extra.clear()

    def extra_write_partitions(self, tuple_id: TupleId) -> frozenset[int]:
        """Extra partitions a write to ``tuple_id`` must also reach."""
        return self._extra.get(tuple_id, _NO_EXTRA)


class Router:
    """Routes statements according to a partitioning strategy.

    A per-tuple strategy's explicit entries are the router's lookup table:
    ``lookup_table`` may only name that same assignment (or be omitted), so
    the router can never consult placements the strategy does not hold.
    """

    def __init__(
        self,
        strategy: PartitioningStrategy,
        schema: Schema | None = None,
        lookup_table: PartitionAssignment | None = None,
    ) -> None:
        if lookup_table is not None and lookup_table is not getattr(
            strategy, "assignment", None
        ):
            raise ValueError("a router's lookup table is its strategy's own assignment")
        self.strategy = strategy
        self.schema = schema
        self.num_partitions = strategy.num_partitions
        self._all_partitions = frozenset(range(self.num_partitions))
        #: dual-write window of an in-flight migration (empty when idle).
        self.migration_window = MigrationWindow()
        metrics = get_telemetry().metrics
        self._dual_writes = metrics.counter(
            "router.dual_writes", "writes widened by the dual-write window"
        )
        routed = metrics.counter(
            "router.statements",
            "routed statements by the weakest mechanism that placed them",
            labels=("mechanism",),
        )
        #: one series per entry of MECHANISMS, held so routing pays no label lookup.
        self._routed = [routed.labels(mechanism=name) for name in MECHANISMS]

    def replace_strategy(self, strategy: PartitioningStrategy) -> None:
        """Swap in a new strategy, e.g. after an elastic resize.

        The fields change together so ``num_partitions`` can never
        disagree with the strategy; in CPython each rebind is atomic, and the
        elastic controller only calls this after the migration copies have
        completed, so statements routed under either generation of the state
        find resident replicas.
        """
        self.strategy = strategy
        self.num_partitions = strategy.num_partitions
        self._all_partitions = frozenset(range(self.num_partitions))

    # -- statements ----------------------------------------------------------------------
    def route_statement(
        self,
        statement: Statement,
        context: TransactionRoutingContext | None = None,
    ) -> RoutingDecision:
        """Decide the destination partitions of one statement.

        Keys, conditions and SQL all come from one analysis of the statement
        (:func:`repro.sqlparse.shape.analyse`).
        """
        if context is None:
            context = TransactionRoutingContext()
        shape, values = analyse(statement)
        writing = shape.write
        # An insert carries the whole row: a table the strategy cannot place
        # by key alone is placed by it the first time it is seen.
        row = statement.row if shape.kind == "insert" else None
        all_partitions = self._all_partitions
        destinations: set[int] = set()
        broadcast = False
        mechanism = EXPLICIT
        keys = None
        for table in shape.tables:
            keys = (
                shape.keys(table, self.schema.table(table).primary_key, values)
                if self.schema is not None and self.schema.has_table(table)
                else None
            )
            resolved = self._lookup_route(table, keys, writing, row, context)
            if resolved is not None:
                partitions, weakest = resolved
                mechanism = max(mechanism, weakest)
            else:
                partitions = self.strategy.partitions_for_conditions(
                    table, shape.conditions(table, values)
                )
                mechanism = max(mechanism, BASE)
                if partitions is not None and writing and self.migration_window:
                    # The dual-write window widens writes key by key; a write
                    # routed by its conditions names no key, so while tuples
                    # are in flight it goes everywhere — the replicas being
                    # added must not miss it.
                    partitions = None
            if partitions is None:
                destinations.update(all_partitions)
                broadcast = True
                continue
            if (
                resolved is None
                and not writing
                and isinstance(partitions, ReplicaSet)
                and partitions == all_partitions
                and len(partitions) > 1
            ):
                # The table (or matching rows) is replicated everywhere: a read
                # only needs one replica.  A union of placements that happens
                # to cover every partition is not a replica set.
                visited = destinations | context.touched_partitions
                partitions = {choose_replica(partitions, visited, context.transaction_id)}
            destinations.update(partitions)
        if not destinations:
            destinations = set(all_partitions)
            broadcast = True
        self._routed[BROADCAST if broadcast else mechanism].inc()
        context.touched_partitions.update(destinations)
        return RoutingDecision(
            statement,
            frozenset(destinations),
            broadcast,
            keys if len(shape.tables) == 1 else None,
            shape.sql,
            values,
        )

    def route_transaction(self, transaction: Transaction) -> list[RoutingDecision]:
        """Route every statement of a transaction, sharing one routing context."""
        context = TransactionRoutingContext(transaction_id=transaction.transaction_id)
        return [self.route_statement(statement, context) for statement in transaction.statements]

    def transaction_participants(self, transaction: Transaction) -> frozenset[int]:
        """Union of destination partitions across a transaction's statements."""
        participants: set[int] = set()
        for decision in self.route_transaction(transaction):
            participants.update(decision.partitions)
        return frozenset(participants)

    def participants_for_workload(self, workload) -> list[frozenset[int]]:
        """Participant sets of every transaction of a workload, in order.

        The routing signature of a deployment: two routers that agree on
        this list for a workload are indistinguishable to it.  Used by the
        plan round-trip tests (save -> load -> deploy must not change a
        single routing decision) and the CLI's ``deploy`` report.
        """
        return [
            self.transaction_participants(transaction) for transaction in workload
        ]

    def placement_of(self, tuple_id: TupleId) -> frozenset[int]:
        """Full replica set of one tuple, as the strategy places it.

        Where :meth:`route_statement` narrows a replicated read to a single
        replica, this returns every partition holding the tuple — the
        fallback set a storage coordinator walks when the chosen replica's
        worker is unreachable.
        """
        return self.strategy.partitions_for_tuple(tuple_id)

    # -- helpers ------------------------------------------------------------------------
    def _lookup_route(
        self,
        table: str,
        keys: list[tuple[object, ...]] | None,
        writing: bool,
        row: Mapping[str, object] | None,
        context: TransactionRoutingContext,
    ) -> tuple[frozenset[int], int] | None:
        """Resolve the primary keys a statement pins through a per-tuple strategy.

        Each matched key contributes its placement; for reads, a key stored on
        several partitions (a replicated tuple) only contributes the one
        replica :func:`choose_replica` picks given the partitions this
        statement and the transaction already involve.  ``row`` is an
        insert's row, for strategies that place a new tuple by it.
        Returns the partitions and the weakest mechanism that placed a key.
        """
        strategy = self.strategy
        if keys is None or not strategy.per_tuple:
            return None
        partitions: set[int] = set()
        weakest = EXPLICIT
        window = self.migration_window
        for key in keys:
            tuple_id = TupleId(table, key)
            # The strategy decides: its explicit entry, its rules on the key
            # or the row, or its default policy.
            placement, mechanism = strategy.resolve(tuple_id, row)
            weakest = max(weakest, mechanism)
            if not writing and len(placement) > 1:
                visited = partitions | context.touched_partitions
                partitions.add(choose_replica(placement, visited, context.transaction_id))
            else:
                partitions.update(placement)
                if writing and window:
                    # Dual-write window: a migration in flight needs writes
                    # to also land on the replicas being added, or updates
                    # applied after the copy step would be lost at the new
                    # location.  Reads stay on the source placement.
                    extra = window.extra_write_partitions(tuple_id)
                    if extra:
                        partitions.update(extra)
                        self._dual_writes.inc()
        return (frozenset(partitions), weakest) if partitions else None


def scoring_router(strategy: PartitioningStrategy, schema: Schema | None) -> Router:
    """A router whose routes count in no metric (scoring is not serving), so
    ``router.statements`` counts only what a deployment served."""
    with use_telemetry(None):
        return Router(strategy, schema)
