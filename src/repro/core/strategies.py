"""Partitioning/replication strategies.

Every strategy answers two questions:

* **storage**: which partition(s) store a given tuple
  (:meth:`PartitioningStrategy.partitions_for_tuple`), which is what loading
  a cluster and routing a pinned key need;
* **routing**: which partitions could hold the tuples matching a set of
  equality conditions (:meth:`PartitioningStrategy.partitions_for_conditions`),
  which is what the middleware router needs; ``None`` means "cannot tell —
  broadcast".

The concrete strategies mirror the candidates compared in the paper's final
validation phase: fine-grained lookup tables, range predicates produced by
the explanation phase, hash partitioning, full-table replication, plus
composable per-table manual strategies used as baselines.
"""

from __future__ import annotations

import copy
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.catalog.tuples import TupleId
from repro.explain.rules import RuleSet, decode_label
from repro.graph.assignment import PartitionAssignment
from repro.sqlparse.predicates import AttributeCondition, pinned_values


def stable_hash(value: object) -> int:
    """A process-independent hash for partitioning (Python's ``hash`` is salted)."""
    digest = hashlib.blake2b(repr(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hash_home(tuple_id: TupleId, num_partitions: int) -> frozenset[int]:
    """Primary-key hash placement of ``tuple_id``.

    The single definition of where "hash" default policies and fallbacks
    send a tuple — shared by the strategies here and by the online
    controller's clamp/pinning paths, so they can never diverge from where
    the router actually routes implicitly-placed tuples.  The table name is
    included so same-valued keys of different tables do not artificially
    co-locate.
    """
    return frozenset({stable_hash((tuple_id.table, tuple_id.key)) % num_partitions})


def placement_at(
    tuple_id: TupleId, placement: Iterable[int], num_partitions: int
) -> frozenset[int]:
    """Where a tuple held on ``placement`` lives in a cluster of ``num_partitions``.

    The replicas on partitions that exist at that count; a tuple with none
    left (every holder is being removed by a shrink) goes to its hash home.
    The one rule the online controller's warm start and pinning, the
    migrator's wholesale routing swap and the storage resize planner share.
    """
    surviving = frozenset(part for part in placement if part < num_partitions)
    return surviving or hash_home(tuple_id, num_partitions)


def choose_replica(
    replicas: frozenset[int], visited: AbstractSet[int], transaction_id: int
) -> int:
    """The one of ``replicas`` a read is served from: the lowest partition the
    transaction already ``visited``, else one spread by transaction id (so
    reads that share nothing with their transaction do not all land on
    partition 0).  The router's one replica rule.
    """
    shared = replicas & visited
    if shared:
        return min(shared)
    return sorted(replicas)[transaction_id % len(replicas)]


class ReplicaSet(frozenset):
    """Partitions that each hold every row a statement may match.

    What :meth:`PartitioningStrategy.partitions_for_conditions` answers when
    the matching rows are one replica set — full replication, a
    ``replicate`` policy or fallback, one range rule's label — so a read
    needs only one of them.  A plain frozenset is a union of placements
    (say, the hash homes of an ``IN`` list): each member may hold rows the
    others lack, however many partitions it names.
    """

    __slots__ = ()


#: which layer answered a placement question, weakest last: an explicit
#: per-tuple entry, the strategy's own rule, the last-resort default policy,
#: or nothing (the statement is broadcast).  Indexes into this tuple are what
#: :meth:`PartitioningStrategy.resolve` returns and what the router counts.
MECHANISMS = ("explicit", "base", "default", "broadcast")
EXPLICIT, BASE, DEFAULT, BROADCAST = range(4)


def key_positions(
    primary_key: Sequence[str], columns: Iterable[str]
) -> tuple[tuple[str, int], ...] | None:
    """``(column, index into the key)`` for ``columns``; ``None`` when one of
    them is not a primary-key column, i.e. the key alone cannot supply them."""
    index = {column: position for position, column in enumerate(primary_key)}
    if any(column not in index for column in columns):
        return None
    return tuple((column, index[column]) for column in columns)


def key_row(positions: tuple[tuple[str, int], ...], key: tuple) -> dict[str, object]:
    """The row columns :func:`key_positions` located, read off ``key``."""
    return {column: key[index] for column, index in positions}


class PartitioningStrategy(ABC):
    """Base class for all strategies."""

    #: human-readable name used in reports ("lookup-table", "hashing", ...).
    name: str = "strategy"
    #: relative complexity used for tie-breaking in the final validation
    #: (lower is simpler and therefore preferred on a tie).
    complexity: int = 1
    #: placement is decided tuple by tuple: a router resolves a statement's
    #: pinned primary keys through :meth:`resolve` before trying its conditions.
    per_tuple: bool = False

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    # -- storage ------------------------------------------------------------------------
    @abstractmethod
    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        """Partitions that store ``tuple_id`` (always non-empty)."""

    def resolve(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> tuple[frozenset[int], int]:
        """:meth:`partitions_for_tuple` plus which of :data:`MECHANISMS` answered."""
        return self.partitions_for_tuple(tuple_id, row), BASE

    def routing_columns(self, table: str) -> tuple[str, ...]:
        """Row columns the placement of a ``table`` tuple is computed from
        (empty: the key alone decides)."""
        return ()

    def resized(self, num_partitions: int) -> "PartitioningStrategy":
        """The same rules over ``num_partitions`` partitions."""
        clone = copy.copy(self)
        clone.num_partitions = num_partitions
        return clone

    # -- routing ------------------------------------------------------------------------
    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        """Partitions a statement restricted by ``conditions`` may need to touch.

        ``None`` means the strategy cannot narrow the destination set and the
        statement must be broadcast to every partition holding the table.  A
        :class:`ReplicaSet` means any one member can answer a read.
        The default implementation routes only when the conditions pin down
        the full primary key via a synthesized row; subclasses override with
        cheaper/smarter logic.
        """
        return None

    @property
    def all_partitions(self) -> frozenset[int]:
        """The set of every partition id."""
        return frozenset(range(self.num_partitions))

    def describe(self) -> str:
        """One-line description for reports."""
        return f"{self.name} over {self.num_partitions} partitions"


# ---------------------------------------------------------------------------
# Hash partitioning
# ---------------------------------------------------------------------------
class HashPartitioning(PartitioningStrategy):
    """Hash partitioning on the primary key or on chosen columns per table.

    With no ``columns_per_table`` every tuple is hashed on its primary key —
    the paper's "hashing" baseline.  Providing columns (e.g. ``w_id`` for all
    TPC-C tables) turns it into an attribute-based hash scheme.
    """

    name = "hashing"
    complexity = 1

    def __init__(
        self,
        num_partitions: int,
        columns_per_table: Mapping[str, tuple[str, ...]] | None = None,
    ) -> None:
        super().__init__(num_partitions)
        self.columns_per_table = dict(columns_per_table or {})
        if self.columns_per_table:
            # Distinguish attribute hashing from primary-key hashing in reports.
            self.name = "attribute-hashing"

    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        columns = self.columns_per_table.get(tuple_id.table)
        if columns is None:
            return hash_home(tuple_id, self.num_partitions)
        if row is not None and all(column in row for column in columns):
            value: tuple[object, ...] = tuple(row[column] for column in columns)
        else:
            value = tuple_id.key
        # Attribute hashing deliberately omits the table name so that tuples of
        # different tables sharing the attribute value (e.g. TPC-C w_id) co-locate.
        return frozenset({stable_hash(value) % self.num_partitions})

    def routing_columns(self, table: str) -> tuple[str, ...]:
        return tuple(self.columns_per_table.get(table, ()))

    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        columns = self.columns_per_table.get(table)
        if columns is None:
            return None
        pinned = pinned_values(conditions, columns)
        if pinned is None:
            return None
        return frozenset(stable_hash(value) % self.num_partitions for value in pinned)


# ---------------------------------------------------------------------------
# Full replication
# ---------------------------------------------------------------------------
class FullReplication(PartitioningStrategy):
    """Every tuple is stored on every partition.

    Reads are always local; every write becomes a distributed transaction.
    """

    name = "replication"
    complexity = 0

    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        return self.all_partitions

    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        # Any single partition can answer a read; the router handles replica
        # choice, so reporting the full set keeps the semantics "stored here".
        return ReplicaSet(self.all_partitions)


# ---------------------------------------------------------------------------
# Range-predicate partitioning (output of the explanation phase)
# ---------------------------------------------------------------------------
class RangePredicatePartitioning(PartitioningStrategy):
    """Partitioning described by per-table predicate rule sets.

    Tables without a rule set follow the ``fallback`` policy: ``"replicate"``
    stores their tuples everywhere (the safe choice for read-mostly reference
    tables), ``"hash"`` hashes them on their primary key.

    With ``primary_keys`` (table -> key columns) a tuple asked about without
    its row is classified on the rule columns its key carries, and follows
    the fallback when the key does not carry them; without, the rules see an
    empty row and answer their default label.
    """

    name = "range-predicates"
    complexity = 2

    def __init__(
        self,
        num_partitions: int,
        rule_sets: Mapping[str, RuleSet],
        fallback: str = "replicate",
        primary_keys: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        super().__init__(num_partitions)
        if fallback not in ("replicate", "hash"):
            raise ValueError("fallback must be 'replicate' or 'hash'")
        self.rule_sets = dict(rule_sets)
        self.fallback = fallback
        self._columns = {
            table: tuple(
                sorted({c.attribute for rule in rule_set.rules for c in rule.conditions})
            )
            for table, rule_set in self.rule_sets.items()
        }
        #: label -> the partitions it names that exist at this partition count.
        self._valid: dict[str, frozenset[int]] = {}
        #: table -> key positions of its rule columns (None: not in the key);
        #: empty when no primary keys were given.
        self._key_positions = {
            table: key_positions(primary_keys[table], columns)
            for table, columns in self._columns.items()
            if table in (primary_keys or ())
        }

    def routing_columns(self, table: str) -> tuple[str, ...]:
        return self._columns.get(table, ())

    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        table = tuple_id.table
        rule_set = self.rule_sets.get(table)
        if rule_set is None:
            return self._fallback_partitions(tuple_id)
        if row is None:
            row = {}
            if table in self._key_positions:
                positions = self._key_positions[table]
                if positions is None:
                    return self._fallback_partitions(tuple_id)
                row = key_row(positions, tuple_id.key)
        return self._classified(rule_set, row) or self._fallback_partitions(tuple_id)

    def _classified(self, rule_set: RuleSet, row: Mapping[str, object]) -> frozenset[int]:
        """The existing partitions ``rule_set`` assigns ``row`` to (may be empty)."""
        label = rule_set.classify(row)
        valid = self._valid.get(label)
        if valid is None:
            valid = self._valid[label] = ReplicaSet(
                p for p in decode_label(label) if 0 <= p < self.num_partitions
            )
        return valid

    def resized(self, num_partitions: int) -> "RangePredicatePartitioning":
        clone = super().resized(num_partitions)
        clone._valid = {}
        return clone

    def _fallback_partitions(self, tuple_id: TupleId) -> frozenset[int]:
        if self.fallback == "replicate":
            return self.all_partitions
        return hash_home(tuple_id, self.num_partitions)

    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        rule_set = self.rule_sets.get(table)
        if rule_set is None:
            if self.fallback == "replicate":
                return ReplicaSet(self.all_partitions)
            return None
        # Route by synthesising a row from equality conditions on the rule
        # attributes.  Range conditions cannot pin a single rule path, so any
        # missing attribute forces a broadcast.
        row: dict[str, object] = {}
        for condition in conditions:
            values = condition.candidate_values()
            if len(values) == 1:
                row[condition.column] = values[0]
        if not all(attribute in row for attribute in rule_set.attributes):
            return None
        return self._classified(rule_set, row) or None

    def describe(self) -> str:
        tables = ", ".join(sorted(self.rule_sets)) or "-"
        return f"{self.name} over {self.num_partitions} partitions (tables: {tables})"


# ---------------------------------------------------------------------------
# Lookup-table partitioning (fine-grained, per-tuple)
# ---------------------------------------------------------------------------
class LookupTablePartitioning(PartitioningStrategy):
    """Fine-grained per-tuple placement: explicit entries over a ``base``.

    A tuple's home is, in order:

    1. its explicit entry in ``assignment`` (the graph phase's placement, or
       what live migration put there through :meth:`place`);
    2. the ``base`` strategy evaluated on the tuple's **primary-key columns**
       (``primary_keys``: table -> key columns), so the answer needs no row
       and every caller gets the same one.  A table whose routing columns are
       not all key columns is placed by its **row** the first time the row is
       seen, and that placement becomes an explicit entry — what the paper's
       lookup table does for new tuples;
    3. ``default_policy``, the last resort: ``"hash"`` on the primary key
       (the paper's "random partition until the partitioning is
       re-evaluated") or ``"replicate"`` everywhere (used for read-mostly
       workloads such as Epinions in the paper).

    Without a ``base`` only 1 and 3 apply.
    """

    name = "lookup-table"
    complexity = 3
    per_tuple = True

    def __init__(
        self,
        num_partitions: int,
        assignment: PartitionAssignment,
        default_policy: str = "hash",
        base: PartitioningStrategy | None = None,
        primary_keys: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        super().__init__(num_partitions)
        if default_policy not in ("hash", "replicate"):
            raise ValueError("default_policy must be 'hash' or 'replicate'")
        self.assignment = assignment
        self.default_policy = default_policy
        self.base = base
        self.primary_keys = {
            table: tuple(columns) for table, columns in (primary_keys or {}).items()
        }
        #: table -> key positions of the base's routing columns, for the
        #: tables whose key carries all of them.
        self._key_positions: dict[str, tuple[tuple[str, int], ...]] = {}
        #: tables holding an explicit entry the base would have placed
        #: elsewhere; the base cannot route their statements by conditions.
        self._strays: set[str] = set()
        if base is not None:
            for table, key in self.primary_keys.items():
                positions = key_positions(key, base.routing_columns(table))
                if positions is not None:
                    self._key_positions[table] = positions
        for tuple_id, placement in assignment.placements.items():
            self._note_entry(tuple_id, placement)

    def resolve(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> tuple[frozenset[int], int]:
        placement = self.assignment.placements.get(tuple_id)
        if placement:
            return placement, EXPLICIT
        base = self.base
        if base is not None:
            positions = self._key_positions.get(tuple_id.table)
            if positions is not None:
                return base.partitions_for_tuple(tuple_id, key_row(positions, tuple_id.key)), BASE
            if row is not None:
                placement = base.partitions_for_tuple(tuple_id, row)
                self.assignment.assign(tuple_id, placement)
                return placement, BASE
        if self.default_policy == "replicate":
            return self.all_partitions, DEFAULT
        return hash_home(tuple_id, self.num_partitions), DEFAULT

    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        return self.resolve(tuple_id, row)[0]

    def place(self, entries: Iterable[tuple[TupleId, Iterable[int]]]) -> None:
        """Write explicit entries (live migration's routing flip)."""
        for tuple_id, partitions in entries:
            self.assignment.assign(tuple_id, partitions)
            self._note_entry(tuple_id, self.assignment.placements[tuple_id])

    def _note_entry(self, tuple_id: TupleId, placement: frozenset[int]) -> None:
        """Mark the table stray unless the base, going by the key, agrees."""
        table = tuple_id.table
        if self.base is None or table in self._strays:
            return
        positions = self._key_positions.get(table)
        # No positions: placed by a row this entry does not come with.
        if positions is None or placement != self.base.partitions_for_tuple(
            tuple_id, key_row(positions, tuple_id.key)
        ):
            self._strays.add(table)

    def with_assignment(
        self, num_partitions: int, assignment: PartitionAssignment
    ) -> "LookupTablePartitioning":
        """This deployment's base and default over other explicit entries
        (a wholesale routing swap, possibly at another partition count)."""
        return LookupTablePartitioning(
            num_partitions,
            assignment,
            self.default_policy,
            self.base.resized(num_partitions) if self.base is not None else None,
            self.primary_keys,
        )

    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        # The router resolves pinned primary keys tuple by tuple; anything
        # else can only follow the base, and only while every tuple of the
        # table is where the base puts it.  A stray entry — a tuple migration
        # moved off its rule partition — may match the statement from a
        # partition the base would skip, so the table is broadcast instead.
        if self.base is None or table in self._strays:
            return None
        return self.base.partitions_for_conditions(table, conditions)

    def describe(self) -> str:
        base = f", over {self.base.name}" if self.base is not None else ""
        return (
            f"{self.name} over {self.num_partitions} partitions "
            f"({len(self.assignment)} tuples, {self.assignment.replicated_count} replicated, "
            f"default={self.default_policy}{base})"
        )


def deployed_form(
    strategy: PartitioningStrategy,
    primary_keys: Mapping[str, Sequence[str]],
    default_policy: str,
) -> LookupTablePartitioning:
    """The strategy a deployment of ``strategy`` routes by.

    Live migration updates per-tuple placements, which only a lookup table
    can express: explicit entries, empty until a row or a migration places a
    tuple, over ``strategy`` on the ``primary_keys`` columns, then
    ``default_policy``.  A lookup table is its own form, copied so that
    routing the form places nothing in ``strategy``.
    """
    num_partitions = strategy.num_partitions
    if isinstance(strategy, LookupTablePartitioning):
        entries = PartitionAssignment(num_partitions, dict(strategy.assignment.placements))
        return strategy.with_assignment(num_partitions, entries)
    return LookupTablePartitioning(
        num_partitions, PartitionAssignment(num_partitions), default_policy, strategy, primary_keys
    )


# ---------------------------------------------------------------------------
# Composite (manual) partitioning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TablePolicy:
    """Per-table policy used by :class:`CompositePartitioning`.

    ``kind`` is one of ``"hash"``, ``"replicate"``, ``"range"``.
    """

    kind: str
    columns: tuple[str, ...] = ()
    #: for range policies: sorted upper boundaries; partition i holds values
    #: <= boundaries[i], the last partition holds the rest.
    boundaries: tuple[float, ...] = ()


def hash_on(*columns: str) -> TablePolicy:
    """Policy: hash the table on ``columns``."""
    return TablePolicy("hash", tuple(columns))


def replicate() -> TablePolicy:
    """Policy: replicate the table on every partition."""
    return TablePolicy("replicate")


def range_on(column: str, boundaries: Sequence[float]) -> TablePolicy:
    """Policy: range-partition the table on ``column`` with the given upper bounds."""
    return TablePolicy("range", (column,), tuple(boundaries))


class CompositePartitioning(PartitioningStrategy):
    """Manual, per-table partitioning (used for the paper's "manual" baselines)."""

    name = "manual"
    complexity = 2

    def __init__(
        self,
        num_partitions: int,
        table_policies: Mapping[str, TablePolicy],
        default_policy: TablePolicy | None = None,
        name: str = "manual",
    ) -> None:
        super().__init__(num_partitions)
        self.table_policies = dict(table_policies)
        self.default_policy = default_policy or TablePolicy("hash")
        self.name = name

    def routing_columns(self, table: str) -> tuple[str, ...]:
        return self.table_policies.get(table, self.default_policy).columns

    def partitions_for_tuple(
        self, tuple_id: TupleId, row: Mapping[str, object] | None = None
    ) -> frozenset[int]:
        policy = self.table_policies.get(tuple_id.table, self.default_policy)
        return self._apply_policy(policy, tuple_id, row)

    def _apply_policy(
        self, policy: TablePolicy, tuple_id: TupleId, row: Mapping[str, object] | None
    ) -> frozenset[int]:
        if policy.kind == "replicate":
            return self.all_partitions
        if policy.kind == "hash":
            value: object
            if policy.columns and row is not None and all(c in row for c in policy.columns):
                value = tuple(row[c] for c in policy.columns)
            elif policy.columns and row is None:
                # No row available: fall back to the key so the answer stays deterministic.
                value = tuple_id.key
            else:
                value = (tuple_id.table, tuple_id.key)
            return frozenset({stable_hash(value) % self.num_partitions})
        if policy.kind == "range":
            column = policy.columns[0]
            if row is None or column not in row:
                return frozenset({stable_hash(tuple_id.key) % self.num_partitions})
            try:
                numeric = float(row[column])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return frozenset({stable_hash(row[column]) % self.num_partitions})
            return frozenset({self._range_partition(policy, numeric)})
        raise ValueError(f"unknown policy kind {policy.kind!r}")

    def _range_partition(self, policy: TablePolicy, numeric: float) -> int:
        """The partition of a range policy holding ``numeric``."""
        for partition, boundary in enumerate(policy.boundaries):
            if numeric <= boundary:
                return min(partition, self.num_partitions - 1)
        return self.num_partitions - 1

    def partitions_for_conditions(
        self, table: str, conditions: Sequence[AttributeCondition]
    ) -> frozenset[int] | None:
        policy = self.table_policies.get(table, self.default_policy)
        if policy.kind == "replicate":
            return ReplicaSet(self.all_partitions)
        if policy.kind == "hash":
            if not policy.columns:
                return None
            pinned = pinned_values(conditions, policy.columns)
            if pinned is None:
                return None
            return frozenset(stable_hash(value) % self.num_partitions for value in pinned)
        if policy.kind == "range":
            column = policy.columns[0]
            pinned = pinned_values(conditions, (column,))
            partitions: set[int] = set()
            if pinned is not None:
                for (value,) in pinned:
                    partitions.update(self._apply_policy(policy, TupleId(table, (value,)), {column: value}))
            else:
                # A numeric BETWEEN reaches the partitions its interval spans.
                for condition in conditions:
                    low, high = condition.low, condition.high
                    if condition.column == column and condition.operator == "between" and all(
                        isinstance(bound, (int, float)) for bound in (low, high)
                    ):
                        first = self._range_partition(policy, low)
                        partitions.update(range(first, self._range_partition(policy, high) + 1))
                        break
                else:
                    return None
            # Matches on every partition are not a replica set the router may
            # read one copy of: broadcast them.
            return frozenset(partitions) if len(partitions) < self.num_partitions else None
        return None
