"""Partition assignment produced by the graph phase.

A :class:`PartitionAssignment` maps every tuple to the *set* of partitions
that store it.  Singleton sets mean normal placement; larger sets mean the
partitioner decided to replicate the tuple (Section 4.2 of the paper: all
replica nodes of a tuple landing in the same partition means "do not
replicate").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.catalog.tuples import TupleId


@dataclass
class PartitionAssignment:
    """Mapping of tuple id -> frozenset of partition ids.

    >>> from repro.catalog.tuples import TupleId
    >>> assignment = PartitionAssignment(num_partitions=2)
    >>> assignment.assign(TupleId("users", (1,)), {0})
    >>> assignment.assign(TupleId("users", (2,)), {0, 1})
    >>> assignment.is_replicated(TupleId("users", (2,)))
    True
    >>> assignment.replication_label(TupleId("users", (2,)))
    'R0_1'
    >>> assignment.partition_tuple_counts()
    [2, 1]
    >>> assignment.memory_bytes()
    200
    """

    num_partitions: int
    placements: dict[TupleId, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")

    # -- construction ----------------------------------------------------------------
    def assign(self, tuple_id: TupleId, partitions: Iterable[int]) -> None:
        """Assign ``tuple_id`` to ``partitions`` (validated against ``num_partitions``)."""
        partition_set = frozenset(partitions)
        if not partition_set:
            raise ValueError(f"tuple {tuple_id} must be assigned to at least one partition")
        for partition in partition_set:
            if not 0 <= partition < self.num_partitions:
                raise ValueError(f"partition {partition} out of range for {tuple_id}")
        self.placements[tuple_id] = partition_set

    # -- queries ----------------------------------------------------------------------
    def partitions_of(self, tuple_id: TupleId) -> frozenset[int] | None:
        """Partitions storing ``tuple_id`` (None when the tuple is unknown)."""
        return self.placements.get(tuple_id)

    def is_replicated(self, tuple_id: TupleId) -> bool:
        """Whether the tuple is stored on more than one partition."""
        placement = self.placements.get(tuple_id)
        return placement is not None and len(placement) > 1

    def __contains__(self, tuple_id: TupleId) -> bool:
        return tuple_id in self.placements

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self) -> Iterator[TupleId]:
        return iter(self.placements)

    @property
    def replicated_count(self) -> int:
        """Number of tuples placed on more than one partition."""
        return sum(1 for placement in self.placements.values() if len(placement) > 1)

    def memory_bytes(self) -> int:
        """Approximate footprint as a router lookup table: ~100 B of Python per entry."""
        return 100 * len(self.placements)

    def partition_tuple_counts(self) -> list[int]:
        """Number of tuples stored on each partition (replicas counted everywhere)."""
        counts = [0] * self.num_partitions
        for placement in self.placements.values():
            for partition in placement:
                counts[partition] += 1
        return counts

    def partition_weights(self, weights: Mapping[TupleId, float] | None = None) -> list[float]:
        """Total weight per partition; defaults to tuple counts when no weights given."""
        totals = [0.0] * self.num_partitions
        for tuple_id, placement in self.placements.items():
            weight = 1.0 if weights is None else weights.get(tuple_id, 0.0)
            for partition in placement:
                totals[partition] += weight
        return totals

    def replication_label(self, tuple_id: TupleId) -> str:
        """The classification label used by the explanation phase.

        Single-partition tuples are labelled with the partition number;
        replicated tuples get a stable ``R<sorted partition list>`` label
        (the paper's "virtual partition" labels, e.g. ``R1``).
        """
        placement = self.placements[tuple_id]
        if len(placement) == 1:
            return str(next(iter(placement)))
        return "R" + "_".join(str(partition) for partition in sorted(placement))
