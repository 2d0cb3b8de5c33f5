"""A shared-nothing cluster of partition databases."""

from __future__ import annotations

from repro.catalog.schema import Schema
from repro.catalog.tuples import TupleId
from repro.core.strategies import PartitioningStrategy
from repro.engine.database import Database


class Cluster:
    """One in-memory :class:`Database` per partition."""

    def __init__(self, schema: Schema, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.schema = schema
        self.num_partitions = num_partitions
        self.partition_databases = [Database(schema) for _ in range(num_partitions)]

    @classmethod
    def from_database(cls, database: Database, strategy: PartitioningStrategy) -> "Cluster":
        """Materialise a cluster by placing every tuple of ``database``.

        This is the physical "data migration" step: each tuple is copied to
        every partition ``strategy`` assigns it to (replicated tuples appear
        on several partitions).  Pass the strategy the router routes by.
        """
        cluster = cls(database.schema, strategy.num_partitions)
        for table in database.schema.tables:
            for key, row in database.rows(table.name).items():
                placements = strategy.partitions_for_tuple(TupleId(table.name, key), row)
                for partition in placements:
                    cluster.partition_databases[partition].insert_row(table.name, row)
        return cluster

    def database(self, partition: int) -> Database:
        """The database instance backing ``partition``."""
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        return self.partition_databases[partition]

    # -- elastic membership (online partition scaling) ---------------------------------
    def grow_to(self, new_num_partitions: int) -> None:
        """Add empty partitions until the cluster has ``new_num_partitions``.

        Called by the elastic controller *before* migration copies, so data
        can land on the new partitions while every existing placement stays
        valid.
        """
        if new_num_partitions <= self.num_partitions:
            raise ValueError("grow_to requires more partitions than the cluster has")
        while self.num_partitions < new_num_partitions:
            self.partition_databases.append(Database(self.schema))
            self.num_partitions += 1

    def shrink_to(self, new_num_partitions: int) -> None:
        """Remove the trailing partitions down to ``new_num_partitions``.

        The partitions being removed must already be empty: the elastic
        controller migrates their tuples away (copy -> routing update ->
        drop) before shrinking, so removal never destroys a live replica.
        The removed partitions' databases are closed.
        """
        if not 0 < new_num_partitions < self.num_partitions:
            raise ValueError("shrink_to requires fewer (but at least 1) partitions")
        for partition in range(new_num_partitions, self.num_partitions):
            remaining = self.partition_databases[partition].row_count()
            if remaining:
                raise ValueError(
                    f"partition {partition} still stores {remaining} rows; "
                    "migrate them away before shrinking"
                )
        for database in self.partition_databases[new_num_partitions:]:
            database.close()
        del self.partition_databases[new_num_partitions:]
        self.num_partitions = new_num_partitions

    def all_tuple_ids(self) -> set[TupleId]:
        """Every tuple stored anywhere in the cluster (replicas deduplicated)."""
        return set(self.tuple_locations_map())

    def tuple_locations_map(self) -> dict[TupleId, frozenset[int]]:
        """Physical replica set of every stored tuple, in one storage walk.

        The bulk counterpart of :meth:`tuple_locations`: the elastic resize
        needs the location of *every* tuple (pinning + migration planning),
        and per-tuple probing would rescan each partition's storage once per
        tuple instead of once in total.
        """
        locations: dict[TupleId, set[int]] = {}
        for partition, database in enumerate(self.partition_databases):
            for tuple_id in database.all_tuple_ids():
                locations.setdefault(tuple_id, set()).add(partition)
        return {
            tuple_id: frozenset(partitions)
            for tuple_id, partitions in locations.items()
        }

    # -- tuple-level operations (live migration) ---------------------------------------
    def has_tuple(self, tuple_id: TupleId, partition: int) -> bool:
        """Whether ``partition`` physically stores ``tuple_id``."""
        return self.database(partition).get_row(tuple_id) is not None

    def tuple_locations(self, tuple_id: TupleId) -> frozenset[int]:
        """Every partition physically storing ``tuple_id`` (replicas included)."""
        return frozenset(
            partition
            for partition in range(self.num_partitions)
            if self.has_tuple(tuple_id, partition)
        )

    def copy_tuple(self, tuple_id: TupleId, source: int, target: int) -> int | None:
        """Copy one tuple's row from ``source`` to ``target``.

        Returns the bytes written (0 when the target already held a replica —
        the operation is idempotent), or ``None`` when the source no longer
        has the row (e.g. it was deleted by live traffic mid-migration).
        """
        row = self.database(source).get_row(tuple_id)
        if row is None:
            return None
        target_database = self.database(target)
        if target_database.get_row(tuple_id) is not None:
            return 0
        target_database.insert_row(tuple_id.table, row)
        return target_database.tuple_byte_size(tuple_id)

    def drop_tuple(self, tuple_id: TupleId, partition: int) -> bool:
        """Delete ``tuple_id``'s replica on ``partition``; False when absent."""
        return self.database(partition).delete_row(tuple_id)

    def row_counts(self) -> list[int]:
        """Number of rows stored on each partition (replicas counted everywhere)."""
        return [db.row_count() for db in self.partition_databases]

    def total_rows(self) -> int:
        """Total stored rows across the cluster (including replicas)."""
        return sum(self.row_counts())

    def imbalance(self) -> float:
        """Max/mean ratio of per-partition row counts (1.0 = perfectly even)."""
        counts = self.row_counts()
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean
