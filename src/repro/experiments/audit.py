"""The row-by-row oracle audit the resilience experiments share.

Every chaos experiment ends the same way: the committed traffic was also
applied to a single-node oracle database, and the surviving cluster — the
simulated partitions or the SQLite files — must agree with it tuple by
tuple.  (The benchmark's ``_audit`` in ``benchmarks/schism_bench`` is a
deliberately independent yardstick and does not use this.)
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from repro.catalog.tuples import TupleId
from repro.distributed.cluster import Cluster
from repro.engine.database import Database
from repro.storage import SqliteStorageCluster


class OracleAudit(NamedTuple):
    """Counts of one :func:`audit_against_oracle` walk (all zero/True = clean)."""

    #: stored replicas whose row differs from the oracle's.
    lost_updates: int
    #: stored tuples the oracle does not have.
    phantom_rows: int
    #: stored tuples resident on none of the partitions routing sends them to.
    unreachable_tuples: int
    #: the cluster stores exactly the oracle's tuple set.
    tuple_conservation: bool


def audit_violations(report, prefix: str = "") -> list[str]:
    """The acceptance failures the four audit counts on ``report`` amount to."""
    failures = []
    if report.lost_updates:
        failures.append(f"{prefix}{report.lost_updates} lost updates")
    if report.phantom_rows:
        failures.append(f"{prefix}{report.phantom_rows} phantom rows")
    if report.unreachable_tuples:
        failures.append(f"{prefix}{report.unreachable_tuples} unreachable tuples")
    if not report.tuple_conservation:
        failures.append(f"{prefix}tuple set not conserved")
    return failures


def audit_against_oracle(
    rows_by_partition: Mapping[int, Mapping[TupleId, Mapping[str, object]]],
    placement_of: Callable[[TupleId], frozenset[int]],
    oracle: Database,
) -> OracleAudit:
    """Compare every stored replica against ``oracle`` and the routed placement.

    ``rows_by_partition`` maps each partition to the rows it physically
    holds; ``placement_of`` is where the deployed routing looks for a tuple.
    """
    residents: dict[TupleId, set[int]] = {}
    for partition, rows in rows_by_partition.items():
        for tuple_id in rows:
            residents.setdefault(tuple_id, set()).add(partition)
    lost_updates = phantom_rows = unreachable_tuples = 0
    for tuple_id, resident in residents.items():
        oracle_row = oracle.get_row(tuple_id)
        if oracle_row is None:
            phantom_rows += 1
            continue
        lost_updates += sum(
            1 for partition in resident if rows_by_partition[partition][tuple_id] != oracle_row
        )
        if placement_of(tuple_id).isdisjoint(resident):
            unreachable_tuples += 1
    return OracleAudit(
        lost_updates,
        phantom_rows,
        unreachable_tuples,
        set(residents) == set(oracle.all_tuple_ids()),
    )


def cluster_rows(cluster: Cluster) -> dict[int, dict[TupleId, dict[str, object]]]:
    """Every row the simulated cluster holds, per partition."""
    rows: dict[int, dict[TupleId, dict[str, object]]] = {}
    for partition in range(cluster.num_partitions):
        database = cluster.database(partition)
        rows[partition] = {
            tuple_id: database.get_row(tuple_id) for tuple_id in database.all_tuple_ids()
        }
    return rows


def sqlite_rows(
    cluster: SqliteStorageCluster,
) -> dict[int, dict[TupleId, dict[str, object]]]:
    """Every row in the (closed) cluster's SQLite files, per partition."""
    rows: dict[int, dict[TupleId, dict[str, object]]] = {}
    for partition in range(cluster.num_partitions):
        store = cluster.open_store(partition)
        try:
            rows[partition] = {
                TupleId(table.name, key): row
                for table in cluster.schema.tables
                for key, row in store.all_rows(table.name).items()
            }
        finally:
            store.close()
    return rows
