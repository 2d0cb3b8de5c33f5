"""The single-node database: a catalog schema over one in-memory SQLite store.

This is the substrate that stands in for the paper's MySQL.  Every statement
runs as its shape's compiled SQL, rewritten as in the paper's Section 5.3 to
also return the primary keys of the tuples it touches, so each statement
reports its exact read and write sets (as
:class:`~repro.catalog.tuples.TupleId` sets) — what the trace
pre-processing step of the paper extracts from the SQL log.  The SQLite
partitions of a deployment run the same DDL and the same SQL.
"""

from repro.engine.database import Database, StatementResult

__all__ = [
    "Database",
    "StatementResult",
]
