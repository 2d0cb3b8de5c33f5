"""In-memory single-node storage engine and statement executor.

This engine is the substrate that stands in for MySQL in the paper's setup.
It stores tables in memory, evaluates the mini-SQL statements produced by the
workload generators, and — most importantly for Schism — reports the exact
read and write sets (as :class:`~repro.catalog.tuples.TupleId` sets) of every
statement, which is what the trace pre-processing step of the paper extracts
from the SQL log.
"""

from repro.engine.database import Database
from repro.engine.executor import StatementResult
from repro.engine.storage import TableStorage

__all__ = [
    "Database",
    "StatementResult",
    "TableStorage",
]
