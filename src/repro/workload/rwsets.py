"""Read/write-set extraction.

The paper (Section 5.3) rewrites SQL statements from a trace into queries that
return the primary keys of the tuples each statement accesses.  Extraction
does exactly that: it executes the workload against a loaded
:class:`~repro.engine.database.Database`, which runs every statement as its
shape's SQL on SQLite with the key columns added (a SELECT projects them, an
UPDATE or DELETE returns them), and records the tuple ids each statement
touched.  Write statements are executed for real so that later statements in
the trace observe their effects, exactly as the online extraction mode of the
paper would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.workload.trace import (
    StatementAccess,
    TransactionAccess,
    Workload,
    iter_chunks,
)


@dataclass
class AccessTrace:
    """The result of extracting read/write sets for a workload."""

    workload_name: str
    accesses: list[TransactionAccess] = field(default_factory=list)

    def __iter__(self) -> Iterator[TransactionAccess]:
        return iter(self.accesses)

    def __len__(self) -> int:
        return len(self.accesses)

    def all_tuples(self) -> set[TupleId]:
        """Every tuple referenced anywhere in the trace."""
        tuples: set[TupleId] = set()
        for access in self.accesses:
            tuples.update(access.touched)
        return tuples

    def access_counts(self) -> dict[TupleId, int]:
        """Number of transactions that touch each tuple."""
        counts: dict[TupleId, int] = {}
        for access in self.accesses:
            for tuple_id in access.touched:
                counts[tuple_id] = counts.get(tuple_id, 0) + 1
        return counts

    def write_counts(self) -> dict[TupleId, int]:
        """Number of transactions that write each tuple."""
        counts: dict[TupleId, int] = {}
        for access in self.accesses:
            for tuple_id in access.write_set:
                counts[tuple_id] = counts.get(tuple_id, 0) + 1
        return counts

    def replace(self, accesses: Sequence[TransactionAccess]) -> "AccessTrace":
        """Return a new trace with the same name and different accesses."""
        return AccessTrace(self.workload_name, list(accesses))

    def iter_batches(self, batch_size: int) -> Iterator[list[TransactionAccess]]:
        """Stream the trace as chunked batches of transaction accesses.

        The online monitor ingests through this, the batch pipeline consumes
        the whole list — both see the same ordering and chunking semantics
        (see :func:`repro.workload.trace.iter_chunks`).
        """
        return iter_chunks(self.accesses, batch_size)


def extract_access_trace(
    database: Database,
    workload: Workload,
    skip_empty: bool = True,
) -> AccessTrace:
    """Execute ``workload`` against ``database`` recording per-statement accesses.

    Parameters
    ----------
    database:
        A loaded database.  Write statements mutate it; callers that need the
        original contents afterwards should extract on a throwaway copy.
    workload:
        The workload whose read/write sets to compute.
    skip_empty:
        Drop transactions that end up touching no tuples (e.g. selects that
        matched nothing); they carry no information for partitioning.
    """
    trace = AccessTrace(workload.name)
    for transaction in workload:
        statement_accesses = []
        for statement in transaction.statements:
            result = database.execute(statement)
            statement_accesses.append(
                StatementAccess(
                    statement,
                    frozenset(result.read_set),
                    frozenset(result.write_set),
                )
            )
        access = TransactionAccess(transaction, tuple(statement_accesses))
        if skip_empty and not access.touched:
            continue
        trace.accesses.append(access)
    return trace
