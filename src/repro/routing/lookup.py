"""The router's lookup table (Appendix C.1 of the paper).

A deployment keeps one map of explicit placements: the
:class:`~repro.graph.assignment.PartitionAssignment` of its
:class:`~repro.core.strategies.LookupTablePartitioning`.  The router reads
it through the strategy, and live migration writes it through
:meth:`~repro.core.strategies.LookupTablePartitioning.place`, so there is no
second copy to keep in step.
"""

from __future__ import annotations

from repro.graph.assignment import PartitionAssignment


def build_lookup_table(assignment: PartitionAssignment) -> PartitionAssignment:
    """The lookup table of a deployment placed by ``assignment``: the assignment itself.

    >>> from repro.catalog.tuples import TupleId
    >>> assignment = PartitionAssignment(num_partitions=2)
    >>> assignment.assign(TupleId("users", (7,)), {1})
    >>> build_lookup_table(assignment) is assignment
    True
    """
    return assignment
