"""Middleware routing layer: the statement router and its lookup table.

Corresponds to Appendix C of the paper: the router parses each statement's
WHERE clause, compares the extracted conditions to the partitioning scheme
(lookup tables, range predicates, or hashing), and returns the set of
partitions the statement must be sent to, broadcasting when it cannot narrow
the destination.  Reads of replicated tuples prefer partitions the transaction
has already touched.
"""

from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router, RoutingDecision, TransactionRoutingContext

__all__ = [
    "Router",
    "RoutingDecision",
    "TransactionRoutingContext",
    "build_lookup_table",
]
