"""Graph representation of a database + workload, and a multilevel min-cut partitioner.

This package implements the heart of Schism:

* :mod:`repro.graph.model` — a weighted undirected graph tuned for the
  partitioner's access patterns: a mutable construction ``Graph`` (an
  append-only edge log, float node/edge weights) plus the frozen
  ``CSRGraph`` compute representation every optimisation loop runs on
  (``Graph.freeze()``);
* :mod:`repro.graph.builder` — turning an access trace into the paper's graph
  (transaction clique edges, star-shaped replication nodes, data-size or
  workload node weights), including the tuple-coalescing heuristic;
* :mod:`repro.graph.coarsen` / :mod:`initial` / :mod:`refine` /
  :mod:`partitioner` — a from-scratch METIS-style multilevel k-way balanced
  min-cut partitioner (heavy-edge matching, greedy graph growing,
  Fiduccia–Mattheyses refinement, recursive bisection).
"""

from repro.graph.builder import GraphBuildOptions, TupleGraph, build_tuple_graph
from repro.graph.model import CSRGraph, Graph, as_csr
from repro.graph.partitioner import GraphPartitioner, PartitionerOptions, cut_weight, partition_graph
from repro.graph.assignment import PartitionAssignment

__all__ = [
    "CSRGraph",
    "Graph",
    "as_csr",
    "GraphBuildOptions",
    "GraphPartitioner",
    "PartitionAssignment",
    "PartitionerOptions",
    "TupleGraph",
    "build_tuple_graph",
    "cut_weight",
    "partition_graph",
]
