"""Figure 5 — graph partitioner scalability with the number of partitions.

The paper partitions the Epinions, TPCC-50W and TPC-E graphs (Table 1) into
2..512 partitions with kmetis and reports the running time: roughly flat in
the number of partitions and roughly linear in the number of edges.  We
reproduce the sweep on synthetic graphs with the same *relative* sizes
(scaled down so the sweep runs on a laptop) using our multilevel partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.model import Graph
from repro.graph.partitioner import GraphPartitioner, PartitionerOptions, cut_weight
from repro.obs import Stopwatch
from repro.utils.rng import SeededRng


@dataclass
class Figure5Row:
    """Partitioning time for one (graph, k) point."""

    graph_name: str
    num_nodes: int
    num_edges: int
    num_partitions: int
    seconds: float
    cut_weight: float


#: the three graphs of Table 1, scaled by the same factor relative to each
#: other (Epinions : TPCC-50 : TPC-E node ratio 0.6M : 2.5M : 3.0M, edge
#: ratio 5M : 65M : 100M).
DEFAULT_GRAPH_SPECS: tuple[tuple[str, int, int], ...] = (
    ("epinions", 6_000, 50_000),
    ("tpcc-50w", 25_000, 200_000),
    ("tpce", 30_000, 300_000),
)


def synthetic_access_graph(num_nodes: int, num_edges: int, seed: int = 0) -> Graph:
    """Build a graph with local clustering similar to a tuple-access graph.

    Edges connect nodes that are close in id space (mimicking co-accessed
    tuples) with occasional long-range edges (cross-cluster transactions).
    """
    rng = SeededRng(seed)
    graph = Graph()
    graph.add_nodes(num_nodes, 1.0)
    for _ in range(num_edges):
        u = rng.randint(0, num_nodes - 1)
        if rng.bernoulli(0.9):
            offset = rng.randint(1, 50)
            v = (u + offset) % num_nodes
        else:
            v = rng.randint(0, num_nodes - 1)
        if u != v:
            graph.add_edge(u, v, 1.0)
    return graph


def run_figure5(
    partition_counts: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    graph_specs: tuple[tuple[str, int, int], ...] = DEFAULT_GRAPH_SPECS,
    seed: int = 0,
) -> list[Figure5Row]:
    """Time the partitioner over the k sweep for each graph."""
    rows: list[Figure5Row] = []
    for name, num_nodes, num_edges in graph_specs:
        graph = synthetic_access_graph(num_nodes, num_edges, seed)
        # Freeze once per graph: every point of the k sweep reuses the CSR
        # form instead of compiling the edge log again.
        frozen = graph.freeze()
        for num_partitions in partition_counts:
            options = PartitionerOptions(seed=seed, initial_trials=4, refine_passes=2)
            partitioner = GraphPartitioner(options)
            with Stopwatch() as timer:
                assignment = partitioner.partition(frozen, num_partitions)
            rows.append(
                Figure5Row(
                    graph_name=name,
                    num_nodes=graph.num_nodes,
                    num_edges=graph.num_edges,
                    num_partitions=num_partitions,
                    seconds=timer.elapsed,
                    cut_weight=cut_weight(frozen, assignment),
                )
            )
    return rows


def format_figure5(rows: list[Figure5Row]) -> str:
    """Render the Figure 5 series as a text table."""
    lines = [
        "Figure 5: graph partitioning time vs number of partitions",
        f"{'graph':>12} {'nodes':>8} {'edges':>9} {'k':>5} {'seconds':>9} {'cut':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.graph_name:>12} {row.num_nodes:>8} {row.num_edges:>9} "
            f"{row.num_partitions:>5} {row.seconds:>9.2f} {row.cut_weight:>10.0f}"
        )
    return "\n".join(lines)
