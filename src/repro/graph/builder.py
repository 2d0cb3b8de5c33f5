"""Build the Schism graph from an access trace.

The graph follows Section 4.1 of the paper:

* one node per tuple (or per *group* of tuples that are always accessed
  together, when tuple-coalescing is enabled);
* clique edges among the tuples accessed by the same transaction, with edge
  weights accumulating over transactions;
* optional star-shaped "replication" expansion: a tuple accessed by *n*
  transactions becomes *n + 1* nodes — one central node plus one satellite
  per accessing transaction — with replication edges whose weight equals the
  number of transactions that *write* the tuple (the cost of keeping replicas
  consistent).  Transaction edges then attach to the satellites, letting the
  min-cut partitioner trade replication against distribution per tuple.

Node weights implement the two balancing modes of the paper: ``workload``
(number of accesses) or ``data_size`` (bytes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from repro.catalog.tuples import TupleId
from repro.engine.database import Database
from repro.graph.assignment import PartitionAssignment
from repro.graph.model import Graph
from repro.utils.rng import SeededRng
from repro.workload.rwsets import AccessTrace
from repro.workload.sampling import (
    filter_blanket_statements,
    sample_transactions,
    sample_tuples,
)

#: only tuples accessed by at least this many transactions are exploded into
#: a replication star (a tuple one transaction touches has nothing to trade).
MIN_ACCESSES_FOR_REPLICATION = 2
#: statements touching more than this many tuples are dropped (§5.1 blanket
#: statement filtering).
BLANKET_STATEMENT_THRESHOLD = 100
#: small constant added to every replication edge so that replication is only
#: chosen when it actually saves transaction edges (it models the
#: storage/consistency cost of keeping an extra copy).
REPLICATION_EPSILON = 0.1


@dataclass
class GraphBuildOptions:
    """Options controlling graph construction and the size-reduction heuristics."""

    #: enable the star-shaped replication expansion.
    replication: bool = True
    #: "workload" (accesses) or "data_size" (bytes) node weighting.
    node_weighting: str = "workload"
    #: transaction-level sampling fraction in (0, 1].
    transaction_sample_fraction: float = 1.0
    #: tuple-level sampling fraction in (0, 1].
    tuple_sample_fraction: float = 1.0
    #: merge tuples that are always accessed together into a single node.
    coalesce_tuples: bool = True
    #: random seed for the sampling heuristics.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_weighting not in ("workload", "data_size"):
            raise ValueError("node_weighting must be 'workload' or 'data_size'")


@dataclass
class _TupleGroup:
    """A coalesced group of tuples sharing the same access signature."""

    members: tuple[TupleId, ...]
    accessing_transactions: tuple[int, ...]
    writing_transactions: tuple[int, ...]
    center_node: int = -1
    #: transaction index -> satellite node id (empty when not exploded)
    satellites: dict[int, int] = field(default_factory=dict)

    @property
    def exploded(self) -> bool:
        """Whether the group was expanded into a replication star."""
        return bool(self.satellites)

    def nodes(self) -> list[int]:
        """All graph nodes representing this group."""
        return [self.center_node, *self.satellites.values()] if self.exploded else [self.center_node]

    def node_for_transaction(self, transaction_index: int) -> int:
        """The node a transaction's edges should attach to."""
        if self.exploded:
            return self.satellites[transaction_index]
        return self.center_node


class TupleGraph:
    """The graph plus the bookkeeping needed to map a node partition back to tuples."""

    def __init__(self, graph: Graph, groups: list[_TupleGroup], trace: AccessTrace) -> None:
        self.graph = graph
        self.groups = groups
        self.trace = trace
        self._group_of_tuple: dict[TupleId, _TupleGroup] = {}
        self._frozen = None
        for group in groups:
            for member in group.members:
                self._group_of_tuple[member] = group

    def frozen(self):
        """The CSR form of the graph, memoised.

        The partition stage (and any k sweep over the same graph) freezes
        once; the coarsening hierarchy is itself memoised on the frozen
        graph, so repeated partition calls share all the expensive setup.
        """
        if self._frozen is None:
            self._frozen = self.graph.freeze()
        return self._frozen

    # -- statistics -----------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        """Number of distinct tuples represented."""
        return len(self._group_of_tuple)

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes (after coalescing/explosion)."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of graph edges."""
        return self.graph.num_edges

    @property
    def num_transactions(self) -> int:
        """Number of transactions represented in the (possibly sampled) trace."""
        return len(self.trace)

    def group_of(self, tuple_id: TupleId) -> _TupleGroup | None:
        """The coalesced group containing ``tuple_id`` (None when filtered out)."""
        return self._group_of_tuple.get(tuple_id)

    # -- mapping node assignments back to tuples --------------------------------------
    def to_partition_assignment(self, node_assignment: list[int], num_partitions: int) -> PartitionAssignment:
        """Translate a node->partition list into per-tuple replica sets.

        For exploded groups the replica set is the set of partitions used by
        the star's satellites (the central node only ties the copies
        together); if every satellite landed in one partition the tuple is
        simply placed there.  Non-exploded groups take their single node's
        partition.
        """
        assignment = PartitionAssignment(num_partitions)
        for group in self.groups:
            if group.exploded:
                partitions = {node_assignment[node] for node in group.satellites.values()}
            else:
                partitions = {node_assignment[group.center_node]}
            for member in group.members:
                assignment.assign(member, partitions)
        return assignment


def build_tuple_graph(
    trace: AccessTrace,
    database: Database | None = None,
    options: GraphBuildOptions | None = None,
) -> TupleGraph:
    """Build the Schism graph for ``trace``.

    Parameters
    ----------
    trace:
        The access trace (read/write sets per transaction).
    database:
        Needed only for ``data_size`` node weighting (to look up row sizes).
    options:
        Construction options; defaults are sensible for the bundled workloads.
    """
    options = options or GraphBuildOptions()
    rng = SeededRng(options.seed)
    reduced = filter_blanket_statements(trace, BLANKET_STATEMENT_THRESHOLD)
    if options.transaction_sample_fraction < 1.0:
        reduced = sample_transactions(reduced, options.transaction_sample_fraction, rng.fork("txn"))
    if options.tuple_sample_fraction < 1.0:
        reduced = sample_tuples(reduced, options.tuple_sample_fraction, rng.fork("tuple"))

    accesses = reduced.accesses
    touching: dict[TupleId, list[int]] = {}
    writing: dict[TupleId, set[int]] = {}
    for index, access in enumerate(accesses):
        for tuple_id in access.touched:
            touching.setdefault(tuple_id, []).append(index)
        for tuple_id in access.write_set:
            writing.setdefault(tuple_id, set()).add(index)

    groups = _build_groups(touching, writing, coalesce=options.coalesce_tuples)
    graph = Graph()
    for group in groups:
        _materialise_group(graph, group, options, database)

    # Transaction clique edges among the per-transaction representative nodes.
    # Pair weights are accumulated in one flat Counter (a single hash probe
    # per occurrence) and inserted into the graph in a single batched pass,
    # so the graph's edge log gets one entry per distinct pair instead of one
    # per clique pair of every transaction.
    group_by_tuple: dict[TupleId, _TupleGroup] = {}
    for group in groups:
        for member in group.members:
            group_by_tuple[member] = group
    pair_weights: Counter[tuple[int, int]] = Counter()
    for index, access in enumerate(accesses):
        representative_nodes = sorted(
            {
                group_by_tuple[tuple_id].node_for_transaction(index)
                for tuple_id in access.touched
                if tuple_id in group_by_tuple
            }
        )
        # The list is sorted, so combinations() yields each pair as (u, v)
        # with u < v — already canonical for deduplication.
        pair_weights.update(combinations(representative_nodes, 2))
    graph.add_weighted_edges(
        (pair, float(count)) for pair, count in pair_weights.items()
    )

    return TupleGraph(graph, groups, reduced)


def _build_groups(
    touching: dict[TupleId, list[int]],
    writing: dict[TupleId, set[int]],
    coalesce: bool,
) -> list[_TupleGroup]:
    """Group tuples by access signature (or one group per tuple when disabled)."""
    groups: list[_TupleGroup] = []
    if coalesce:
        by_signature: dict[tuple[tuple[int, ...], tuple[int, ...]], list[TupleId]] = {}
        for tuple_id, transactions in touching.items():
            signature = (
                tuple(sorted(set(transactions))),
                tuple(sorted(writing.get(tuple_id, set()))),
            )
            by_signature.setdefault(signature, []).append(tuple_id)
        # Sort by the *minimum* member, not the first-appended one: the
        # member lists are built in ``touching``-dict order, which follows
        # frozenset iteration order and is therefore salted per process.
        for (accessing, writes), members in sorted(
            by_signature.items(), key=lambda item: min(item[1])
        ):
            groups.append(_TupleGroup(tuple(sorted(members)), accessing, writes))
    else:
        for tuple_id in sorted(touching):
            accessing = tuple(sorted(set(touching[tuple_id])))
            writes = tuple(sorted(writing.get(tuple_id, set())))
            groups.append(_TupleGroup((tuple_id,), accessing, writes))
    return groups


def _materialise_group(
    graph: Graph,
    group: _TupleGroup,
    options: GraphBuildOptions,
    database: Database | None,
) -> None:
    """Create the node(s) for one group: a single node or a replication star."""
    group_size = len(group.members)
    access_count = len(group.accessing_transactions)
    write_count = len(group.writing_transactions)
    if options.node_weighting == "data_size":
        if database is not None:
            weight = float(sum(database.tuple_byte_size(member) for member in group.members))
        else:
            weight = float(group_size)
    else:
        # Workload balancing: total number of (transaction, tuple) accesses.
        weight = float(group_size * access_count)
    explode = options.replication and access_count >= MIN_ACCESSES_FOR_REPLICATION
    if not explode:
        group.center_node = graph.add_node(weight)
        return
    # Star-shaped expansion: the centre carries the storage weight, satellites
    # carry the per-transaction workload weight so that balance reflects where
    # the accesses actually land.
    if options.node_weighting == "data_size":
        center_weight = weight
        satellite_weight = 0.0
    else:
        center_weight = 0.0
        satellite_weight = float(group_size)
    group.center_node = graph.add_node(center_weight)
    replication_edge_weight = float(write_count * group_size) + REPLICATION_EPSILON
    for transaction_index in group.accessing_transactions:
        satellite = graph.add_node(satellite_weight)
        group.satellites[transaction_index] = satellite
        graph.add_edge(group.center_node, satellite, replication_edge_weight)
