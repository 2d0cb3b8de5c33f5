"""Incremental maintenance of the tuple-access graph.

The offline builder (:mod:`repro.graph.builder`) reconstructs the whole
graph from a trace — with coalescing and replication stars — every time it
runs.  Online we need the opposite trade-off: cheap per-transaction deltas
on a graph that is always ready to be re-frozen.  The maintainer therefore
keeps **one node per tuple** (no coalescing, no stars: both are global
properties of a finished trace and do not compose with streaming deltas; the
budgeted re-partitioner compensates by warm-starting from the current
placement) and maintains:

* node weights = decayed per-tuple access counts (the paper's ``workload``
  balancing mode);
* clique edges among the tuples touched by each transaction, weights
  accumulating exactly as in the offline builder;
* exponential aging at ``EPOCH_DECAY`` per epoch via a **global scale
  factor**: stored weights are true weights divided by ``_scale``, so one
  epoch of decay is a single multiplication of the scale, not an O(V + E)
  sweep.  Fresh contributions are added as ``1 / _scale``; the stored
  values are renormalised only when that increment risks losing
  precision.  The periodic prune
  (:meth:`Graph.prune_edges`, with the threshold expressed in stored
  units) drops decayed-out co-access pairs so the graph stays bounded.

The node weights and their read/write splits are the online loop's only
decayed per-tuple ledger: the :class:`~repro.online.monitor.WorkloadMonitor`
feeds this maintainer and reads its hot set, hot-set weight share, tracked
population and read fractions from it, so one clock ages everything.

``freeze`` folds the pending scale into the weights and re-compiles to CSR
only when the controller decides to re-partition — never per transaction.

**Replication stars, online.**  The offline builder's star expansion (one
satellite per accessing transaction, replication edges weighted by the write
count plus an epsilon) is a whole-trace construct, but its *decision
structure* survives streaming: alongside the total node weight the
maintainer keeps decayed per-node **read** and **write** weights, and
:meth:`freeze_replicated` expands the chosen read-hot candidates into
bounded stars at freeze time — one satellite per (heaviest) co-access
neighbour, each carrying that neighbour's transaction edge, all tied to the
centre by an edge of weight ``write_weight + REPLICATION_EPSILON`` (the
consistency cost every extra replica must pay).  The k-way min-cut then
trades replication against distribution per tuple exactly as in §3.1/§4.1
of the paper: satellites scatter across partitions only when the read
traffic they localise outweighs the write-synchronisation edge.  The
streaming graph itself stays one-node-per-tuple; the expansion exists only
in the frozen copy handed to the re-partitioner.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.catalog.tuples import TupleId
from repro.graph.builder import REPLICATION_EPSILON
from repro.graph.model import CSRGraph, Graph
from repro.workload.trace import TransactionAccess

#: Per-epoch decay factor of every decayed weight of the online loop.
EPOCH_DECAY = 0.95
#: Renormalise stored weights once the per-access increment grows past this.
_RENORMALISE_LIMIT = 1e12
#: Edges whose decayed (true) weight falls below this are dropped.
PRUNE_THRESHOLD = 0.05
#: The prune sweep (O(E)) runs every this many epochs.
PRUNE_INTERVAL = 8
#: Transactions touching more than this many tuples are skipped (clique
#: blow-up guard, mirroring the offline blanket-statement filter).
BLANKET_TRANSACTION_THRESHOLD = 100
#: At most this many nodes are replication candidates per freeze.
REPLICATION_MAX_CANDIDATES = 64
#: Minimum decayed access weight of a replication candidate — cold tuples
#: never earn a replica.
REPLICATION_MIN_WEIGHT = 2.0
#: Cap on satellites per replication candidate in
#: :meth:`IncrementalGraphMaintainer.freeze_replicated`; the heaviest
#: co-access neighbours get satellites, the tail stays on the centre.
MAX_SATELLITES = 12


@dataclass
class StarExpansion:
    """Bookkeeping of one :meth:`~IncrementalGraphMaintainer.freeze_replicated` call.

    The expanded graph keeps the base nodes at their original ids (centres of
    exploded candidates included) and appends every satellite after them, so
    ``node < num_base_nodes`` identifies a base node.
    """

    #: number of nodes of the unexpanded graph (satellites start here).
    num_base_nodes: int
    #: base candidate node -> its satellite node ids (in the expanded graph).
    satellites: dict[int, list[int]]
    #: satellite node -> the base candidate node it belongs to.
    owner: dict[int, int]
    #: satellite node -> the partition whose neighbour bucket it aggregates
    #: (its natural warm-start home when the tuple already has a replica there).
    satellite_bucket: dict[int, int] = field(default_factory=dict)

    def placement_nodes(self, base_node: int) -> list[int]:
        """The expanded nodes whose partitions form ``base_node``'s replica set.

        For an exploded candidate these are its satellites (the centre only
        ties the copies together, exactly as in the offline builder); for any
        other node it is the node itself.
        """
        stars = self.satellites.get(base_node)
        return stars if stars else [base_node]


class IncrementalGraphMaintainer:
    """Applies streaming transaction deltas to a mutable tuple graph."""

    def __init__(self) -> None:
        self.graph = Graph()
        self._node_of: dict[TupleId, int] = {}
        self._tuple_of: list[TupleId] = []
        # Decayed per-node read/write splits of the access weight (stored
        # units, same scale as the graph weights): the read/write ratio is
        # what makes a tuple a replication candidate.
        self._read_weights: list[float] = []
        self._write_weights: list[float] = []
        # Lazy decay state: true weight = stored weight * _scale, and fresh
        # accesses contribute _increment == 1 / _scale stored units.
        self._scale = 1.0
        self._increment = 1.0
        self.epochs = 0
        self.transactions_applied = 0

    # -- node bookkeeping --------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        """Number of tuples represented (== graph nodes; ids are stable)."""
        return len(self._tuple_of)

    def node_of(self, tuple_id: TupleId) -> int | None:
        """Graph node for ``tuple_id`` (None when never observed)."""
        return self._node_of.get(tuple_id)

    def tuple_of(self, node: int) -> TupleId:
        """Tuple behind graph node ``node``."""
        return self._tuple_of[node]

    def tuples(self) -> list[TupleId]:
        """All represented tuples in node-id order."""
        return list(self._tuple_of)

    def node_weight(self, node: int) -> float:
        """Decayed (true) access weight of ``node``."""
        return self.graph.node_weights[node] * self._scale

    def edge_weight(self, u: int, v: int) -> float:
        """Decayed (true) co-access weight of the edge ``{u, v}``."""
        return self.graph.edge_weight(u, v) * self._scale

    def read_fraction(self, node: int) -> float:
        """Decayed fraction of accesses to ``node`` that are reads (0.0 when unseen)."""
        reads = self._read_weights[node]
        writes = self._write_weights[node]
        total = reads + writes
        if total <= 0.0:
            return 0.0
        return reads / total

    def heaviest(self, count: int) -> list[int]:
        """The ``count`` heaviest nodes in ``(-weight, tuple)`` order.

        ``nsmallest`` is the O(N log k) top-k selection: the monitor ranks
        its hot set on every drift check, so a full sort would dominate the
        ingest path once many tuples are tracked.  Ties rank by tuple id.
        """
        weights = self.graph.node_weights
        tuple_of = self._tuple_of
        return heapq.nsmallest(
            count, range(len(tuple_of)), key=lambda node: (-weights[node], tuple_of[node])
        )

    def _node_for(self, tuple_id: TupleId) -> int:
        node = self._node_of.get(tuple_id)
        if node is None:
            node = self.graph.add_node(0.0)
            self._node_of[tuple_id] = node
            self._tuple_of.append(tuple_id)
            self._read_weights.append(0.0)
            self._write_weights.append(0.0)
        return node

    # -- deltas ------------------------------------------------------------------------
    def apply(self, access: TransactionAccess) -> None:
        """Fold one transaction into the graph (node weights + clique edges)."""
        read_set = access.read_set
        write_set = access.write_set
        touched = read_set | write_set
        if len(touched) > BLANKET_TRANSACTION_THRESHOLD:
            return
        graph = self.graph
        increment = self._increment
        # Sort by tuple id *before* node creation: node ids must not depend
        # on frozenset iteration order (string hashing is salted per process).
        nodes = sorted(self._node_for(tuple_id) for tuple_id in sorted(touched))
        for node in nodes:
            graph.set_node_weight(node, graph.node_weights[node] + increment)
        self._record_read_write(read_set, write_set, increment)
        for u, v in combinations(nodes, 2):
            graph.add_edge(u, v, increment)
        self.transactions_applied += 1

    def _record_read_write(
        self,
        read_set: frozenset[TupleId],
        write_set: frozenset[TupleId],
        increment: float,
    ) -> None:
        """Split one transaction's contribution into read and write weight."""
        node_of = self._node_of
        read_weights = self._read_weights
        for tuple_id in read_set:
            read_weights[node_of[tuple_id]] += increment
        write_weights = self._write_weights
        for tuple_id in write_set:
            write_weights[node_of[tuple_id]] += increment

    def apply_batch(self, batch: Iterable[TransactionAccess]) -> None:
        """Fold one chunk of transactions, batching edge accumulation, then age.

        Mirrors the offline builder's batched clique accumulation: duplicate
        pairs within the batch hit one flat Counter, and the graph's edge log
        gets one entry per distinct pair of the batch.
        """
        graph = self.graph
        increment = self._increment
        pair_weights: Counter[tuple[int, int]] = Counter()
        for access in batch:
            read_set = access.read_set
            write_set = access.write_set
            touched = read_set | write_set
            if len(touched) > BLANKET_TRANSACTION_THRESHOLD:
                continue
            # Sorted tuple order first: node-id assignment must be
            # process-independent (see ``apply``).
            nodes = sorted(self._node_for(tuple_id) for tuple_id in sorted(touched))
            for node in nodes:
                graph.set_node_weight(node, graph.node_weights[node] + increment)
            self._record_read_write(read_set, write_set, increment)
            pair_weights.update(combinations(nodes, 2))
            self.transactions_applied += 1
        graph.add_weighted_edges(
            (pair, count * increment) for pair, count in pair_weights.items()
        )
        self.advance_epoch()

    def advance_epoch(self) -> None:
        """Age all weights one epoch (O(1): one scale update).

        The periodic prune (every ``PRUNE_INTERVAL`` epochs) and the rare
        precision renormalisation are the only O(E) work on the ingest path.
        """
        self.epochs += 1
        self._scale *= EPOCH_DECAY
        self._increment = 1.0 / self._scale
        if self._increment > _RENORMALISE_LIMIT:
            self._materialise_scale()
        if self.epochs % PRUNE_INTERVAL == 0:
            # True threshold expressed in stored units.
            self.graph.prune_edges(PRUNE_THRESHOLD * self._increment)

    def _materialise_scale(self) -> None:
        """Fold the pending scale into the stored weights (O(V + E), rare)."""
        if self._scale != 1.0:
            self.graph.scale_weights(self._scale)
            scale = self._scale
            self._read_weights = [weight * scale for weight in self._read_weights]
            self._write_weights = [weight * scale for weight in self._write_weights]
            self._scale = 1.0
            self._increment = 1.0

    # -- freezing ----------------------------------------------------------------------
    def freeze(self) -> tuple[CSRGraph, list[TupleId]]:
        """Compile the current graph to CSR plus the node -> tuple mapping.

        Folds the lazily-accumulated decay into the weights first, so the
        CSR carries true weights.  Called only when the controller triggers
        a re-partition; streaming ingest never pays the O(V + E) freeze.
        """
        self._materialise_scale()
        return self.graph.freeze(), list(self._tuple_of)

    def replication_candidates(
        self,
        min_read_fraction: float,
        retained: Iterable[int],
        retention_read_fraction: float,
    ) -> list[int]:
        """Read-hot nodes worth considering for replication, hottest first.

        A node qualifies when its decayed read fraction reaches
        ``min_read_fraction``, its decayed access weight reaches
        ``REPLICATION_MIN_WEIGHT`` and it has at least one co-access edge (an
        isolated tuple gains nothing from copies).  The
        ``REPLICATION_MAX_CANDIDATES`` heaviest qualifiers are returned in
        deterministic ``(-weight, node)`` order.

        ``retained`` names nodes whose tuples are *currently replicated*;
        they qualify at the lower ``retention_read_fraction`` bar instead.
        This is the hysteresis that keeps a just-paid-for replica set from
        being dropped (and re-copied next cycle) when decay noise dips a
        tuple's read fraction marginally below the entry bar — a retained
        candidate still goes through the min-cut, which consolidates its
        satellites the moment the replicas stop earning their write cost.
        """
        graph = self.graph
        retained_nodes = set(retained)
        ranked: list[tuple[float, int]] = []
        min_stored_weight = REPLICATION_MIN_WEIGHT / self._scale
        for node in range(len(self._tuple_of)):
            weight = graph.node_weights[node]
            if weight < min_stored_weight or graph.degree(node) == 0:
                continue
            bar = (
                retention_read_fraction
                if node in retained_nodes
                else min_read_fraction
            )
            if self.read_fraction(node) < bar:
                continue
            ranked.append((-weight, node))
        ranked.sort()
        return [node for _, node in ranked[:REPLICATION_MAX_CANDIDATES]]

    def freeze_replicated(
        self, candidates: Iterable[int], primary_of: Sequence[int]
    ) -> tuple[CSRGraph, list[TupleId], StarExpansion]:
        """Freeze with the given nodes expanded into replication stars.

        The online rendition of the offline builder's star expansion (§3.1
        of the paper): each candidate becomes a centre (weight 0 — the
        workload lands on the copies) plus one satellite per **partition
        bucket** of its co-access neighbours (``primary_of`` gives each
        neighbour's current partition).  The satellite inherits every
        transaction edge towards the neighbours of its bucket and is tied to
        the centre by a replication edge of weight ``write_weight +
        REPLICATION_EPSILON`` — the synchronisation cost an extra replica
        must pay.  The min-cut therefore weighs the *aggregate* read traffic
        a partition's readers would save against one replica's write cost,
        which is the true economics of tuple replication (the offline
        builder's per-transaction satellites express the same trade-off; a
        decayed online graph no longer remembers individual transactions, so
        the bucket is the faithful aggregate).  The candidate's node weight
        is split evenly over its satellites, preserving total weight and
        therefore balance.  Edges between two candidates connect their
        mutual bucket satellites.  ``MAX_SATELLITES`` caps the buckets per
        candidate (heaviest first) as a safety bound; with bucketing it only
        binds when partitions outnumber the cap.

        Returns the frozen expanded graph, the node -> tuple mapping of the
        *base* nodes, and the :class:`StarExpansion` bookkeeping needed to
        translate an expanded assignment back into per-tuple replica sets.
        """
        self._materialise_scale()
        base = self.graph
        num_base = base.num_nodes
        if len(primary_of) < num_base:
            raise ValueError("primary_of must cover every maintained node")
        candidate_set = {
            node for node in candidates if 0 <= node < num_base and base.degree(node) > 0
        }
        if not candidate_set:
            csr, tuples = self.freeze()
            return csr, tuples, StarExpansion(num_base, {}, {})
        expanded = Graph()
        for node in range(num_base):
            if node in candidate_set:
                expanded.add_node(0.0)
            else:
                expanded.add_node(base.node_weights[node])
        # candidate -> (neighbour partition bucket -> satellite node).
        starred: dict[int, dict[int, int]] = {}
        satellites: dict[int, list[int]] = {}
        owner: dict[int, int] = {}
        satellite_bucket: dict[int, int] = {}
        for node in sorted(candidate_set):
            bucket_weights: dict[int, float] = {}
            for neighbour, weight in base.neighbors(node).items():
                bucket = primary_of[neighbour]
                bucket_weights[bucket] = bucket_weights.get(bucket, 0.0) + weight
            chosen = [
                bucket
                for bucket, _ in sorted(
                    bucket_weights.items(), key=lambda item: (-item[1], item[0])
                )[:MAX_SATELLITES]
            ]
            share = base.node_weights[node] / len(chosen)
            replication_edge = self._write_weights[node] + REPLICATION_EPSILON
            node_satellites: list[int] = []
            per_bucket: dict[int, int] = {}
            for bucket in chosen:
                satellite = expanded.add_node(share)
                expanded.add_edge(node, satellite, replication_edge)
                per_bucket[bucket] = satellite
                node_satellites.append(satellite)
                owner[satellite] = node
                satellite_bucket[satellite] = bucket
            starred[node] = per_bucket
            satellites[node] = node_satellites
        def endpoint(this: int, other: int) -> int:
            """The expanded node carrying ``this``'s edge towards ``other``."""
            per_bucket = starred.get(this)
            if per_bucket is None:
                return this
            # Neighbours of an uncapped candidate always have a bucket
            # satellite; with a binding cap the tail buckets stay on the
            # centre, mirroring the per-neighbour tail of the offline star.
            return per_bucket.get(primary_of[other], this)

        for u, v, weight in base.edges():
            expanded.add_edge(endpoint(u, v), endpoint(v, u), weight)
        return expanded.freeze(), list(self._tuple_of), StarExpansion(
            num_base, satellites, owner, satellite_bucket
        )
