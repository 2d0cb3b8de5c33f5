"""Cross-backend parity: numpy and pure-Python CSR kernels must match bit-for-bit.

The array backend (:mod:`repro.graph.backend`) only changes *how* the bulk
kernels execute, never *what* they compute: every vectorised kernel preserves
the scalar path's floating-point operation order.  These tests enforce the
contract end to end — same-seed partitioner assignments over real
workload-derived fixture graphs (epinions / TPC-C / TPC-E) for k in
{2, 7, 32} (the 7 exercises non-power-of-two proportional weight targets) —
and kernel by kernel.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph import backend
from repro.graph.builder import GraphBuildOptions, build_tuple_graph
from repro.graph.coarsen import coarsen_once, project_assignment, project_boundary
from repro.graph.model import CSRGraph, Graph
from repro.graph.partitioner import PartitionerOptions, cut_weight, partition_graph
from repro.graph.refine import MoveCostModel, compute_external, kway_fm_refine
from repro.utils.rng import SeededRng
from repro.workload.rwsets import extract_access_trace
from repro.workloads import TpccConfig, generate_tpcc
from repro.workloads.epinions import EpinionsConfig, generate_epinions
from repro.workloads.tpce import TpceConfig, generate_tpce

numpy_available = backend.numpy is not None
requires_numpy = pytest.mark.skipif(not numpy_available, reason="numpy not installed")

PARTITION_COUNTS = (2, 7, 32)


def fixture_graphs() -> dict[str, Graph]:
    """Workload-derived fixture graphs, including replication (epsilon weights).

    The replication star edges carry ``count + 0.1`` weights, so duplicate
    accumulation during coarsening exercises genuine non-integer float sums —
    exactly where an order-changing vectorisation would diverge.
    """
    graphs: dict[str, Graph] = {}
    epinions = generate_epinions(
        EpinionsConfig(num_users=120, num_items=120, num_communities=4, seed=3),
        num_transactions=400,
    )
    graphs["epinions"] = build_tuple_graph(
        extract_access_trace(epinions.database, epinions.workload),
        options=GraphBuildOptions(replication=True),
    ).graph
    tpcc = generate_tpcc(
        TpccConfig(warehouses=2, districts_per_warehouse=3, customers_per_district=12, items=60),
        num_transactions=400,
    )
    graphs["tpcc"] = build_tuple_graph(
        extract_access_trace(tpcc.database, tpcc.workload),
        options=GraphBuildOptions(replication=True),
    ).graph
    tpce = generate_tpce(
        TpceConfig(customers=60, securities=30, companies=15), num_transactions=300
    )
    graphs["tpce"] = build_tuple_graph(
        extract_access_trace(tpce.database, tpce.workload),
        options=GraphBuildOptions(replication=False),
    ).graph
    return graphs


def noisy_clusters_graph(num_clusters: int, cluster_size: int, seed: int) -> Graph:
    """Dense-ish clusters joined by many light edges, non-dyadic float weights.

    Almost every node has an edge out of its cluster, so the cluster
    assignment puts nearly the whole graph on the boundary while very few
    nodes have anything to gain from moving.  Weights are sums of tenths
    (``n + 0.1 * m``), which round differently under a different addition
    order.
    """
    rng = random.Random(seed)
    num_nodes = num_clusters * cluster_size
    graph = Graph()
    graph.add_nodes(num_nodes)
    for node in range(num_nodes):
        base = node - node % cluster_size
        for _ in range(6):
            other = base + rng.randrange(cluster_size)
            graph.add_edge(node, other, rng.randint(2, 6) + 0.1 * rng.randint(1, 9))
        graph.add_edge(node, rng.randrange(num_nodes), 0.1 * rng.randint(1, 9))
    return graph


def perturbed_cluster_assignment(
    graph: Graph, num_clusters: int, cluster_size: int, groups: int, pairs: int, seed: int
) -> list[int]:
    """The cluster assignment with a few neighbourhoods parked in a wrong part.

    ``groups`` times, a node plus up to three of its same-cluster neighbours
    go to one foreign part: each gains from moving back, and once the first
    has, the others' next decision reads a row first touched by that move.
    ``pairs`` times, two same-cluster nodes are tied by a new edge just
    heavier than either one's pull home and parked together: alone neither
    gains from returning, so only a hill-climbing pass that moves one at a
    loss — and then sees the other's *updated* row — brings them back.
    (Adds the tying edges to ``graph``.)
    """
    rng = random.Random(seed)
    num_nodes = num_clusters * cluster_size
    assignment = [node // cluster_size for node in range(num_nodes)]
    picked = rng.sample(range(0, num_nodes, 2), groups + pairs)

    def wrong_part(home: int) -> int:
        return (home + 1 + rng.randrange(num_clusters - 1)) % num_clusters

    for node in picked[:groups]:
        home = node // cluster_size
        mates = [other for other in graph.neighbors(node) if other // cluster_size == home]
        wrong = wrong_part(home)
        for member in [node] + mates[:3]:
            assignment[member] = wrong
    for node in picked[groups:]:
        home, mate = node // cluster_size, node + 1
        pull = max(
            sum(w for other, w in graph.neighbors(member).items() if other // cluster_size == home)
            for member in (node, mate)
        )
        graph.add_edge(node, mate, pull + 1.3)
        assignment[node] = assignment[mate] = wrong_part(home)
    return assignment


class TestBackendModule:
    def test_active_backend_is_valid(self):
        assert backend.array_backend() in ("numpy", "list")

    def test_backend_context_restores(self):
        before = backend.array_backend()
        with backend.backend_context("list"):
            assert backend.array_backend() == "list"
            csr = Graph().freeze()
            assert isinstance(csr.indices, list)
        assert backend.array_backend() == before

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            backend.set_array_backend("cupy")

    def test_list_backend_conversion_helpers(self):
        with backend.backend_context("list"):
            assert backend.as_index_array([1, 2]) == [1, 2]
            assert backend.as_weight_array([1.0]) == [1.0]
        assert backend.to_list([3, 4]) == [3, 4]

    @requires_numpy
    def test_numpy_backend_array_types(self):
        np = backend.numpy
        with backend.backend_context("numpy"):
            graph = Graph()
            graph.add_nodes(3)
            graph.add_edge(0, 1, 2.0)
            csr = graph.freeze()
            assert isinstance(csr.indices, np.ndarray)
            assert csr.indices.dtype == np.int64
            assert csr.edge_weights.dtype == np.float64
            assert csr.is_numpy
        assert backend.to_list(csr.indices) == [1, 0]


@requires_numpy
class TestKernelParity:
    """Each vectorised kernel must reproduce the scalar kernel exactly."""

    def _both(self, build):
        with backend.backend_context("numpy"):
            from_numpy = build()
        with backend.backend_context("list"):
            from_list = build()
        return from_numpy, from_list

    @staticmethod
    def _csr_equal(a: CSRGraph, b: CSRGraph):
        assert a.lists() == b.lists()

    def test_freeze_and_weighted_degrees(self):
        graph = synthetic_access_graph(900, 8000, seed=2)
        a, b = self._both(graph.freeze)
        self._csr_equal(a, b)
        assert list(a.weighted_degrees()) == list(b.weighted_degrees())

    def test_subview_parity(self):
        graph = synthetic_access_graph(1500, 12000, seed=4)
        nodes = [n for n in range(1500) if n % 5 != 0]

        def build():
            view, mapping = graph.freeze().subview(nodes)
            return view, mapping

        (va, ma), (vb, mb) = self._both(build)
        assert ma == mb
        self._csr_equal(va, vb)

    def test_coarsen_parity(self):
        graph = synthetic_access_graph(1200, 10000, seed=5)

        def build():
            level = coarsen_once(graph.freeze(), SeededRng(9))
            return level

        la, lb = self._both(build)
        assert list(la.fine_to_coarse) == lb.fine_to_coarse
        self._csr_equal(la.graph, lb.graph)

    def test_compute_external_parity(self):
        graph = synthetic_access_graph(1100, 9000, seed=6)
        assignment = [node % 5 for node in range(1100)]

        def build():
            return compute_external(graph.freeze(), assignment)

        ea, eb = self._both(build)
        assert ea == eb

    def test_kway_fm_parity(self):
        graph = synthetic_access_graph(1100, 9000, seed=7)
        base = [node % 6 for node in range(1100)]
        max_weights = [graph.total_node_weight() / 6 * 1.2] * 6

        def build():
            assignment = list(base)
            kway_fm_refine(graph.freeze(), assignment, 6, max_weights, 2, 32)
            return assignment

        ra, rb = self._both(build)
        assert ra == rb


    def test_cut_weight_parity_is_exact(self):
        # Tenths do not add associatively: a pairwise ndarray.sum() would
        # land an ulp away from the scalar left-to-right total.
        graph = noisy_clusters_graph(32, 40, seed=11)
        assignment = perturbed_cluster_assignment(graph, 32, 40, groups=60, pairs=0, seed=12)

        def build():
            return cut_weight(graph.freeze(), assignment)

        ca, cb = self._both(build)
        assert ca == cb
        assert ca != int(ca)

    def test_projection_parity(self):
        graph = synthetic_access_graph(1200, 10000, seed=8)

        def build():
            level = coarsen_once(graph.freeze(), SeededRng(3))
            coarse_nodes = level.graph.num_nodes
            coarse_assignment = [node % 7 for node in range(coarse_nodes)]
            coarse_external = [float(node % 3) for node in range(coarse_nodes)]
            return (
                project_assignment(level, coarse_assignment),
                project_boundary(level, coarse_external),
            )

        (aa, ba), (ab, bb) = self._both(build)
        assert aa == ab and ba == bb
        assert all(type(flag) is bool for flag in ba)


@requires_numpy
class TestLazyGainRows:
    """k = 32 refinements where most seeded rows are never materialised.

    The list backend builds every boundary node's connectivity row eagerly
    in a scalar loop; numpy keeps the seed-time matrix and materialises a row
    only when a move touches or pops its node.  Nearly all 1 920 nodes sit on
    the boundary here while only the strays (and a short speculative streak
    whose neighbours are touched by nothing but moves that get rolled back)
    move, so most rows are never touched — and the assignments must still
    agree bit for bit, on non-dyadic float weights.
    """

    CLUSTERS, SIZE, GROUPS, PAIRS = 32, 60, 8, 4

    def _inputs(self):
        graph = noisy_clusters_graph(self.CLUSTERS, self.SIZE, seed=21)
        start = perturbed_cluster_assignment(
            graph, self.CLUSTERS, self.SIZE, self.GROUPS, self.PAIRS, seed=22
        )
        max_weights = [self.SIZE * 1.25] * self.CLUSTERS
        return graph, start, max_weights

    _both = TestKernelParity._both

    def _assert_few_rows_touched(self, graph, start, refined, slack_moves):
        csr = graph.freeze()
        boundary = sum(1 for cross in compute_external(csr, start) if cross > 0.0)
        assert boundary > 0.9 * csr.num_nodes
        moved = sum(1 for before, after in zip(start, refined) if before != after)
        assert 0 < moved <= 4 * self.GROUPS + 2 * self.PAIRS
        max_degree = max(csr.degree(node) for node in csr.nodes())
        # Only a mover and its neighbours ever have their rows read.
        assert (moved + slack_moves) * (max_degree + 1) < boundary

    def test_plain_kway_fm_parity(self):
        graph, start, max_weights = self._inputs()
        streak = 6

        def build():
            assignment = list(start)
            external = kway_fm_refine(
                graph.freeze(), assignment, self.CLUSTERS, max_weights, 2, streak
            )
            return assignment, external

        (ra, ea), (rb, eb) = self._both(build)
        assert ra == rb and ea == eb
        # The tied pairs came home too: the hill-climb read updated rows.
        assert ra == [node // self.SIZE for node in range(graph.num_nodes)]
        # Each of the two passes ends on a rolled-back streak of `streak` moves.
        self._assert_few_rows_touched(graph, start, ra, slack_moves=2 * streak)

    def test_cost_model_kway_fm_parity(self):
        # The deployed placement is the perturbed one, so every repair is
        # charged and the budget runs out before the strays do.
        graph, start, max_weights = self._inputs()
        costs = [0.3 + 0.1 * (node % 7) for node in range(graph.num_nodes)]
        budget = 12.0

        def build():
            assignment = list(start)
            model = MoveCostModel(start, costs, cost_weight=0.7, budget=budget, already_spent=0.4)
            kway_fm_refine(
                graph.freeze(), assignment, self.CLUSTERS, max_weights, 3,
                cost_model=model, want_external=False,
            )
            return assignment, model.spent

        (ra, sa), (rb, sb) = self._both(build)
        assert ra == rb and sa == sb
        assert budget - min(costs) < sa <= budget
        self._assert_few_rows_touched(graph, start, ra, slack_moves=0)


@requires_numpy
class TestNoWholeAdjacencyLists:
    """The numpy path never boxes ``indices``/``edge_weights`` wholesale."""

    @staticmethod
    def _held_lists(csr: CSRGraph):
        for slot in CSRGraph.__slots__:
            value = getattr(csr, slot)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, list):
                    yield slot, len(item)

    def test_partition_leaves_no_adjacency_sized_list(self):
        with backend.backend_context("numpy"):
            frozen = synthetic_access_graph(2500, 20000, seed=1).freeze()
            options = PartitionerOptions(seed=0, initial_trials=4, refine_passes=2)
            assignment = partition_graph(frozen, 32, options)
            cut_weight(frozen, assignment)
        graphs = [frozen]
        for state in frozen._hierarchy.values():
            graphs.extend(level.graph for level in state["levels"])
        assert len(graphs) > 2
        for csr in graphs:
            entries = len(csr.indices)
            assert entries > 2 * (csr.num_nodes + 1)
            for slot, length in self._held_lists(csr):
                assert length <= csr.num_nodes + 1, (slot, length, entries)
            _, indices, edge_weights, _ = csr.rows()
            assert isinstance(indices, memoryview) and isinstance(edge_weights, memoryview)


@requires_numpy
class TestAssignmentParity:
    """Fixture-graph partitions must be byte-identical across backends."""

    @pytest.mark.parametrize("num_parts", PARTITION_COUNTS)
    def test_fixture_graph_assignments(self, num_parts):
        for name, graph in fixture_graphs().items():
            options = PartitionerOptions(seed=13, initial_trials=4, refine_passes=2)
            with backend.backend_context("numpy"):
                from_numpy = partition_graph(graph.freeze(), num_parts, options)
            with backend.backend_context("list"):
                from_list = partition_graph(graph.freeze(), num_parts, options)
            assert from_numpy == from_list, (name, num_parts)

    def test_synthetic_large_graph_assignment(self):
        graph = synthetic_access_graph(2500, 20000, seed=1)
        options = PartitionerOptions(seed=0, initial_trials=4, refine_passes=2)
        with backend.backend_context("numpy"):
            from_numpy = partition_graph(graph.freeze(), 32, options)
        with backend.backend_context("list"):
            from_list = partition_graph(graph.freeze(), 32, options)
        assert from_numpy == from_list
