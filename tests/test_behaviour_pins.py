"""Behaviour pins: exact outputs recorded before the one-path-per-job sweep.

The hashes below were computed at the parent commit of the change that
removed the recursive k-way fork, the partitioner's internal knobs and the
legacy facade, on both array backends (which agreed).  They pin the
partitioner's assignments and the pipeline's plan content bit for bit; CI
runs this file under both ``REPRO_ARRAY_BACKEND`` values.  A deliberate
algorithm change re-records them and says so.

The two plan pins were re-recorded once, for plan format version 2: the
payload gained ``primary_keys`` and ``version`` went 1 -> 2.  With those two
fields put back, the fingerprints equal the version-1 pins (4ca68057...,
88c840f4...): placements, rule sets and policies did not move.

The simplecount plan pin was re-recorded once more when reads of a
replicated tuple stopped all going to the lowest partition id: simplecount
is read-only, and full replication, which serves every read locally, is no
longer disqualified for loading partition 0 with every transaction.  The
winner went lookup-table -> replication, and the lookup table's held-out
score 0.125 -> 0.225 (scored statement by statement, as the router serves
it); placements and rule sets did not move.  The TPC-C pin did not move.

The at-scale pins (``SCALE_PINS``) were recorded at the parent commit of the
change that stopped boxing the graph on the numpy path (zero-copy row reads,
lazy gain rows, attracted-nodes-only polish), again on both backends.  They
use the benchmark's smoke size — above the 2 048-entry threshold, so the
vectorised kernels, not their scalar fallbacks, are what is pinned.

The trace pins (``TRACE_PINS``) were recorded at the parent commit of the
change that gave the engine one rule for finding a statement's rows
(pinned primary keys, else the smallest index bucket, else a scan), on both
array backends.  Each is the digest of an extracted ``AccessTrace``: every
statement with its sorted read and write sets.  The TPC-E stream carries
primary-key ``IN`` lists and ``LIMIT`` reads, the cases where the access
path could change which rows a statement sees.  They, and the tiny TPC-C
plan pin, were re-recorded when the Database moved onto SQLite: a ``LIMIT``
read now takes SQLite's row order (primary-key index order where an index
serves it), where the old engine took its index buckets in ``repr`` order.
Every other statement's read and write sets are unchanged; the old engine
with its buckets sorted by key gives exactly the new pins.

The float-weight pins (``FLOAT_PARTITION_PINS``) were recorded at the parent
commit of the change that bounded the graph layer's working set (no held
entry-sized temporaries, sparse gain rows, a streamed seed queue), on both
array backends.  The unit-weight pins cannot see a change in the order
floating-point weights are summed in; these can.  Both backends must meet
every one: ``(0, 32)`` was re-recorded when the numpy contraction stopped
summing parallel-edge runs with ``reduceat`` (``a0 + (a1 + a2)``) and began
adding them left to right like the scalar one; the new digest is the one
the list backend already gave.

The route pins (``ROUTE_PINS``) were recorded at the parent commit of the
change that analyses each statement shape once, on both array backends.
Each is the digest of every statement of a tiny TPC-C, Epinions or TPC-E
stream routed through the plan deployed for it: destination partitions,
broadcast flag, resolved keys and the compiled ``(sql, params)`` pair (at
the parent, ``compile_statement`` of the statement).
"""

import hashlib
import json

import pytest

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph.model import Graph
from repro.graph.partitioner import PartitionerOptions, cut_weight, partition_graph
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router
from repro.utils.rng import SeededRng
from repro.workload.rwsets import extract_access_trace
from repro.workload.splitter import split_workload
from repro.workloads import (
    EpinionsConfig,
    TpceConfig,
    generate_epinions,
    generate_simplecount,
    generate_tpce,
)

PARTITION_PINS = {
    (0, 2): "b1c90eb332a572526055cbf4acd77c19dd7126ef1ee4ebc0e0002c4796dd240c",
    (0, 5): "18c71a0de4002f9acb0a1e15bd96c12c3961e3b4e1ae2d8d070ad6a7b194f337",
    (0, 8): "fe90c689af0b1c9b5eb0ca579c142866ca83cefbc3b4e2cc88b6c5a6957b1531",
    (0, 32): "a18201d5cba25bf6f4427c95d451abfe456d9db0f173344b3b7a2ccebe8e30a2",
    (1, 2): "449b48d9a723e38d899b90127284d60ed99320f07925911887e489b056524e9c",
    (1, 5): "69950bdf96269816f753833f35052096c15c9adf6d3dc0064428fe307e6d7300",
    (1, 8): "fd3552199a4733de61a311deb25ebb9c5c059dfc9de86fce66d97c91130802fc",
    (1, 32): "c44eb9734cb67da5d4ffe4d727f5919996eabfb25d6a677b62779f091100acb2",
}
#: (seed, k) -> assignment sha256 of ``_float_weighted_graph(seed)`` under the
#: default options, on the numpy backend.
FLOAT_PARTITION_PINS = {
    (0, 2): "6f4dea80386d5c9b0f5352d326cc18124c65a7dc379a90ce053c554f04b0332f",
    (0, 5): "32e8f9ca663c18d2578d0cddd2946d8c7be4f67d3e9f5b7984bbc49b21faa9e5",
    (0, 32): "6c44d6ffe387c4943b966bbd67add132a7803d19d3e2dc695fcf322789096d27",
    (1, 2): "cac5f1752eed4cad45f6102bfb56a24e1c394e7806d583028abbfce960f99f3d",
    (1, 5): "5ba552e0ef1575a7eb44f65c327c46cca2cde20dc84fb00cbde54559a39d5aa2",
    (1, 32): "a4c5ef2657d525add9502f46cfbfaf4199fc3646e407d83c714aadccc5c528cb",
}
#: seed -> (assignment sha256, cut) of ``synthetic_access_graph(4_000, 32_000, seed)`` at k = 8.
SCALE_PINS = {
    0: ("1b165b8463e10a153b2f8fb498da36206a47ea0704ef220473cc64eca3183996", 4246.0),
    1: ("e08d8634dbc048130976227c7643507336bc83a459b965f4db2f8d3b62c0506e", 4297.0),
}
SIMPLECOUNT_PLAN_PIN = "ce7bb028f45abb9135e14730f3abf897dd6392794b8e13e2d7f4f9cfb9af9182"
TPCC_PLAN_PIN = "0f96550a2d406a9bda0f67f80fdbf3237a12180c74dc5d5dab8352887de04a9b"
#: workload -> sha256 of its extracted access trace (see ``_trace_digest``).
TRACE_PINS = {
    "tpcc": "aa7c343c78f0c536b638e7367b892b4e4fac066b267ef2ad5e927d634f5b82bd",
    "epinions": "9f29479eb0753de720f82ad9c9f0e855eca6de591c94775910c6f536db89352b",
    "tpce": "87761cc713e4f3d4716fd5cb39569fac2ba16cae91bde6d321dd6f3f6febbe91",
}
#: workload -> sha256 of every routing decision of its deployed plan (see ``_route_digest``).
ROUTE_PINS = {
    "tpcc": "8070d315d329b140138616caa9e04b1f6aa10ac4affb6d4a429ea734650be3b4",
    "epinions": "6f9b93ca8bb144991d370b92250686b8f4e27d1665a520c6f56e5a6de333a3c5",
    "tpce": "7e4ba08f91574b623983d2d93e4aaaf6afef9298fb6f36bfff73c5fd2d785936",
}


@pytest.mark.parametrize("seed", (0, 1))
def test_partition_assignments_are_pinned(seed):
    frozen = synthetic_access_graph(3000, 20000, seed=seed).freeze()
    for k in (2, 5, 8, 32):
        assignment = partition_graph(frozen, k, PartitionerOptions(seed=seed))
        digest = hashlib.sha256(json.dumps(assignment).encode()).hexdigest()
        assert digest == PARTITION_PINS[seed, k], f"seed={seed} k={k}"


def _float_weighted_graph(seed):
    """``synthetic_access_graph(3000, 20000, seed)`` with node and edge weights
    drawn from ``SeededRng(seed).random()``: unlike the unit weights above, a
    change in summation order changes the sums."""
    shape = synthetic_access_graph(3000, 20000, seed=seed)
    rng = SeededRng(seed)
    graph = Graph()
    for _ in shape.nodes():
        graph.add_node(rng.random())
    for u, v, _ in shape.edges():
        graph.add_edge(u, v, rng.random())
    return graph


@pytest.mark.parametrize("seed", (0, 1))
def test_float_weighted_partition_assignments_are_pinned(seed):
    frozen = _float_weighted_graph(seed).freeze()
    for k in (2, 5, 32):
        assignment = partition_graph(frozen, k, PartitionerOptions(seed=seed))
        digest = hashlib.sha256(json.dumps(assignment).encode()).hexdigest()
        assert digest == FLOAT_PARTITION_PINS[seed, k], f"seed={seed} k={k}"


@pytest.mark.parametrize("seed", sorted(SCALE_PINS))
def test_partition_at_bench_smoke_scale_is_pinned(seed):
    frozen = synthetic_access_graph(4_000, 32_000, seed).freeze()
    options = PartitionerOptions(seed=seed, initial_trials=4, refine_passes=2)
    assignment = partition_graph(frozen, 8, options)
    digest = hashlib.sha256(json.dumps(assignment).encode()).hexdigest()
    assert (digest, cut_weight(frozen, assignment)) == SCALE_PINS[seed]


def _plan_fingerprint(bundle, num_partitions):
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
    run = Pipeline(SchismOptions(num_partitions=num_partitions)).run(
        bundle.database, train, test
    )
    return run.plan(workload=bundle.name).content_fingerprint()


def test_simplecount_plan_is_pinned():
    bundle = generate_simplecount(
        num_rows=300, num_transactions=400, num_blocks=5, seed=0
    )
    assert _plan_fingerprint(bundle, 4) == SIMPLECOUNT_PLAN_PIN


def test_tiny_tpcc_plan_is_pinned(tiny_tpcc):
    assert _plan_fingerprint(tiny_tpcc, 2) == TPCC_PLAN_PIN


def _trace_digest(bundle):
    digest = hashlib.sha256()
    for access in extract_access_trace(bundle.database, bundle.workload):
        for statement in access.statement_accesses:
            line = (
                str(statement.statement),
                sorted(map(repr, statement.read_set)),
                sorted(map(repr, statement.write_set)),
            )
            digest.update(repr(line).encode() + b"\n")
    return digest.hexdigest()


def _tiny_epinions():
    config = EpinionsConfig(num_users=100, num_items=100, num_communities=5, seed=0)
    return generate_epinions(config, num_transactions=300)


def _tiny_tpce():
    config = TpceConfig(customers=60, securities=30, companies=15, brokers=5, seed=0)
    return generate_tpce(config, num_transactions=300)


def test_tiny_tpcc_trace_is_pinned(tiny_tpcc):
    assert _trace_digest(tiny_tpcc) == TRACE_PINS["tpcc"]


@pytest.mark.parametrize("name, generate", [("epinions", _tiny_epinions), ("tpce", _tiny_tpce)])
def test_tiny_trace_is_pinned(name, generate):
    assert _trace_digest(generate()) == TRACE_PINS[name]


def _route_digest(bundle):
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
    run = Pipeline(SchismOptions(num_partitions=2)).run(bundle.database, train, test)
    plan = PartitionPlan.loads(run.plan(workload=bundle.name).dumps())
    strategy = plan.deployment_strategy()
    router = Router(strategy, bundle.database.schema, build_lookup_table(strategy.assignment))
    digest = hashlib.sha256()
    for transaction in bundle.workload:
        for decision in router.route_transaction(transaction):
            line = (
                sorted(decision.partitions),
                decision.broadcast,
                decision.keys,
                decision.sql,
                decision.params,
            )
            digest.update(repr(line).encode() + b"\n")
    return digest.hexdigest()


def test_tiny_tpcc_routes_are_pinned(tiny_tpcc):
    assert _route_digest(tiny_tpcc) == ROUTE_PINS["tpcc"]


@pytest.mark.parametrize("name, generate", [("epinions", _tiny_epinions), ("tpce", _tiny_tpce)])
def test_tiny_routes_are_pinned(name, generate):
    assert _route_digest(generate()) == ROUTE_PINS[name]
