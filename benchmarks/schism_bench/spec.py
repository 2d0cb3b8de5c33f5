"""What the benchmark runs and reports: workloads, sizes, metric definitions.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written out
(``python3 benchmarks/schism_bench/spec.py`` prints it); a self-test keeps the
two in step.  The contract fixes that file's keys, so the layer of each
per-layer metric and the end-to-end metric it should move live here and in the
README, not in the JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

#: the measured span (live serving / partition ops) the sizes below were
#: chosen for (``run_seconds``).
RUN_SECONDS = 25
#: measured rounds per serving workload; each round is a full, independent
#: generate -> (plan) -> deploy -> warm -> serve -> close on its own draw of the
#: workload, so ``setup_s`` has 5 samples.
ROUNDS = 5
#: closed-loop client threads (never more than ``nproc`` = 2 on the target box).
CLIENTS = 2
#: partition workers of the deployed cluster (the system under test).
PARTITIONS = 4


def round_seed(seed: int, index: int) -> int:
    """The sub-seed round ``index`` of a run draws its inputs from.

    Rounds of one run use different inputs, so a run's value is a median over
    several draws of the workload, not a property of one random plan."""
    return seed * 1000 + index


#: the workloads of the ``BENCHMARK.json`` contract.
WORKLOADS: dict[str, str] = {
    "tpcc_e2e": (
        "Paper's headline, every layer: TPC-C 4wh, plan on 800+200 txns (extraction-bound), deploy "
        "k=4, serve 5x800 write-heavy multi-participant fsync-bound txns; op = live txn"
    ),
    "partition_synth50k": (
        "Graph layer alone: freeze + partition_graph(50k nodes, 400k edges, k=32) cold, 12 rounds; "
        "where a compiled coarsen/FM tier must show and nothing else moves; op = one partition call"
    ),
}
#: run by full mode and ``--workload``, but not part of the contract: their
#: transactions are little but pipe round-trips (5 and 49 each), every one a
#: process wake-up, which is what a shared host's scheduler moves most --
#: spreads of 0.17-0.37 across runs of the same code, against a bound of 0.25.
EXTRA_WORKLOADS: dict[str, str] = {
    "epinions_e2e": (
        "Same layers used differently: plan on 600+150 txns is explain-bound; serving 5x1800 "
        "short 80%-read txns is bound by pipe RTT, routing, coordinator CPU; op = live txn"
    ),
    "tpcc_hash_serve": (
        "Paper's baseline: tpcc_e2e database and stream under HashPartitioning(4); every txn "
        "distributed, sequential per-participant apply dominates; 5x300 txns; op = live txn"
    ),
}
ALL_WORKLOADS: dict[str, str] = {**WORKLOADS, **EXTRA_WORKLOADS}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload run."""

    train: int = 0
    test: int = 0
    warm: int = 0
    live: int = 0
    #: live transactions per measurement window (serving statistics are taken
    #: per window of consecutive completions; ``live`` is a multiple of it).
    window: int = 0
    rounds: int = ROUNDS
    nodes: int = 0
    edges: int = 0
    parts: int = 0


_BASE = {
    "tpcc_e2e": Sizes(train=800, test=200, warm=60, live=800, window=100),
    "epinions_e2e": Sizes(train=600, test=150, warm=200, live=1800, window=300),
    "tpcc_hash_serve": Sizes(train=800, test=200, warm=40, live=300, window=100),
    "partition_synth50k": Sizes(rounds=12, nodes=50_000, edges=400_000, parts=32),
}
_SMOKE = {
    "tpcc_e2e": Sizes(train=120, test=40, warm=10, live=40, window=20, rounds=2),
    "epinions_e2e": Sizes(train=120, test=40, warm=20, live=120, window=40, rounds=2),
    "tpcc_hash_serve": Sizes(train=120, test=40, warm=10, live=30, window=10, rounds=2),
    "partition_synth50k": Sizes(rounds=3, nodes=4_000, edges=32_000, parts=8),
}


def sizes_for(workload: str, seconds: float, smoke: bool = False) -> Sizes:
    """Sizes for a run meant to measure about ``seconds`` seconds.

    Work, not time, is fixed: the same (seed, seconds) gives the same inputs on
    every commit, so a faster program finishes the same work sooner.  What is
    measured scales linearly with ``seconds / RUN_SECONDS`` — live
    transactions per round (a whole number of windows), partition rounds.  What
    decides the plan (training and test transactions, the synthetic graph) and
    the serving round count never change.
    """
    if smoke:
        return _SMOKE[workload]
    base = _BASE[workload]
    scale = max(0.1, seconds / RUN_SECONDS)
    if workload == "partition_synth50k":
        return replace(base, rounds=max(3, round(base.rounds * scale)))
    return replace(base, live=base.window * max(1, round(base.live * scale / base.window)))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median the metric may worsen by.
    bound: float | None = None
    #: what the number means (end-to-end) / what it should move (per-layer).
    note: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, note=(
        "median over rounds of everything a round does before and after its measured phase. "
        "*_e2e: data generation, PLANNING (Pipeline.run entry to plan saved and loaded back), "
        "lookup-table build, bulk load, worker spawn + startup probe, warm-up, cluster close; "
        "tpcc_hash_serve: replaying the planning stream instead of planning; "
        "partition_synth50k: graph generation (+ a small warm-up partition in the first round)")),
    Metric("ops_per_s", "1/s", "higher", 0.25, note=(
        "serving workloads: committed live txns per wall second in each window of consecutive "
        "completions, median over the windows of all rounds; partition_synth50k: "
        "partition_graph calls per second, median over rounds")),
    Metric("op_iqm_ms", "ms", "lower", 0.25, note=(
        "interquartile mean of op latency (mean of the middle half) per window, median over the "
        "windows of all rounds. Not the plain median: on the TPC-C mix 51% of txns are faster "
        "than a new-order, so p50 sits on the boundary of two modes and flips between them "
        "from seed to seed. partition_synth50k: over the calls of the run")),
    Metric("op_p90_ms", "ms", "lower", 0.25, note=(
        "nearest-rank p90 of op latency per window (>= 10 samples beyond it), median over the "
        "windows of all rounds; the percentile TPC-C states its response-time limits on. p99 is "
        "per-layer. partition_synth50k: p90 of 12 calls is the second slowest call")),
    Metric("peak_rss_mb", "MB", "lower", 0.10, note=(
        "ru_maxrss of the workload's own subprocess (coordinator side; workers are per-layer)")),
)


def _layer(name: str, unit: str, better: str, note: str) -> Metric:
    """A per-layer metric: no bound; its layer is the name up to the last dot."""
    return Metric(name, unit, better, None, note)


_SETUP = "setup_s, all"
_PLAN_TPCC = "pipeline.plan_s (so setup_s) on tpcc_e2e; predicted no change on epinions_e2e"
_GRAPH = ("ops_per_s on partition_synth50k (all of it) and pipeline.plan_s on tpcc_e2e (~a quarter); "
          "no change on epinions_e2e or any serving metric")
_EXPLAIN = "pipeline.plan_s (so setup_s) on epinions_e2e (~90%); ~5% on tpcc_e2e"
_PLAN_SMALL = "pipeline.plan_s on *_e2e, small"
_ROUTE = ("op_iqm_ms/ops_per_s on epinions_e2e (coordinator-process CPU is shared by both client "
          "threads under the GIL); negligible on the TPC-C workloads")
_LOCK = "op_p90_ms on the TPC-C workloads (hot warehouse/district rows); ~0 on epinions_e2e"
_APPLY = ("a txn's latency is the SUM of its participants' apply round-trips (sorted partition "
          "order): overlapping them moves op_iqm_ms/ops_per_s most on tpcc_hash_serve, less on "
          "tpcc_e2e, not on epinions_e2e")
_RTT = "all three serving metrics on the TPC-C workloads"
_PING = "the pipe + pickle floor; moves op_iqm_ms on epinions_e2e"
_STORE = "apply RTT minus this is the pipe/process cost -> TPC-C serving metrics (fsync at synchronous=FULL)"
_EXACT = "exact count: identical for identical inputs (same sub-seed); reported, not bounded"

PER_LAYER: tuple[Metric, ...] = (
    _layer("workloads.generate_s", "s", "lower", _SETUP),
    _layer("workload.extract_s", "s", "lower", _PLAN_TPCC),
    _layer("workload.extract_txn_per_s", "1/s", "higher", _PLAN_TPCC),
    _layer("workload.trace_accesses", "count", "lower", _PLAN_TPCC),
    _layer("graph.build_s", "s", "lower", _GRAPH),
    _layer("graph.nodes", "count", "lower", _GRAPH),
    _layer("graph.edges", "count", "lower", _GRAPH),
    _layer("graph.freeze_s", "s", "lower", _GRAPH),
    _layer("graph.partition_s", "s", "lower", _GRAPH),
    _layer("graph.partition_nodes_per_s", "1/s", "higher", _GRAPH),
    _layer("graph.coarsen_s", "s", "lower", _GRAPH),
    _layer("graph.initial_s", "s", "lower", _GRAPH),
    _layer("graph.refine_s", "s", "lower", _GRAPH),
    _layer("graph.cut_weight", "weight", "lower", _EXACT),
    _layer("graph.imbalance", "ratio", "lower", _EXACT),
    _layer("explain.explain_s", "s", "lower", _EXPLAIN),
    _layer("explain.rules", "count", "lower", _EXPLAIN),
    _layer("explain.tables_usable", "count", "higher", _EXPLAIN),
    _layer("core.validate_s", "s", "lower", _PLAN_SMALL),
    _layer("core.candidates", "count", "lower", _PLAN_SMALL),
    _layer("core.plan_distributed_fraction", "fraction", "lower",
           "held-out test txns distributed under the strategy validation selected; " + _EXACT),
    _layer("pipeline.plan_s", "s", "lower",
           "Pipeline.run entry to plan saved and loaded back; about half of setup_s on *_e2e. Not "
           "an end-to-end metric of its own: TPC-C extraction is pointer-chasing Python, which "
           "a shared host's cache traffic moves by 20-40% for a whole run (spread 0.2-0.3)"),
    _layer("pipeline.plan_build_s", "s", "lower", _PLAN_SMALL + "; grows with placements"),
    _layer("pipeline.plan_save_s", "s", "lower", _PLAN_SMALL + "; grows with placements"),
    _layer("pipeline.plan_load_s", "s", "lower", _PLAN_SMALL + "; grows with placements"),
    _layer("pipeline.plan_bytes", "B", "lower", _PLAN_SMALL),
    _layer("pipeline.plan_placements", "count", "lower", _PLAN_SMALL),
    _layer("pipeline.replicated_tuples", "count", "lower", _PLAN_SMALL),
    _layer("routing.lookup_build_s", "s", "lower", _SETUP),
    _layer("routing.lookup_bytes", "B", "lower", _SETUP),
    _layer("routing.route_us_p50", "us", "lower", _ROUTE),
    _layer("routing.route_calls", "count", "lower", _ROUTE),
    _layer("routing.mean_participants", "count", "lower", _ROUTE),
    _layer("routing.serve_distributed_fraction", "fraction", "lower",
           "live txns the deployed router sent to > 1 partition (beside core.plan_distributed_"
           "fraction on purpose: deployment serves the lookup table with a hash default for "
           "inserted tuples, not the selected range rules); " + _EXACT),
    _layer("storage.sql.compile_us_p50", "us", "lower", _ROUTE),
    _layer("storage.cluster.bulk_load_s", "s", "lower", _SETUP),
    _layer("storage.cluster.start_s", "s", "lower", _SETUP),
    _layer("storage.cluster.close_s", "s", "lower", _SETUP),
    _layer("storage.cluster.rows_loaded", "count", "lower", _SETUP),
    _layer("storage.cluster.db_bytes", "B", "lower", _SETUP),
    _layer("storage.coordinator.txn_ms_p50", "ms", "lower", "op_iqm_ms, serving workloads"),
    _layer("storage.coordinator.txn_ms_p99", "ms", "lower", "the tail beyond op_p90_ms, one round"),
    _layer("storage.coordinator.self_ms_p50", "ms", "lower", _ROUTE),
    _layer("storage.coordinator.lock_wait_ms_p50", "ms", "lower", _LOCK),
    _layer("storage.coordinator.lock_wait_ms_sum", "ms", "lower", _LOCK),
    _layer("storage.coordinator.requests_per_txn", "count", "lower", _APPLY),
    _layer("storage.coordinator.participants_per_txn", "count", "lower", _APPLY),
    _layer("storage.coordinator.retries", "count", "lower", "0 without faults; > 0 moves op_p90_ms"),
    _layer("storage.coordinator.aborts", "count", "lower", "0 without faults; counted in failed"),
    _layer("storage.worker.apply_rtt_ms_p50", "ms", "lower", _RTT),
    _layer("storage.worker.apply_rtt_ms_p99", "ms", "lower", _RTT),
    _layer("storage.worker.read_rtt_ms_p50", "ms", "lower", "op_iqm_ms on epinions_e2e"),
    _layer("storage.worker.ping_rtt_ms_p50", "ms", "lower", _PING),
    _layer("storage.worker.apply_requests", "count", "lower", _APPLY),
    _layer("storage.worker.read_requests", "count", "lower", "op_iqm_ms on epinions_e2e"),
    _layer("storage.worker.busy_fraction_max", "fraction", "lower",
           "largest per-worker sum(RTT)/wall: the hottest partition bounds ops_per_s"),
    _layer("storage.worker.peak_rss_mb", "MB", "lower", "largest worker process (RUSAGE_CHILDREN)"),
    _layer("storage.sqlite_store.apply_ms_p50", "ms", "lower", _STORE),
    _layer("storage.sqlite_store.read_ms_p50", "ms", "lower", _STORE),
    _layer("audit.lost_updates", "count", "lower", "must be 0 (row-by-row audit against the oracle)"),
    _layer("audit.phantom_rows", "count", "lower", "must be 0"),
    _layer("audit.unreachable_tuples", "count", "lower", "must be 0"),
    _layer("bench.failed_fraction", "fraction", "lower",
           "(aborted + raised) / attempted txns, or failed / attempted rounds; must be 0"),
    _layer("bench.trace_overhead_fraction", "fraction", "lower",
           "1 - traced ops_per_s / untraced ops_per_s, same process, same inputs"),
)


def benchmark_json() -> dict:
    """The contract file, in exactly the shape the driver accepts."""
    return {
        "command": ["python3", "benchmarks/schism_bench/run.py"],
        "paths": ["benchmarks/schism_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
