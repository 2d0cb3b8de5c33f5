"""The four workloads, as run inside one isolated child process.

Every serving round is a complete, independent run of the shipped path, as
``repro run`` + ``repro deploy --storage sqlite`` drive it::

    generate -> Pipeline.run -> PipelineRun.plan -> PartitionPlan.save/load
    -> plan.deployment_strategy("hash") + build_lookup_table -> Router
    -> SqliteStorageCluster.from_database(...).start()
    -> StorageCoordinator (CLI default RetryOptions, no oracle) -> ClosedLoopDriver

Round ``i`` of a run generates its inputs from sub-seed
``spec.round_seed(seed, i)``, so a run's value covers several draws of the
workload and ``setup_s`` gets one sample per round.  Serving statistics are
taken per window of consecutive completions and the run's value is the median
over the windows of all rounds: an interference burst on a shared host spoils
the windows it covers, not the run.  With ``trace`` set,
three rounds share one input: a plain one (the overhead baseline), a traced
one (benchmark-side spans around every layer) and an audited one (an oracle on
the coordinator and a row-by-row audit of the SQLite files after close).
"""

from __future__ import annotations

import inspect
import os
import platform
import resource
import shutil
import sqlite3
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

from repro.core.config import default_options
from repro.core.strategies import HashPartitioning
from repro.experiments.figure5 import synthetic_access_graph
from repro.graph import PartitionerOptions, cut_weight, partition_graph
from repro.graph.backend import array_backend
from repro.graph.partitioner import partition_weights
from repro.obs import Telemetry, use_telemetry
from repro.pipeline import STAGE_NAMES, PartitionPlan, Pipeline
from repro.routing.lookup import build_lookup_table
from repro.routing.router import Router
from repro.storage import (
    ClosedLoopDriver,
    RetryOptions,
    SqlitePartitionStore,
    SqliteStorageCluster,
    StorageCoordinator,
)
from repro.storage.sql import compile_statement
from repro.workload.rwsets import extract_access_trace
from repro.workload.trace import Workload
from repro.workloads import EpinionsConfig, TpccConfig, generate_epinions, generate_tpcc

from schism_bench import spec
from schism_bench.spans import (
    SpanRecorder,
    TracedCluster,
    TracedCoordinator,
    TracedLocks,
    TracedRouter,
    duration,
    self_times,
)
from schism_bench.stats import interquartile_mean, percentile

clock = time.perf_counter

#: the CLI's `deploy` defaults (--timeout-ms / --max-retries / --backoff-base-ms).
CLI_RETRY = dict(timeout_ms=1000.0, max_retries=4, backoff_base_ms=25.0)
#: pings per worker before a traced round: the pipe + pickle floor.
PINGS_PER_WORKER = 200
#: partition-0 requests replayed in-process against a pristine copy of its file.
STORE_PROBE_REQUESTS = 300
#: live statements timed through compile_statement in the traced round.
COMPILE_PROBE_STATEMENTS = 2000
#: the pipeline stage behind each benchmark span (layer = module name).
STAGE_SPANS = {
    "extract": "workload.extract",
    "build_graph": "graph.build",
    "partition": "graph.partition",
    "explain": "explain.explain",
    "validate": "core.validate",
}


class Outcome:
    """Everything one workload run reports: round values, counts, checks."""

    def __init__(self, workload: str, seed: int, trace: bool, sizes: spec.Sizes) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.sizes = sizes
        #: every sample of each metric: one per round, or one per serving window.
        self.rounds: dict[str, list[float]] = {}
        self.samples: dict[str, int] = {}
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict[str, object] = {}
        self.recorder = SpanRecorder()
        self.program_spans: list[dict] = []

    def add(self, name: str, value: float, samples: int | None = None) -> None:
        """Record one sample (a round's or a window's value) of metric ``name``."""
        self.rounds.setdefault(name, []).append(float(value))
        if samples is not None:
            self.samples[name] = self.samples.get(name, 0) + samples

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record an output check; a failed check counts in ``failed``."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1

    def exact(self, inputs: int, name: str, value: object) -> None:
        """Record an exact count of the round whose inputs came from sub-seed
        ``inputs``; rounds sharing a sub-seed must agree on it."""
        seen = self.info.setdefault("exact", {}).setdefault(str(inputs), {}).setdefault(name, value)
        self.check(f"{name} identical for identical inputs", seen == value, f"{seen!r} vs {value!r}")

    def payload(self, metrics: tuple[spec.Metric, ...]) -> dict:
        """The child's result: one value per metric plus every sample."""
        out = {}
        for metric in metrics:
            values = self.rounds.get(metric.name, [])
            out[metric.name] = {
                "value": median(values) if values else 0.0,
                "unit": metric.unit,
                "rounds": values,
                "samples": self.samples.get(metric.name, len(values)),
            }
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "sizes": asdict(self.sizes),
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "checks": self.checks,
            "metrics": out,
            "info": self.info,
        }


def provenance(workdir: Path) -> dict:
    """Where and on what the numbers were taken."""
    filesystem = "unknown"
    best = ""
    target = str(workdir.resolve())
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if target.startswith(mount) and len(mount) > len(best):
                best, filesystem = mount, fstype
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "array_backend": array_backend(),
        "REPRO_ARRAY_BACKEND": os.environ.get("REPRO_ARRAY_BACKEND"),
        "nproc": os.cpu_count(),
        "sqlite": sqlite3.sqlite_version,
        "storage_filesystem": filesystem,
        "clients": spec.CLIENTS,
        "partitions": spec.PARTITIONS,
    }


# -- planning ----------------------------------------------------------------------------
def _generate(workload: str, sizes: spec.Sizes, seed: int):
    total = sizes.train + sizes.test + sizes.warm + sizes.live
    if workload == "epinions_e2e":
        config = EpinionsConfig(num_users=1000, num_items=1000, num_communities=10, seed=seed)
        return generate_epinions(config, num_transactions=total)
    config = TpccConfig(
        warehouses=4, districts_per_warehouse=4, customers_per_district=20, items=100, seed=seed
    )
    return generate_tpcc(config, num_transactions=total)


def _split(bundle, sizes: spec.Sizes):
    transactions = bundle.workload.transactions
    planned = sizes.train + sizes.test
    train = Workload(f"{bundle.name}-train", transactions[: sizes.train])
    test = Workload(f"{bundle.name}-test", transactions[sizes.train : planned])
    warm = transactions[planned : planned + sizes.warm]
    live = transactions[planned + sizes.warm :]
    return train, test, warm, live


def _plan_options(bundle, seed: int):
    options = default_options(spec.PARTITIONS, seed=seed)
    if bundle.hash_columns:
        options.hash_columns = bundle.hash_columns
    return options


def _check_plan(
    out: Outcome, inputs: int, run, plan: PartitionPlan, loaded: PartitionPlan, path: Path
) -> None:
    out.check(
        "plan save -> load -> dumps byte-identical",
        loaded.dumps() == plan.dumps() == path.read_text(encoding="utf-8"),
    )
    out.exact(inputs, "plan_fingerprint", loaded.content_fingerprint())
    out.check(
        "every placement in range(k)",
        all(
            0 <= partition < loaded.num_partitions
            for placement in loaded.placements.values()
            for partition in placement
        ),
    )
    out.exact(
        inputs, "plan_distributed_fraction", run.state.validation.winner_report.distributed_fraction
    )
    out.exact(inputs, "plan_strategy", loaded.recommendation)
    out.exact(inputs, "graph_cut_weight", run.state.graph_cut)


def _plan(out: Outcome, inputs: int, bundle, train, test, path: Path) -> PartitionPlan:
    """Planning as ``repro run`` does it: ``Pipeline.run`` entry to plan loaded back."""
    options = _plan_options(bundle, inputs)
    out.attempted += 1
    started = clock()
    run = Pipeline(options).run(bundle.database, train, test)
    plan = run.plan(created_by="schism_bench", workload=bundle.name)
    plan.save(path)
    loaded = PartitionPlan.load(path)
    out.add("pipeline.plan_s", clock() - started)
    _check_plan(out, inputs, run, plan, loaded, path)
    return loaded


def _program_phase_self_times(telemetry) -> dict[str, float]:
    """Self time of the shipped ``partition.*`` spans, summed by name."""
    spans = telemetry.tracer.finished_spans
    child_time: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
    totals: dict[str, float] = {}
    for span in spans:
        own = span.duration - child_time.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _keep_program_spans(out: Outcome, telemetry, parent: dict) -> None:
    for span in telemetry.tracer.finished_spans:
        out.program_spans.append(
            {
                "id": span.span_id,
                "name": span.name,
                "parent": span.parent_id,
                "benchmark_parent": parent["id"],
                "duration_s": span.duration,
                "attributes": dict(span.attributes),
            }
        )


def _add_partition_phases(out: Outcome, telemetry) -> None:
    phases = _program_phase_self_times(telemetry)
    out.add("graph.coarsen_s", phases.get("partition.coarsen", 0.0))
    out.add("graph.initial_s", phases.get("partition.initial", 0.0))
    out.add("graph.refine_s", phases.get("partition.refine", 0.0))


def _plan_traced(out: Outcome, inputs: int, bundle, train, test, path: Path) -> PartitionPlan:
    """Planning stage by stage, one benchmark span per stage.

    The shipped telemetry is installed here only: planning is single-threaded,
    which the seeded tracer's strict stack discipline needs.
    """
    options = _plan_options(bundle, inputs)
    recorder = out.recorder
    out.attempted += 1
    with use_telemetry(Telemetry.create(inputs)) as telemetry:
        pipeline = Pipeline(options)
        state = pipeline.new_state(bundle.database, train, test)
        with recorder.span("pipeline.plan", trace="plan") as root:
            for stage in STAGE_NAMES:
                if stage == "partition":
                    with recorder.span("graph.freeze"):
                        state.tuple_graph.frozen()
                with recorder.span(STAGE_SPANS[stage]) as span:
                    run = pipeline.resume(state, stop_after=stage)
                if stage == "partition":
                    _keep_program_spans(out, telemetry, span)
            with recorder.span("pipeline.plan_build"):
                plan = run.plan(created_by="schism_bench", workload=bundle.name)
            with recorder.span("pipeline.plan_save"):
                plan.save(path)
            with recorder.span("pipeline.plan_load"):
                loaded = PartitionPlan.load(path)
    out.add("pipeline.plan_s", duration(root))
    _check_plan(out, inputs, run, plan, loaded, path)

    def seconds(name: str) -> float:
        return sum(duration(span) for span in recorder.named(name))

    extract_s = seconds("workload.extract")
    out.add("workload.extract_s", extract_s)
    out.add("workload.extract_txn_per_s", (len(train) + len(test)) / extract_s)
    out.add(
        "workload.trace_accesses",
        sum(len(a.read_set) + len(a.write_set) for a in state.training_trace),
    )
    out.add("graph.build_s", seconds("graph.build"))
    out.add("graph.nodes", state.tuple_graph.num_nodes)
    out.add("graph.edges", state.tuple_graph.num_edges)
    out.add("graph.freeze_s", seconds("graph.freeze"))
    partition_s = seconds("graph.partition")
    out.add("graph.partition_s", partition_s)
    out.add("graph.partition_nodes_per_s", state.tuple_graph.num_nodes / partition_s)
    _add_partition_phases(out, telemetry)
    out.add("graph.cut_weight", state.graph_cut)
    counts = state.assignment.partition_tuple_counts()
    out.add("graph.imbalance", max(counts) / (sum(counts) / len(counts)))
    out.add("explain.explain_s", seconds("explain.explain"))
    out.add("explain.rules", sum(len(t.rule_set.rules) for t in state.explanation.tables.values()))
    out.add("explain.tables_usable", sum(1 for t in state.explanation.tables.values() if t.usable))
    out.add("core.validate_s", seconds("core.validate"))
    out.add("core.candidates", len(state.validation.reports))
    out.add("core.plan_distributed_fraction", state.validation.winner_report.distributed_fraction)
    out.add("pipeline.plan_build_s", seconds("pipeline.plan_build"))
    out.add("pipeline.plan_save_s", seconds("pipeline.plan_save"))
    out.add("pipeline.plan_load_s", seconds("pipeline.plan_load"))
    out.add("pipeline.plan_bytes", path.stat().st_size)
    out.add("pipeline.plan_placements", len(loaded))
    out.add("pipeline.replicated_tuples", loaded.replicated_count)
    return loaded


# -- serving -----------------------------------------------------------------------------
def _audit(out: Outcome, cluster: SqliteStorageCluster, router: Router, oracle) -> None:
    """Compare the closed cluster's SQLite files with the oracle, row by row."""
    schema = oracle.schema
    lost = phantom = unreachable = 0
    stores = {p: cluster.open_store(p) for p in range(cluster.num_partitions)}
    try:
        rows = {
            p: {table.name: store.all_rows(table.name) for table in schema.tables}
            for p, store in stores.items()
        }
        locations: dict = {}
        for partition, store in stores.items():
            for tuple_id in store.tuple_ids():
                locations.setdefault(tuple_id, set()).add(partition)
    finally:
        for store in stores.values():
            store.close()
    for tuple_id, resident in locations.items():
        oracle_row = oracle.get_row(tuple_id)
        if oracle_row is None:
            phantom += 1
            continue
        for partition in resident:
            if rows[partition][tuple_id.table].get(tuple(tuple_id.key)) != oracle_row:
                lost += 1
        if not any(partition in resident for partition in router.placement_of(tuple_id)):
            unreachable += 1
    out.add("audit.lost_updates", lost)
    out.add("audit.phantom_rows", phantom)
    out.add("audit.unreachable_tuples", unreachable)
    out.check("audit: zero lost updates", lost == 0, str(lost))
    out.check("audit: zero phantom rows", phantom == 0, str(phantom))
    out.check("audit: zero unreachable tuples", unreachable == 0, str(unreachable))
    out.check("audit: tuple set conserved", set(locations) == set(oracle.all_tuple_ids()))


def _probe_store(out: Outcome, path: Path, schema, requests: list) -> None:
    """Replay recorded partition-0 requests in-process: SQLite apply + fsync
    without the pipe, the pickling or the worker process."""
    apply_ms: list[float] = []
    read_ms: list[float] = []
    with SqlitePartitionStore(path, schema) as store:
        for op, payload in requests:
            started = clock()
            if op == "apply":
                store.apply_transaction(*payload)
                apply_ms.append((clock() - started) * 1000.0)
            elif op == "read":
                store.execute_read(payload)
                read_ms.append((clock() - started) * 1000.0)
    out.add("storage.sqlite_store.apply_ms_p50", median(apply_ms) if apply_ms else 0.0, len(apply_ms))
    out.add("storage.sqlite_store.read_ms_p50", median(read_ms) if read_ms else 0.0, len(read_ms))


def _serving_layer_metrics(out: Outcome, spans: list[dict], report, live) -> None:
    """Per-layer numbers of one traced serving round, from its spans."""
    own = self_times(spans)

    def ms(name: str) -> list[float]:
        return [duration(span) * 1000.0 for span in spans if span["name"] == name]

    transactions = [span for span in spans if span["name"] == "storage.coordinator.txn"]
    routes = [span for span in spans if span["name"] == "routing.route"]
    requests = [span for span in spans if span["name"].startswith("storage.worker.")]
    txn_ms = [duration(span) * 1000.0 for span in transactions]
    out.add("storage.coordinator.txn_ms_p50", median(txn_ms), len(txn_ms))
    out.add("storage.coordinator.txn_ms_p99", percentile(txn_ms, 0.99), len(txn_ms))
    out.add("storage.coordinator.self_ms_p50", median([own[s["id"]] * 1000.0 for s in transactions]))
    lock_ms = ms("storage.coordinator.lock_wait")
    out.add("storage.coordinator.lock_wait_ms_p50", median(lock_ms), len(lock_ms))
    out.add("storage.coordinator.lock_wait_ms_sum", sum(lock_ms))
    out.add("storage.coordinator.requests_per_txn", len(requests) / len(transactions))
    participants = [len(outcome.participants) for outcome in report.outcomes]
    out.add("storage.coordinator.participants_per_txn", sum(participants) / len(participants))
    out.add("storage.coordinator.retries", sum(1 for span in requests if "error" in span))
    out.add("storage.coordinator.aborts", report.aborted)
    route_us = [duration(span) * 1e6 for span in routes]
    out.add("routing.route_us_p50", median(route_us), len(route_us))
    out.add("routing.route_calls", len(routes))
    out.add("routing.mean_participants", sum(s["participants"] for s in routes) / len(routes))
    apply_ms = ms("storage.worker.apply")
    read_ms = ms("storage.worker.read")
    out.add("storage.worker.apply_rtt_ms_p50", median(apply_ms) if apply_ms else 0.0, len(apply_ms))
    out.add("storage.worker.apply_rtt_ms_p99", percentile(apply_ms, 0.99) if apply_ms else 0.0)
    out.add("storage.worker.read_rtt_ms_p50", median(read_ms) if read_ms else 0.0, len(read_ms))
    out.add("storage.worker.apply_requests", len(apply_ms))
    out.add("storage.worker.read_requests", len(read_ms))
    busy: dict[int, float] = {}
    for span in requests:
        busy[span["partition"]] = busy.get(span["partition"], 0.0) + duration(span)
    out.add("storage.worker.busy_fraction_max", max(busy.values()) / report.wall_s)
    compile_us = []
    statements = [s for transaction in live for s in transaction.statements]
    for statement in statements[:COMPILE_PROBE_STATEMENTS]:
        started = clock()
        compile_statement(statement)
        compile_us.append((clock() - started) * 1e6)
    out.add("storage.sql.compile_us_p50", median(compile_us), len(compile_us))


def _ping_floor(out: Outcome, cluster: SqliteStorageCluster) -> None:
    """Time bare ping round-trips to every worker: the pipe + pickle floor."""
    ping_ms = []
    for partition in range(cluster.num_partitions):
        handle = cluster.handle(partition)
        for _ in range(PINGS_PER_WORKER):
            started = clock()
            handle.request("ping")
            ping_ms.append((clock() - started) * 1000.0)
    out.add("storage.worker.ping_rtt_ms_p50", median(ping_ms), len(ping_ms))


def _add_windows(out: Outcome, started: float, done: list[tuple[float, float]]) -> None:
    """One sample of each serving metric per window of ``out.sizes.window``
    consecutive completions; ``done`` holds (completion time, latency ms)."""
    size = out.sizes.window
    done.sort()  # two clients may append a few microseconds out of order
    for first in range(0, len(done) - size + 1, size):
        window = done[first : first + size]
        latencies = [latency for _, latency in window]
        out.add("ops_per_s", size / (window[-1][0] - started), size)
        out.add("op_iqm_ms", interquartile_mean(latencies), size)
        out.add("op_p90_ms", percentile(latencies, 0.90), size)
        started = window[-1][0]


def _serve(
    out: Outcome,
    inputs: int,
    label: str,
    database,
    strategy,
    lookup_table,
    warm,
    live,
    workdir: Path,
    setup: dict[str, float],
    traced: bool,
    audited: bool,
) -> None:
    """Deploy ``strategy`` at k = 4 and serve ``live``.

    ``setup`` collects the untimed preparation of this round in seconds.
    ``traced`` installs the span proxies; ``audited`` mirrors every committed
    write into ``database`` as the oracle and audits the files after close.
    The two are separate rounds: the mirror runs inside the transaction, so an
    audited round's timings are not the program's.
    """
    recorder = out.recorder
    directory = workdir / label
    router = Router(strategy, database.schema, lookup_table)
    try:
        started = clock()
        cluster = SqliteStorageCluster.from_database(directory / "cluster", database, strategy)
        setup["bulk_load_s"] = clock() - started
        if traced:
            # A second, never-started cluster directory: the identical initial
            # partition-0 file for the in-process store probe.
            probe = SqliteStorageCluster.from_database(directory / "probe", database, strategy)
        serving = TracedCluster(cluster, recorder, 0, STORE_PROBE_REQUESTS) if traced else cluster
        started = clock()
        cluster.start()
        setup["start_s"] = clock() - started
        try:
            target = coordinator = StorageCoordinator(
                serving,
                router,
                oracle=database if audited else None,
                retry_options=RetryOptions(**CLI_RETRY),
                seed=inputs,
            )
            if traced:
                coordinator.router = TracedRouter(router, recorder)
                coordinator.locks = TracedLocks(coordinator.locks, recorder)
                target = TracedCoordinator(coordinator, recorder)
            # (completion time, latency) of every transaction, through the
            # driver's public per-outcome hook (the one the CLI's pacer uses).
            done: list[tuple[float, float]] = []
            driver = ClosedLoopDriver(
                target,
                num_clients=spec.CLIENTS,
                on_outcome=lambda latency_ms, _aborted: done.append((clock(), latency_ms)),
            )
            started = clock()
            driver.run(warm, txn_id_prefix=f"{label}-warm")
            setup["warm_s"] = clock() - started
            if traced:
                _ping_floor(out, cluster)
            first_span = len(recorder.spans)
            done.clear()
            live_started = clock()
            report = driver.run(live, txn_id_prefix=f"{label}-txn")
            handles = [cluster.handle(p) for p in range(cluster.num_partitions)]
            pongs = [handle.request("ping") == "pong" for handle in handles]
            rows_stored = sum(handle.request("row_count") for handle in handles)
        finally:
            started = clock()
            cluster.close()
            setup["close_s"] = clock() - started
        out.attempted += report.total
        out.failed += report.aborted
        out.check(
            "committed + aborted = attempted, no client raised",
            report.committed + report.aborted == report.total == len(live),
        )
        out.check("no transaction aborted", report.aborted == 0, str(report.aborted))
        out.check("every worker answers ping after the round", all(pongs), str(pongs))
        out.exact(inputs, "serve_distributed_fraction", report.distributed_fraction)
        _add_windows(out, live_started, done)
        if audited:
            _audit(out, cluster, router, database)
        if not traced:
            return
        _serving_layer_metrics(out, recorder.spans[first_span:], report, live)
        out.add("routing.serve_distributed_fraction", report.distributed_fraction)
        out.add("storage.cluster.bulk_load_s", setup["bulk_load_s"])
        out.add("storage.cluster.start_s", setup["start_s"])
        out.add("storage.cluster.close_s", setup["close_s"])
        out.add("storage.cluster.rows_loaded", rows_stored)
        out.add(
            "storage.cluster.db_bytes",
            sum(f.stat().st_size for f in (directory / "cluster").iterdir()),
        )
        out.add(
            "storage.worker.peak_rss_mb",
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        )
        out.add("bench.failed_fraction", report.aborted / report.total)
        _probe_store(out, probe.paths[0], database.schema, serving.request_log)
        journal = sqlite3.connect(str(cluster.paths[0]))
        try:
            out.info["pragma_journal_mode"] = journal.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            journal.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _serving_round(
    out: Outcome, inputs: int, label: str, workdir: Path, traced: bool, audited: bool = False
) -> None:
    """One full round of a serving workload on the inputs of sub-seed ``inputs``."""
    sizes = out.sizes
    setup: dict[str, float] = {}
    started = clock()
    bundle = _generate(out.workload, sizes, inputs)
    setup["generate_s"] = clock() - started
    train, test, warm, live = _split(bundle, sizes)
    database = bundle.database
    if out.workload == "tpcc_hash_serve":
        # Bring the database to the state tpcc_e2e deploys (its extraction
        # executed the planning stream against it), so the two workloads serve
        # the same stream on the same rows.
        started = clock()
        extract_access_trace(database, Workload("replay", train.transactions + test.transactions))
        setup["replay_s"] = clock() - started
        strategy = HashPartitioning(spec.PARTITIONS)
        lookup_table = None
    else:
        plan_path = workdir / f"{label}-plan.json"
        plan = (_plan_traced if traced else _plan)(out, inputs, bundle, train, test, plan_path)
        plan_path.unlink()
        setup["plan_s"] = out.rounds["pipeline.plan_s"][-1]
        strategy = plan.deployment_strategy("hash")
        started = clock()
        lookup_table = build_lookup_table(strategy.assignment)
        setup["lookup_build_s"] = clock() - started
        if traced:
            out.add("routing.lookup_build_s", setup["lookup_build_s"])
            out.add("routing.lookup_bytes", lookup_table.memory_bytes())
    _serve(
        out, inputs, label, database, strategy, lookup_table, warm, live, workdir, setup,
        traced, audited,
    )
    out.add("setup_s", sum(setup.values()))
    if traced:
        out.add("workloads.generate_s", setup["generate_s"])


def _traced_pass(out: Outcome, one_round) -> None:
    """A plain round, then a traced round of the same inputs (sub-seed 0 of the
    run, which is also the measured pass's first round)."""
    inputs = spec.round_seed(out.seed, 0)
    one_round(inputs, "plain", False)
    plain = {name: values[:] for name, values in out.rounds.items()}
    out.rounds.clear()
    out.samples.clear()
    one_round(inputs, "traced", True)
    out.add(
        "bench.trace_overhead_fraction",
        1.0 - median(out.rounds["ops_per_s"]) / median(plain["ops_per_s"]),
    )
    out.info["plain_round"] = plain


def run_serving(out: Outcome, workdir: Path) -> None:
    """tpcc_e2e, epinions_e2e, tpcc_hash_serve."""

    def one_round(inputs: int, label: str, traced: bool) -> None:
        _serving_round(out, inputs, label, workdir, traced)

    if not out.trace:
        for index in range(out.sizes.rounds):
            one_round(spec.round_seed(out.seed, index), f"r{index}", False)
        return
    _traced_pass(out, one_round)
    _serving_round(out, spec.round_seed(out.seed, 0), "audited", workdir, False, audited=True)
    out.info["synchronous"] = inspect.signature(SqlitePartitionStore.__init__).parameters[
        "synchronous"
    ].default


# -- partition_synth50k ------------------------------------------------------------------
def _partition_round(out: Outcome, inputs: int, traced: bool) -> None:
    """Generate, then one op = freeze + partition, cold: a fresh CSR form carries
    no memoised coarsening chain, so every round pays for the whole multilevel run."""
    sizes = out.sizes
    recorder = out.recorder
    options = PartitionerOptions(seed=inputs, initial_trials=4, refine_passes=2)
    set_up = clock()
    if out.attempted == 0:
        # First round of the process: warm up on a graph a tenth the size, which
        # fills lazy imports and allocator pools without paying a full-size run.
        small = synthetic_access_graph(sizes.nodes // 10, sizes.edges // 10, inputs)
        partition_graph(small.freeze(), sizes.parts, options)
    started = clock()
    graph = synthetic_access_graph(sizes.nodes, sizes.edges, inputs)
    generate_s = clock() - started
    out.add("setup_s", clock() - set_up)
    out.attempted += 1
    if traced:
        with use_telemetry(Telemetry.create(inputs)) as telemetry:
            with recorder.span("graph.plan", trace="partition") as root:
                with recorder.span("graph.freeze") as freeze:
                    frozen = graph.freeze()
                with recorder.span("graph.partition") as call:
                    assignment = partition_graph(frozen, sizes.parts, options)
        _keep_program_spans(out, telemetry, call)
        op_s, freeze_s, call_s = duration(root), duration(freeze), duration(call)
    else:
        started = clock()
        frozen = graph.freeze()
        frozen_at = clock()
        assignment = partition_graph(frozen, sizes.parts, options)
        ended = clock()
        op_s, freeze_s, call_s = ended - started, frozen_at - started, ended - frozen_at
    out.add("ops_per_s", 1.0 / op_s)
    out.add("op_ms", op_s * 1000.0)
    cut = cut_weight(frozen, assignment)
    weights = partition_weights(frozen, assignment, sizes.parts)
    imbalance = max(weights) / (sum(weights) / sizes.parts)
    out.exact(inputs, "graph_cut_weight", cut)
    out.check(
        "assignment complete and in range(k)",
        len(assignment) == sizes.nodes and all(0 <= part < sizes.parts for part in assignment),
    )
    # PartitionerOptions allows the ideal weight * (1 + imbalance) plus one
    # maximal node (unit weights here).
    allowed = 1.0 + options.imbalance + sizes.parts / sizes.nodes
    out.check("within PartitionerOptions imbalance", imbalance <= allowed + 1e-9, f"{imbalance:.4f}")
    if traced:
        out.add("workloads.generate_s", generate_s)
        out.add("graph.freeze_s", freeze_s)
        out.add("graph.partition_s", call_s)
        out.add("graph.partition_nodes_per_s", sizes.nodes / call_s)
        _add_partition_phases(out, telemetry)
        out.add("graph.nodes", frozen.num_nodes)
        out.add("graph.edges", graph.num_edges)
        out.add("graph.cut_weight", cut)
        out.add("graph.imbalance", imbalance)
        out.add("bench.failed_fraction", 0.0)


def run_partition(out: Outcome, workdir: Path) -> None:
    """partition_synth50k."""

    def one_round(inputs: int, label: str, traced: bool) -> None:
        _partition_round(out, inputs, traced)

    if out.trace:
        _traced_pass(out, one_round)
        return
    for index in range(out.sizes.rounds):
        one_round(spec.round_seed(out.seed, index), f"r{index}", False)
    ops = out.rounds.pop("op_ms")
    out.add("op_iqm_ms", interquartile_mean(ops), len(ops))
    out.add("op_p90_ms", percentile(ops, 0.90), len(ops))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> dict:
    """Run one workload in this process; returns the result payload."""
    sizes = spec.sizes_for(workload, seconds, smoke)
    out = Outcome(workload, seed, trace, sizes)
    out.info["provenance"] = provenance(workdir)
    (run_partition if workload == "partition_synth50k" else run_serving)(out, workdir)
    out.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    payload = out.payload(spec.PER_LAYER if trace else spec.END_TO_END)
    if trace:
        payload["spans"] = out.recorder.spans
        payload["program_spans"] = out.program_spans
    return payload
