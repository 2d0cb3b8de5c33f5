"""Real-storage resilience under process kills: the chaos experiment.

A 2- and 4-partition TPC-C deployment runs on the **real** storage backend —
every partition a SQLite file owned by a worker process — under sustained
concurrent closed-loop clients, while the seeded
:class:`~repro.distributed.faults.FaultPlan` ``SIGKILL``\\ s two worker
processes at chosen commit ticks.  The supervisor must restart every killed
worker (WAL recovery on reopen), the coordinator's retry/backoff/fallback
machinery must ride through the outage windows, and at the end the files on
disk are audited row by row against a single-node oracle that mirrored every
committed transaction:

* **zero lost committed updates** — each replica of each tuple equals the
  oracle row (a write acknowledged but not durably applied, or applied twice
  through a retry, would show up here);
* **zero unreachable tuples** — every stored tuple is resident at a
  partition its routed placement names;
* **tuple conservation** — the cluster's tuple set equals the oracle's;
* **supervision** — every injected kill was matched by a supervisor restart
  and the run completed (no wedged clients).

Each point measures its distributed-transaction fraction, so the run
doubles as a Figure-1-style wall-clock probe: the same workload deployed
via the Schism plan (few distributed transactions) and via hash partitioning
(many) at k=2 and k=4, recording throughput / latency / abort rate as that
fraction varies.  Wall-clock numbers are inherently volatile and are kept
out of the deterministic payload the bench harness records.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.distributed.faults import FaultPlan, WorkerKill
from repro.obs import trace_span
from repro.pipeline import Pipeline, SchismOptions
from repro.routing.lookup import build_lookup_table
from repro.analysis.witness import WitnessedLockManager
from repro.experiments.audit import audit_against_oracle, audit_violations, sqlite_rows
from repro.routing.router import Router
from repro.storage import (
    ClosedLoopDriver,
    RetryOptions,
    SqliteStorageCluster,
    StorageCoordinator,
)
from repro.workload.trace import Workload
from repro.workloads import TpccConfig, generate_tpcc


@dataclass
class StoragePointReport:
    """One (strategy, partition count) deployment under the chaos schedule."""

    label: str
    strategy: str
    num_partitions: int
    #: traffic accounting (deterministic given the interleaving-independent
    #: audits; individual counts like fallbacks may vary run to run).
    total: int = 0
    committed: int = 0
    aborted: int = 0
    write_fast_fails: int = 0
    read_fallbacks: int = 0
    in_doubt_completed: int = 0
    distributed_fraction: float = 0.0
    #: chaos accounting.
    kills_planned: int = 0
    kills_fired: int = 0
    restarts: int = 0
    #: consistency audits over the SQLite files (must all be zero/True).
    lost_updates: int = 0
    phantom_rows: int = 0
    unreachable_tuples: int = 0
    tuple_conservation: bool = True
    #: runtime lock-order witness (must be zero: every executed acquisition
    #: respected the global sorted order).
    lock_acquisitions: int = 0
    lock_order_out_of_order: int = 0
    #: wall-clock measurements (volatile; excluded from the bench payload).
    wall_s: float = 0.0
    throughput_txn_s: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0

    @property
    def violations(self) -> list[str]:
        """Acceptance failures of this point (empty = pass)."""
        failures = audit_violations(self, f"{self.label}: ")
        if self.kills_fired != self.kills_planned:
            failures.append(
                f"{self.label}: {self.kills_fired}/{self.kills_planned} planned kills fired"
            )
        if self.restarts < self.kills_fired:
            failures.append(
                f"{self.label}: {self.kills_fired} kills but only {self.restarts} restarts"
            )
        if self.committed == 0:
            failures.append(f"{self.label}: no transaction committed")
        if self.committed + self.aborted != self.total:
            failures.append(f"{self.label}: run did not complete every transaction")
        if self.lock_order_out_of_order:
            failures.append(
                f"{self.label}: {self.lock_order_out_of_order} out-of-order "
                "lock acquisition(s) witnessed"
            )
        return failures

    def to_payload(self) -> dict:
        """Deterministic summary for the bench report (no wall-clock fields)."""
        return {
            "label": self.label,
            "strategy": self.strategy,
            "num_partitions": self.num_partitions,
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "distributed_fraction": round(self.distributed_fraction, 6),
            "kills_fired": self.kills_fired,
            "restarts": self.restarts,
            "lost_updates": self.lost_updates,
            "phantom_rows": self.phantom_rows,
            "unreachable_tuples": self.unreachable_tuples,
            "tuple_conservation": self.tuple_conservation,
            "lock_order_out_of_order": self.lock_order_out_of_order,
        }


@dataclass
class StorageResilienceReport:
    """Outcome of the full storage-resilience sweep."""

    seed: int
    points: list[StoragePointReport] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        """Every acceptance failure across the sweep's points."""
        failures: list[str] = []
        for point in self.points:
            failures.extend(point.violations)
        return failures

    def to_payload(self) -> dict:
        """Deterministic summary of the sweep (no wall-clock fields)."""
        return {
            "seed": self.seed,
            "points": [point.to_payload() for point in self.points],
            "violations": self.violations,
        }


def _run_point(
    label: str,
    strategy_name: str,
    num_partitions: int,
    seed: int,
    warehouses: int,
    training_transactions: int,
    live_transactions: int,
    num_clients: int,
    directory: Path,
    retry_options: RetryOptions,
) -> StoragePointReport:
    """Deploy one (strategy, k) point, drive it through the kills, audit it."""
    # A fresh bundle per point: the oracle database is mutated by the
    # committed traffic, so points must not share it.
    config = TpccConfig(
        warehouses=warehouses,
        districts_per_warehouse=2,
        customers_per_district=8,
        items=40,
        seed=seed,
    )
    bundle = generate_tpcc(
        config, num_transactions=training_transactions + live_transactions
    )
    training = Workload(
        f"{bundle.name}-train", bundle.workload.transactions[:training_transactions]
    )
    live = bundle.workload.transactions[training_transactions:]
    database = bundle.database

    if strategy_name == "schism":
        run = Pipeline(SchismOptions(num_partitions=num_partitions)).run(
            database, training
        )
        plan = run.plan(created_by="experiments.storage_resilience", workload=bundle.name)
        strategy = plan.deployment_strategy("hash")
        lookup_table = build_lookup_table(strategy.assignment)
    else:
        from repro.core.strategies import HashPartitioning

        strategy = HashPartitioning(num_partitions)
        lookup_table = None
    router = Router(strategy, database.schema, lookup_table)

    # Two kills per point: an early one on partition 0 and a mid-run one on
    # the last partition, pinned to cluster-wide commit counts — trigger
    # points the thread interleaving cannot move.
    faults = FaultPlan(
        seed=seed,
        worker_kills=(
            WorkerKill(partition=0, at_commit=max(3, live_transactions // 5)),
            WorkerKill(
                partition=num_partitions - 1, at_commit=max(6, live_transactions // 2)
            ),
        ),
    )
    injector = faults.build()
    point = StoragePointReport(
        label=label,
        strategy=strategy_name,
        num_partitions=num_partitions,
        kills_planned=len(faults.worker_kills),
    )

    cluster = SqliteStorageCluster.from_database(
        directory / label, database, strategy
    ).start()
    try:
        coordinator = StorageCoordinator(
            cluster,
            router,
            oracle=database,
            retry_options=retry_options,
            seed=seed,
        )
        # Runtime lock-order witness: certify that the interleaving this run
        # actually executed never acquired tokens out of global sorted order
        # (the static lock-order pass proves the call sites; this proves the
        # traffic).
        witness = WitnessedLockManager(coordinator.locks)
        coordinator.locks = witness

        def on_commit(commits: int) -> None:
            for kill in injector.due_worker_kills(commits):
                cluster.kill_worker(kill.partition)

        driver = ClosedLoopDriver(
            coordinator, num_clients=num_clients, on_commit=on_commit
        )
        report = driver.run(live, txn_id_prefix=f"{label}-txn")
    finally:
        cluster.close()

    point.total = report.total
    point.committed = report.committed
    point.aborted = report.aborted
    point.write_fast_fails = report.write_fast_fails
    point.read_fallbacks = report.read_fallbacks
    point.in_doubt_completed = report.in_doubt_completed
    point.distributed_fraction = report.distributed_fraction
    point.kills_fired = injector.statistics.workers_killed
    point.restarts = cluster.restart_count()
    point.lock_acquisitions = witness.acquisitions
    point.lock_order_out_of_order = witness.out_of_order
    point.wall_s = report.wall_s
    point.throughput_txn_s = report.throughput_txn_s
    point.latency_p50_ms = report.latency_quantile(0.50)
    point.latency_p99_ms = report.latency_quantile(0.99)
    (
        point.lost_updates,
        point.phantom_rows,
        point.unreachable_tuples,
        point.tuple_conservation,
    ) = audit_against_oracle(sqlite_rows(cluster), router.placement_of, database)
    return point


def run_storage_resilience(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 200,
    live_transactions: int = 80,
    num_clients: int = 4,
    partition_counts: tuple[int, ...] = (2, 4),
    directory: str | Path | None = None,
    retry_options: RetryOptions | None = None,
) -> StorageResilienceReport:
    """Run the storage-resilience sweep: (schism, hash) x ``partition_counts``.

    SQLite files live under ``directory`` (a fresh temporary directory when
    omitted, removed afterwards).  Every point endures two seeded worker
    kills; the report's :attr:`~StorageResilienceReport.violations` is the
    CI gate.
    """
    retry_options = retry_options or RetryOptions(timeout_ms=500, max_retries=4)
    report = StorageResilienceReport(seed=seed)
    with trace_span("experiment.storage_resilience", seed=seed, warehouses=warehouses):
        cleanup = None
        if directory is None:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-storage-")
            directory = cleanup.name
        try:
            base = Path(directory)
            for num_partitions in partition_counts:
                for strategy_name in ("schism", "hash"):
                    label = f"{strategy_name}-k{num_partitions}"
                    report.points.append(
                        _run_point(
                            label,
                            strategy_name,
                            num_partitions,
                            seed,
                            warehouses,
                            training_transactions,
                            live_transactions,
                            num_clients,
                            base,
                            retry_options,
                        )
                    )
        finally:
            if cleanup is not None:
                cleanup.cleanup()
    return report


def format_storage_resilience(report: StorageResilienceReport) -> str:
    """Human-readable table of the sweep (wall-clock columns marked volatile)."""
    lines = [
        f"Storage resilience under process kills (seed {report.seed})",
        "",
        f"{'point':<12} {'k':>2} {'txns':>5} {'commit':>6} {'abort':>5} "
        f"{'dist%':>6} {'kills':>5} {'restarts':>8} {'lost':>4} {'unreach':>7} {'conserved':>9}",
    ]
    for point in report.points:
        lines.append(
            f"{point.label:<12} {point.num_partitions:>2} {point.total:>5} "
            f"{point.committed:>6} {point.aborted:>5} "
            f"{point.distributed_fraction:>6.1%} {point.kills_fired:>5} "
            f"{point.restarts:>8} {point.lost_updates:>4} "
            f"{point.unreachable_tuples:>7} {str(point.tuple_conservation):>9}"
        )
    lines.append("")
    lines.append("wall-clock (volatile, machine-dependent):")
    for point in report.points:
        lines.append(
            f"  {point.label:<12} {point.throughput_txn_s:>8.1f} txn/s   "
            f"p50 {point.latency_p50_ms:>7.1f} ms   p99 {point.latency_p99_ms:>7.1f} ms   "
            f"fallbacks {point.read_fallbacks}  fast-fails {point.write_fast_fails}  "
            f"in-doubt {point.in_doubt_completed}"
        )
    lines.append("")
    if report.violations:
        lines.append("VIOLATIONS:")
        lines.extend(f"  {violation}" for violation in report.violations)
    else:
        lines.append(
            "audits clean: zero lost updates, zero unreachable tuples, "
            "every killed worker restarted"
        )
    return "\n".join(lines)
