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
fraction varies.  Wall-clock numbers are inherently volatile and are printed
apart from the deterministic columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.strategies import HashPartitioning
from repro.distributed.faults import FaultPlan, WorkerKill
from repro.experiments.audit import audit_violations
from repro.experiments.chaos import (
    TpccScenario,
    audited_deployment,
    schism_plan,
    scratch_directory,
    storage_run_violations,
    tpcc_scenario,
)
from repro.obs import trace_span
from repro.storage import ClosedLoopDriver


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
    #: wall-clock measurements (volatile; printed apart from the counts).
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
        return failures + storage_run_violations(self, self.kills_fired)


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


def _run_point(
    strategy_name: str,
    num_partitions: int,
    seed: int,
    scenario: TpccScenario,
    num_clients: int,
    directory: Path,
) -> StoragePointReport:
    """Deploy one (strategy, k) point, drive it through the kills, audit it."""
    label = f"{strategy_name}-k{num_partitions}"
    if strategy_name == "schism":
        _, plan = schism_plan(scenario, num_partitions, "experiments.storage_resilience")
        strategy = plan.deployment_strategy("hash")
    else:
        strategy = HashPartitioning(num_partitions)

    # Two kills per point: an early one on partition 0 and a mid-run one on
    # the last partition, pinned to cluster-wide commit counts — trigger
    # points the thread interleaving cannot move.
    live_transactions = len(scenario.live)
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

    with audited_deployment(
        strategy, scenario.database, directory / label, point, seed
    ) as deployment:
        cluster = deployment.cluster

        def on_commit(commits: int) -> None:
            for kill in injector.due_worker_kills(commits):
                cluster.kill_worker(kill.partition)

        driver = ClosedLoopDriver(
            deployment.coordinator, num_clients=num_clients, on_commit=on_commit
        )
        report = driver.run(scenario.live, txn_id_prefix=f"{label}-txn")

    point.total = report.total
    point.committed = report.committed
    point.aborted = report.aborted
    point.write_fast_fails = report.write_fast_fails
    point.read_fallbacks = report.read_fallbacks
    point.in_doubt_completed = report.in_doubt_completed
    point.distributed_fraction = report.distributed_fraction
    point.kills_fired = injector.statistics.workers_killed
    point.restarts = cluster.restart_count()
    point.wall_s = report.wall_s
    point.throughput_txn_s = report.throughput_txn_s
    point.latency_p50_ms = report.latency_quantile(0.50)
    point.latency_p99_ms = report.latency_quantile(0.99)
    return point


def run_storage_resilience(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 200,
    live_transactions: int = 80,
    num_clients: int = 4,
    partition_counts: tuple[int, ...] = (2, 4),
    directory: str | Path | None = None,
) -> StorageResilienceReport:
    """Run the storage-resilience sweep: (schism, hash) x ``partition_counts``.

    SQLite files live under ``directory`` (a fresh temporary directory when
    omitted, removed afterwards).  Every point endures two seeded worker
    kills; the report's :attr:`~StorageResilienceReport.violations` is the
    CI gate.
    """
    report = StorageResilienceReport(seed=seed)
    with (
        trace_span("experiment.storage_resilience", seed=seed, warehouses=warehouses),
        scratch_directory(directory, "repro-storage-") as base,
    ):
        for num_partitions in partition_counts:
            for strategy_name in ("schism", "hash"):
                report.points.append(
                    _run_point(
                        strategy_name,
                        num_partitions,
                        seed,
                        # fresh per point: committed traffic mutates the oracle.
                        tpcc_scenario(
                            seed, warehouses, training_transactions, live_transactions
                        ),
                        num_clients,
                        base,
                    )
                )
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
