"""Live 2→4 resize on the real storage backend, under kills and load.

The chaos experiment for migration on real storage: a Schism-planned TPC-C
:class:`~repro.storage.StorageDeployment` runs on SQLite partition workers
while one of its journaled resize sessions takes the cluster from
``old_partitions`` to ``new_partitions`` *during* closed-loop traffic.  The
fault schedule SIGKILLs two partition workers and the migration coordinator
itself mid-copy; the migration must resume from its durable journal (the
workers from the supervisor's restarts) and the surviving SQLite files must
pass the row-by-row oracle audits of the storage-resilience experiment:
zero lost committed updates, zero phantom rows, zero unreachable tuples,
and exact tuple conservation.

Determinism is a design requirement — CI byte-compares two runs' metric
snapshots — and real thread interleavings are not deterministic, so the
run is shaped to make every **counted** quantity interleaving-independent:

* Live traffic is split into ``rounds`` segments separated by barriers
  (the driver joins its clients between segments).  Migration phase
  *transitions* — window open, routing flip, window close, partition
  drop/complete — only ever execute at a barrier, so the dual-write window
  membership is constant within any round and ``router.dual_writes`` /
  ``storage.transactions`` scopes are pure functions of the round split.
* In-round migration ticks run from the driver's commit hook under a lock,
  and only while the current phase has more than one full batch left —
  the tick that *would* finish a phase is deferred to the next barrier.
  Each tick advances the journal identically no matter which client thread
  runs it, so the journal trajectory depends only on the commit count.
* Worker kills fire at barriers (the :class:`FaultPlan`'s ``at_commit``
  reinterpreted as a barrier index), and the run waits for the supervisor
  to restart the victim before the next round starts — so no client ever
  observes a dead worker and ``storage.retries`` stays at zero.
* The coordinator kill raises :class:`CoordinatorDeath` inside a commit-
  hook tick; ticking stops (the "migration coordinator process" is dead)
  and the next barrier re-attaches a fresh session
  (:meth:`~repro.storage.StorageDeployment.attach_resize`) from the journal
  the sink persisted *before* the kill fired.
* The :class:`~repro.online.policy.MigrationPacer` is wired to the
  driver's live latency/abort stream (``on_outcome``) but constructed
  ``volatile`` and with no SLO budgets — wall-clock-fed histograms stay out
  of the deterministic snapshot and every tick's budget is the full batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.distributed.faults import (
    CoordinatorDeath,
    CoordinatorKill,
    FaultPlan,
    WorkerKill,
)
from repro.experiments.audit import audit_violations
from repro.experiments.chaos import (
    audited_deployment,
    schism_plan,
    scratch_directory,
    storage_run_violations,
    tpcc_scenario,
)
from repro.obs import trace_span
from repro.online.migration import FileJournalSink
from repro.online.policy import MigrationPacer, PacingOptions
from repro.storage import ClosedLoopDriver

#: how long (seconds) a barrier waits for a killed worker's replacement.
RESTART_WAIT_S = 30.0


@dataclass
class StorageMigrationReport:
    """Outcome of one resize-under-chaos run."""

    seed: int
    old_partitions: int
    new_partitions: int
    #: live traffic accounting (summed over the rounds).
    total: int = 0
    committed: int = 0
    aborted: int = 0
    distributed_fraction: float = 0.0
    #: migration accounting (from the final journal).
    final_state: str = "planned"
    copies_planned: int = 0
    drops_planned: int = 0
    copies_done: int = 0
    drops_done: int = 0
    journal_records: int = 0
    ticks: int = 0
    #: chaos accounting.
    worker_kills_planned: int = 0
    worker_kills_fired: int = 0
    coordinator_kills_planned: int = 0
    coordinator_deaths: int = 0
    migrator_reattaches: int = 0
    restarts: int = 0
    #: consistency audits over the surviving SQLite files.
    lost_updates: int = 0
    phantom_rows: int = 0
    unreachable_tuples: int = 0
    tuple_conservation: bool = True
    #: runtime lock-order witness over the shared client/migrator manager
    #: (must be zero: no executed acquisition broke the global sorted order).
    lock_acquisitions: int = 0
    lock_order_out_of_order: int = 0
    #: wall-clock measurements (volatile; excluded from the bench payload).
    wall_s: float = field(default=0.0, metadata={"volatile": True})
    throughput_txn_s: float = field(default=0.0, metadata={"volatile": True})
    latency_p99_ms: float = field(default=0.0, metadata={"volatile": True})

    @property
    def label(self) -> str:
        return f"resize-{self.old_partitions}to{self.new_partitions}"

    @property
    def violations(self) -> list[str]:
        """Acceptance failures (empty = the resize survived the chaos)."""
        failures = []
        if self.final_state != "completed":
            failures.append(f"{self.label}: migration ended {self.final_state!r}")
        if self.copies_done != self.copies_planned:
            failures.append(
                f"{self.label}: {self.copies_done}/{self.copies_planned} copies executed"
            )
        if self.drops_done != self.drops_planned:
            failures.append(
                f"{self.label}: {self.drops_done}/{self.drops_planned} drops executed"
            )
        failures.extend(audit_violations(self, f"{self.label}: "))
        if self.worker_kills_fired != self.worker_kills_planned:
            failures.append(
                f"{self.label}: {self.worker_kills_fired}/{self.worker_kills_planned} "
                "worker kills fired"
            )
        if self.coordinator_deaths != self.coordinator_kills_planned:
            failures.append(
                f"{self.label}: {self.coordinator_deaths}/{self.coordinator_kills_planned} "
                "coordinator kills fired"
            )
        if self.coordinator_deaths and not self.migrator_reattaches:
            failures.append(f"{self.label}: coordinator died but never re-attached")
        return failures + storage_run_violations(self, self.worker_kills_fired)

    def to_payload(self) -> dict:
        """Deterministic summary for the bench report (no wall-clock fields)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "old_partitions": self.old_partitions,
            "new_partitions": self.new_partitions,
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "distributed_fraction": round(self.distributed_fraction, 6),
            "final_state": self.final_state,
            "copies_planned": self.copies_planned,
            "drops_planned": self.drops_planned,
            "copies_done": self.copies_done,
            "drops_done": self.drops_done,
            "journal_records": self.journal_records,
            "worker_kills_fired": self.worker_kills_fired,
            "coordinator_deaths": self.coordinator_deaths,
            "migrator_reattaches": self.migrator_reattaches,
            "restarts": self.restarts,
            "lost_updates": self.lost_updates,
            "phantom_rows": self.phantom_rows,
            "unreachable_tuples": self.unreachable_tuples,
            "tuple_conservation": self.tuple_conservation,
            "lock_order_out_of_order": self.lock_order_out_of_order,
            "violations": self.violations,
        }


def _split_rounds(transactions: list, rounds: int) -> list[list]:
    """Split the live slice into ``rounds`` near-equal contiguous segments."""
    size, remainder = divmod(len(transactions), rounds)
    segments, start = [], 0
    for index in range(rounds):
        end = start + size + (1 if index < remainder else 0)
        segments.append(transactions[start:end])
        start = end
    return segments


def run_storage_migration(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 200,
    live_transactions: int = 96,
    num_clients: int = 4,
    old_partitions: int = 2,
    new_partitions: int = 4,
    rounds: int = 4,
    batch_size: int = 4,
    coordinator_kill_record: int = 5,
    directory: str | Path | None = None,
) -> StorageMigrationReport:
    """Resize a live Schism-deployed TPC-C cluster under the kill schedule.

    SQLite files (and the migration journal) live under ``directory`` — a
    fresh temporary directory when omitted, removed afterwards.  The
    report's :attr:`~StorageMigrationReport.violations` is the CI gate.
    """
    old_k, new_k = old_partitions, new_partitions
    report = StorageMigrationReport(
        seed=seed,
        old_partitions=old_k,
        new_partitions=new_k,
        worker_kills_planned=2,
        coordinator_kills_planned=1,
    )
    faults = FaultPlan(
        seed=seed,
        coordinator_kills=(CoordinatorKill(at_record=coordinator_kill_record),),
        # at_commit doubles as the *barrier index* here: kill partition 0
        # after round 1 and the highest new partition after round 2.
        worker_kills=(
            WorkerKill(partition=0, at_commit=1),
            WorkerKill(partition=new_k - 1, at_commit=2),
        ),
    )
    injector = faults.build()
    pacer = MigrationPacer(
        PacingOptions(max_steps=batch_size, throttled_steps=max(1, batch_size // 2)),
        volatile=True,
    )
    with (
        trace_span(
            "experiment.storage_migration", seed=seed, old_partitions=old_k, new_partitions=new_k
        ),
        scratch_directory(directory, "repro-storage-mig-") as base,
    ):
        # -- deploy the starting cluster at old_k via the Schism plan --------------
        scenario = tpcc_scenario(seed, warehouses, training_transactions, live_transactions)
        _, plan = schism_plan(scenario, old_k, "experiments.storage_migration")
        with audited_deployment(
            plan.deployment_strategy("hash"), scenario.database, base / "cluster", report, seed
        ) as deployment:
            cluster = deployment.cluster
            started = time.monotonic()

            # -- plan the resize; every session shares the sink, pacer and injector ----
            sink = FileJournalSink(base / "resize.journal")
            session_options = dict(
                sink=sink, pacer=pacer, batch_size=batch_size, injector=injector
            )
            holder = {
                "session": deployment.begin_resize(
                    new_k, migration_id=f"resize-{old_k}to{new_k}-seed{seed}", **session_options
                ),
                "dead": False,
            }
            report.copies_planned = len(holder["session"].journal.plan.copies)
            report.drops_planned = len(holder["session"].journal.plan.drops)
            tick_lock = threading.Lock()

            def reattach() -> None:
                """Restart the "migration coordinator" from the durable journal."""
                holder["session"] = deployment.attach_resize(sink.load(), **session_options)
                holder["dead"] = False
                report.migrator_reattaches += 1

            def in_round_safe(j) -> bool:
                """True while a tick cannot cross a phase boundary (see module doc)."""
                return (
                    j.state == "copying"
                    and j.copies_done + batch_size < len(j.plan.copies)
                ) or (
                    j.state == "dropping"
                    and j.drops_done + batch_size < len(j.plan.drops)
                )

            def on_commit(_commits: int) -> None:
                with tick_lock:
                    session = holder["session"]
                    if holder["dead"] or session.done:
                        return
                    if not in_round_safe(session.journal):
                        return
                    try:
                        session.tick()
                    except CoordinatorDeath:
                        holder["dead"] = True

            def barrier(index: int) -> None:
                """Between rounds: fire kills, revive the migrator, cross phases."""
                for kill in injector.due_worker_kills(index):
                    cluster.kill_worker(kill.partition)
                    deadline = time.monotonic() + RESTART_WAIT_S
                    while not cluster.supervisor.ping(kill.partition):
                        if time.monotonic() > deadline:
                            raise RuntimeError(
                                f"partition {kill.partition} not restarted at barrier {index}"
                            )
                        time.sleep(0.02)
                if holder["dead"]:
                    reattach()
                # Advance through any phase transition (window open, flip, window
                # close, resize finalisation) while no client traffic is flowing,
                # stopping as soon as the journal is back in mid-phase territory.
                while True:
                    session = holder["session"]
                    if session.done or in_round_safe(session.journal):
                        return
                    try:
                        session.tick(idle=True)
                    except CoordinatorDeath:
                        reattach()

            driver = ClosedLoopDriver(
                deployment.coordinator,
                num_clients=num_clients,
                on_commit=on_commit,
                on_outcome=pacer.record,
            )

            # -- the run: barrier, round, barrier, round, ... then drain ---------------
            barrier(0)  # opens the dual-write window before any live traffic
            for index, segment in enumerate(_split_rounds(scenario.live, rounds)):
                round_report = driver.run(segment, txn_id_prefix=f"live-r{index}")
                report.total += round_report.total
                report.committed += round_report.committed
                report.aborted += round_report.aborted
                report.distributed_fraction += round_report.distributed_total
                report.latency_p99_ms = max(
                    report.latency_p99_ms, round_report.latency_quantile(0.99)
                )
                barrier(index + 1)
            while not holder["session"].done:
                try:
                    holder["session"].run_to_completion()
                except CoordinatorDeath:
                    reattach()

            final = holder["session"].journal
            report.final_state = final.state
            report.copies_done = final.copies_done
            report.drops_done = final.drops_done
            report.journal_records = final.records
            report.ticks = holder["session"].ticks
            report.distributed_fraction = (
                report.distributed_fraction / report.total if report.total else 0.0
            )
            report.worker_kills_fired = injector.statistics.workers_killed
            report.coordinator_deaths = injector.statistics.coordinator_deaths
            report.restarts = cluster.restart_count()
            report.wall_s = time.monotonic() - started
            report.throughput_txn_s = (
                report.committed / report.wall_s if report.wall_s > 0 else 0.0
            )
    return report


def format_storage_migration(report: StorageMigrationReport) -> str:
    """Human-readable summary (wall-clock lines marked volatile)."""
    lines = [
        f"Live resize on real storage: {report.old_partitions} -> "
        f"{report.new_partitions} partitions under kills (seed {report.seed})",
        "",
        f"  migration : {report.final_state}  "
        f"copies {report.copies_done}/{report.copies_planned}  "
        f"drops {report.drops_done}/{report.drops_planned}  "
        f"journal records {report.journal_records}  ticks {report.ticks}",
        f"  traffic   : {report.total} txns  {report.committed} committed  "
        f"{report.aborted} aborted  distributed {report.distributed_fraction:.1%}",
        f"  chaos     : {report.worker_kills_fired} worker kills  "
        f"{report.coordinator_deaths} coordinator deaths  "
        f"{report.migrator_reattaches} re-attaches  {report.restarts} restarts",
        f"  audits    : lost {report.lost_updates}  phantom {report.phantom_rows}  "
        f"unreachable {report.unreachable_tuples}  "
        f"conserved {report.tuple_conservation}",
        "",
        f"  wall-clock (volatile): {report.wall_s:.2f}s  "
        f"{report.throughput_txn_s:.1f} txn/s  p99 {report.latency_p99_ms:.1f} ms",
        "",
    ]
    if report.violations:
        lines.append("VIOLATIONS:")
        lines.extend(f"  {violation}" for violation in report.violations)
    else:
        lines.append(
            "audits clean: resize completed across two worker kills and a "
            "coordinator kill with zero lost updates, phantoms, or "
            "unreachable tuples"
        )
    return "\n".join(lines)
