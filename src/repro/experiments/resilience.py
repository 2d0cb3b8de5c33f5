"""Crash-safe live migration under faults: the resilience experiment.

An elastic 2 -> 4 resize runs **while** a sustained TPC-C workload commits
through the 2PC coordinator, and a seeded
:class:`~repro.distributed.faults.FaultPlan` makes the run hostile: a
partition crashes mid-migration, messages drop with some probability, and
the migration coordinator is killed at chosen journal records (the journal
bytes survive in a sink; a fresh session resumes from them).  A single-node
**oracle** database receives every committed transaction, so at the end the
cluster can be audited row by row:

* **zero lost updates** — every replica of every tuple equals the oracle row
  (a dual-write window miss, a stale restored replica, or a dropped journal
  step would each show up here);
* **zero unreachable tuples** — every stored tuple is resident at its routed
  placement, through the resize's modulus change and all crash/resume
  cycles;
* **tuple conservation** — the cluster stores exactly the oracle's tuple
  set: nothing vanished, nothing was duplicated into a phantom;
* **pacing reacted** — the SLO pacer demonstrably paused/throttled the
  migration while the fault-driven abort rate exceeded its budget, and the
  p99 latency proxy stayed bounded relative to quiet traffic;
* **byte determinism** — the whole scenario is a pure function of its seed:
  run twice, the final journal bytes and every counter must match exactly.

Wired into ``python -m repro bench --experiment resilience``; the
chaos-smoke CI job runs it over a seed matrix and fails on any lost-update
or unreachable-tuple count above zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field

from repro.distributed.coordinator import TwoPhaseCommitCoordinator
from repro.distributed.faults import (
    CoordinatorDeath,
    CoordinatorKill,
    FaultPlan,
    NodeCrash,
)
from repro.experiments.audit import audit_against_oracle, audit_violations, cluster_rows
from repro.experiments.chaos import TpccScenario, schism_plan, tpcc_scenario
from repro.online import start_online
from repro.online.controller import OnlineOptions
from repro.online.migration import MemoryJournalSink
from repro.online.monitor import MonitorOptions
from repro.online.policy import MigrationPacer, PacingOptions
from repro.obs import trace_span
from repro.online.repartitioner import RepartitionOptions


@dataclass
class ResilienceReport:
    """Outcome of one crash-safe-migration-under-faults run."""

    seed: int
    initial_partitions: int
    final_partitions: int
    #: live-traffic accounting (committed / aborted attempts / gave up).
    transactions_committed: int = 0
    transactions_aborted: int = 0
    retries_exhausted: int = 0
    #: faults that actually fired.
    coordinator_deaths: int = 0
    resumes: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    migration_steps_deferred: int = 0
    #: consistency audits (the acceptance criteria; all must be zero/True).
    lost_updates: int = 0
    phantom_rows: int = 0
    unreachable_tuples: int = 0
    tuple_conservation: bool = True
    #: pacing telemetry (pauses + throttles must be positive: the abort-rate
    #: budget is sized so the injected faults push traffic over it).
    pacer_pauses: int = 0
    pacer_throttles: int = 0
    pacer_resumes: int = 0
    p99_latency_quiet: float = 0.0
    p99_latency_during: float = 0.0
    #: journal accounting.
    journal_records: int = 0
    migration_copies: int = 0
    migration_drops: int = 0
    #: sha256 over the final journal bytes and every field of this report as
    #: it stands when the scenario ends; two runs with the same seed must
    #: produce the same fingerprint.
    fingerprint: str = ""
    #: set by :func:`run_resilience` after replaying the scenario.
    deterministic: bool = False
    kill_records: tuple[int, ...] = field(default_factory=tuple)

    @property
    def violations(self) -> list[str]:
        """The acceptance criteria this run failed (empty = pass)."""
        failures = audit_violations(self)
        if self.final_partitions != 4:
            failures.append(f"resize did not complete (k={self.final_partitions})")
        if self.coordinator_deaths == 0:
            failures.append("no coordinator death was injected")
        if self.resumes < self.coordinator_deaths:
            failures.append("a coordinator death was not resumed")
        if self.pacer_pauses + self.pacer_throttles == 0:
            failures.append("pacing never reacted")
        if not self.deterministic:
            failures.append("run is not byte-deterministic")
        return failures


def _p99(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, -(-len(ordered) * 99 // 100) - 1)]


def _run_scenario(
    seed: int,
    warehouses: int,
    training_transactions: int,
    live_transactions: int,
    migration_start: int,
) -> ResilienceReport:
    """One deterministic pass of the hostile-resize scenario."""
    with trace_span(
        "experiment.resilience", seed=seed, warehouses=warehouses
    ):
        return _run_scenario_traced(
            seed,
            tpcc_scenario(seed, warehouses, training_transactions, live_transactions),
            migration_start,
        )


def _run_scenario_traced(
    seed: int, scenario: TpccScenario, migration_start: int
) -> ResilienceReport:
    database, live = scenario.database, scenario.live
    run, plan = schism_plan(scenario, 2, "experiments.resilience")
    options = OnlineOptions(
        monitor=MonitorOptions(window_size=400, min_window_fill=100),
        repartition=RepartitionOptions(migration_cost_weight=0.25, imbalance=0.10),
        pacing=PacingOptions(
            abort_rate_budget=0.10,
            p99_latency_budget=500.0,
            max_steps=8,
            throttled_steps=2,
        ),
    )
    controller = start_online(
        plan, database, options, warm_up_trace=run.state.training_trace
    )
    # ``start_online`` copied every row into the cluster's partitions, so the
    # source database is an independent single-node replica of the initial
    # state: committing every successful transaction to it too makes it the
    # oracle the final audit compares against.
    oracle = database

    faults = FaultPlan(
        seed=seed,
        # One storage partition goes dark mid-migration; copies and drops
        # touching it defer, transactions on it abort-and-retry past the
        # window (each attempt advances the clock).  The outage is the
        # *transient* SLO pressure: the abort rate spikes over the pacer's
        # budget (pause), then healthy post-outage commits slide the window
        # back under it (throttle, then resume) so the migration completes.
        node_crashes=(NodeCrash(partition=1, at_tick=migration_start + 30, duration=60),),
        # The migration coordinator dies twice, at an early and a late
        # journal record; both times the journal sink has the bytes.
        coordinator_kills=(CoordinatorKill(at_record=3), CoordinatorKill(at_record=11)),
        message_drop_rate=0.0005,
        message_delay_rate=0.02,
        message_delay=4.0,
    )
    injector = faults.build()
    coordinator = TwoPhaseCommitCoordinator(controller.cluster, controller.router, injector)
    pacer = MigrationPacer(options.pacing)
    sink = MemoryJournalSink()

    report = ResilienceReport(
        seed=seed,
        initial_partitions=controller.num_partitions,
        final_partitions=controller.num_partitions,
        kill_records=tuple(kill.at_record for kill in faults.coordinator_kills),
    )
    quiet_latencies: list[float] = []
    during_latencies: list[float] = []
    session = None

    def tick_migration(idle: bool = False) -> None:
        nonlocal session
        if session is None or session.done:
            return
        try:
            session.tick(idle=idle)
        except CoordinatorDeath:
            report.coordinator_deaths += 1
            # The journal record that the kill targeted was persisted before
            # the death fired: resume a fresh session from the sink's bytes.
            session = controller.attach_session(
                sink.load(), sink=sink, pacer=pacer, injector=injector
            )
            report.resumes += 1

    for index, transaction in enumerate(live):
        if index == migration_start:
            session = controller.begin_resize(
                4, sink=sink, pacer=pacer, injector=injector, batch_size=8
            )
        # The pacer observes every attempt (aborted retries included): the
        # final outcome alone would hide the abort pressure retries absorb.
        outcome = coordinator.execute_with_retries(transaction, observer=pacer.observe)
        if outcome.aborted:
            report.retries_exhausted += 1
        else:
            for statement in transaction.statements:
                oracle.execute(statement)
            (during_latencies if session is not None and not session.done
             else quiet_latencies).append(outcome.latency)
        tick_migration()
    # Traffic ended; finish the migration with *idle* ticks — there is no
    # live load left to protect, so the pacer releases any pause instead of
    # holding a frozen over-budget window forever.  Faults still apply.
    for _ in range(10_000):
        if session is None or session.done:
            break
        tick_migration(idle=True)

    report.transactions_committed = coordinator.statistics.transactions
    report.transactions_aborted = coordinator.statistics.aborts
    report.messages_dropped = injector.statistics.messages_dropped
    report.messages_delayed = injector.statistics.messages_delayed
    report.final_partitions = controller.num_partitions
    report.pacer_pauses = pacer.pauses
    report.pacer_throttles = pacer.throttles
    report.pacer_resumes = pacer.resumes
    report.p99_latency_quiet = _p99(quiet_latencies)
    report.p99_latency_during = _p99(during_latencies)
    if session is not None:
        report.migration_steps_deferred = session.report.faults_deferred
        report.journal_records = session.journal.records
        # cumulative across crash/resume cycles (a resumed session's own
        # report restarts at zero; the journal cursors do not).
        report.migration_copies = session.journal.copies_done
        report.migration_drops = session.journal.drops_done

    # -- audits ------------------------------------------------------------------------
    (
        report.lost_updates,
        report.phantom_rows,
        report.unreachable_tuples,
        report.tuple_conservation,
    ) = audit_against_oracle(
        cluster_rows(controller.cluster), controller.strategy.partitions_for_tuple, oracle
    )

    digest = hashlib.sha256()
    digest.update((sink.text or "").encode("utf-8"))
    digest.update(repr(astuple(report)).encode("utf-8"))
    report.fingerprint = digest.hexdigest()
    return report


def run_resilience(
    seed: int = 0,
    warehouses: int = 2,
    training_transactions: int = 300,
    live_transactions: int = 400,
    migration_start: int = 50,
) -> ResilienceReport:
    """Run the hostile-resize scenario twice and verify byte determinism.

    The second pass exists purely to prove the whole run — fault draws,
    journal records, crash/resume points, final audits — is a function of
    ``seed``; its report must fingerprint identically to the first.
    """
    first = _run_scenario(
        seed, warehouses, training_transactions, live_transactions, migration_start
    )
    second = _run_scenario(
        seed, warehouses, training_transactions, live_transactions, migration_start
    )
    first.deterministic = first.fingerprint == second.fingerprint
    return first


def format_resilience(report: ResilienceReport) -> str:
    """Render the resilience run as text."""
    lines = [
        "Resilience: 2 -> 4 elastic resize under TPC-C load with injected faults",
        f"  seed {report.seed}: partitions {report.initial_partitions} -> "
        f"{report.final_partitions}",
        f"  traffic: {report.transactions_committed} committed, "
        f"{report.transactions_aborted} aborted attempts "
        f"({report.retries_exhausted} exhausted retries)",
        f"  faults: {report.coordinator_deaths} coordinator deaths "
        f"(resumed {report.resumes}, journal records {report.journal_records}), "
        f"{report.messages_dropped} messages dropped, "
        f"{report.messages_delayed} delayed, "
        f"{report.migration_steps_deferred} migration steps deferred",
        f"  migration: {report.migration_copies} copies, "
        f"{report.migration_drops} drops",
        f"  pacing: {report.pacer_pauses} pauses, {report.pacer_throttles} "
        f"throttles, {report.pacer_resumes} resumes; p99 latency "
        f"{report.p99_latency_quiet:.0f} quiet -> {report.p99_latency_during:.0f} "
        f"during migration",
        f"  audits: {report.lost_updates} lost updates, {report.phantom_rows} "
        f"phantom rows, {report.unreachable_tuples} unreachable tuples, "
        f"conserved={report.tuple_conservation}, "
        f"deterministic={report.deterministic}",
    ]
    violations = report.violations
    lines.append(
        "  PASS" if not violations else "  FAIL: " + "; ".join(violations)
    )
    return "\n".join(lines)
