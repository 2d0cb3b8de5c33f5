"""What the chaos experiments share, so each module holds only its scenario.

``resilience``, ``storage_resilience`` and ``storage_migration`` differ in
their fault schedule, traffic loop and report.  They agree on everything
around that: a small TPC-C bundle split into a training prefix (planned by
the default pipeline) and a live suffix whose commits are mirrored into the
bundle's own database as the oracle; SQLite files in a caller-named or
throw-away directory; a :class:`~repro.storage.StorageDeployment` whose lock
manager is wrapped in the runtime lock-order witness; and the row-by-row
audit of :mod:`repro.experiments.audit` once the workers have stopped.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.analysis.witness import WitnessedLockManager
from repro.core.strategies import PartitioningStrategy
from repro.engine.database import Database
from repro.experiments.audit import audit_against_oracle, sqlite_rows
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.pipeline.runner import PipelineRun
from repro.storage import RetryOptions, StorageDeployment
from repro.workload.trace import Transaction, Workload
from repro.workloads import TpccConfig, generate_tpcc


class TpccScenario(NamedTuple):
    """A TPC-C bundle split for one chaos run (a fresh one per deployment:
    the committed traffic mutates ``database``)."""

    #: the initial state every deployment loads; executing each committed
    #: transaction on it too makes it the single-node oracle of the audit.
    database: Database
    name: str
    training: Workload
    live: list[Transaction]


def tpcc_scenario(
    seed: int, warehouses: int, training_transactions: int, live_transactions: int
) -> TpccScenario:
    """Generate the bundle and split it into a training prefix and a live suffix."""
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
    transactions = bundle.workload.transactions
    return TpccScenario(
        bundle.database,
        bundle.name,
        Workload(f"{bundle.name}-train", transactions[:training_transactions]),
        transactions[training_transactions:],
    )


def schism_plan(
    scenario: TpccScenario, num_partitions: int, created_by: str
) -> tuple[PipelineRun, PartitionPlan]:
    """Plan the scenario's training prefix with the default pipeline."""
    run = Pipeline(SchismOptions(num_partitions=num_partitions)).run(
        scenario.database, scenario.training
    )
    return run, run.plan(created_by=created_by, workload=scenario.name)


#: the coordinator (and migrator) retry policy of every storage chaos run.
CHAOS_RETRY_OPTIONS = RetryOptions(timeout_ms=500, max_retries=4)


@contextmanager
def scratch_directory(directory: str | Path | None, prefix: str) -> Iterator[Path]:
    """``directory`` itself, or a temporary one removed on exit when omitted."""
    if directory is not None:
        yield Path(directory)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as scratch:
        yield Path(scratch)


@contextmanager
def audited_deployment(
    strategy: PartitioningStrategy,
    database: Database,
    directory: Path,
    report,
    seed: int,
) -> Iterator[StorageDeployment]:
    """Stand ``strategy`` up on SQLite with ``database`` as the oracle.

    The coordinator's lock manager is wrapped in the runtime lock-order
    witness *before* any traffic or resize session exists, so client commits
    and migration batches are certified against one acquisition graph (the
    static lock-order pass proves the call sites; this proves the traffic).
    On a clean exit the workers stop, the surviving files are audited row by
    row, and the witness and audit counts land on ``report``.
    """
    with StorageDeployment.start(
        strategy, database, directory, oracle=database, retry_options=CHAOS_RETRY_OPTIONS, seed=seed
    ) as deployment:
        witness = WitnessedLockManager(deployment.coordinator.locks)
        deployment.coordinator.locks = witness
        yield deployment
        report.lock_acquisitions = witness.acquisitions
        report.lock_order_out_of_order = witness.out_of_order
    (
        report.lost_updates,
        report.phantom_rows,
        report.unreachable_tuples,
        report.tuple_conservation,
    ) = audit_against_oracle(
        sqlite_rows(deployment.cluster), deployment.router.placement_of, database
    )


def storage_run_violations(report, kills_fired: int) -> list[str]:
    """The acceptance failures every witnessed storage run checks last: a
    kill the supervisor did not answer, wedged or absent traffic, and any
    lock acquisition the witness saw out of the global order."""
    label = report.label
    failures = []
    if report.restarts < kills_fired:
        failures.append(
            f"{label}: {kills_fired} kills but only {report.restarts} restarts"
        )
    if report.committed == 0:
        failures.append(f"{label}: no transaction committed")
    if report.committed + report.aborted != report.total:
        failures.append(f"{label}: run did not complete every transaction")
    if report.lock_order_out_of_order:
        failures.append(
            f"{label}: {report.lock_order_out_of_order} out-of-order "
            "lock acquisition(s) witnessed"
        )
    return failures
