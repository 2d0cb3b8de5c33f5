"""StorageDeployment: what a hand-wired copy had to remember holds by construction."""

from __future__ import annotations

import pytest

from repro.analysis.witness import WitnessedLockManager
from repro.core.strategies import hash_home
from repro.online.migration import MemoryJournalSink
from repro.pipeline import Pipeline, SchismOptions
from repro.storage import StorageDeployment
from repro.workloads import TpccConfig, generate_tpcc

pytestmark = pytest.mark.storage


@pytest.fixture
def deployment(tmp_path):
    """A Schism-planned 2-partition TPC-C deployment on real workers (a
    read-only workload plans replication, which a resize leaves in place)."""
    config = TpccConfig(
        warehouses=2, districts_per_warehouse=1, customers_per_district=5, items=10
    )
    bundle = generate_tpcc(config, num_transactions=60)
    plan = (
        Pipeline(SchismOptions(num_partitions=2))
        .run(bundle.database, bundle.workload)
        .plan(workload=bundle.name)
    )
    with StorageDeployment.start(
        plan.deployment_strategy("hash"), bundle.database, tmp_path / "cluster"
    ) as deployment:
        yield deployment


def test_resize_to_the_current_partition_count_is_rejected(deployment):
    """Before this check a same-k "resize" was planned like any other — every
    singleton re-homed to its hash home at the unchanged k, i.e. as many
    copies + drops as the tuples below, throwing the Schism placement away."""
    sink = MemoryJournalSink()
    with pytest.raises(ValueError, match="resize to the current partition count is a no-op"):
        deployment.begin_resize(2, migration_id="same-k", sink=sink)
    assert sink.writes == 0
    locations = deployment._backend("probe").tuple_locations_map()
    would_move = [t for t, resident in locations.items() if hash_home(t, 2) != resident]
    assert would_move, "the rejected plan would have been a re-hash, not a no-op"


def test_a_resize_runs_under_the_coordinators_locks_router_and_the_journals_id(deployment):
    witness = WitnessedLockManager(deployment.coordinator.locks)
    deployment.coordinator.locks = witness  # installed after start, as the experiments do
    sink = MemoryJournalSink()
    session = deployment.begin_resize(3, migration_id="grow", sink=sink, batch_size=16)
    assert sink.load().state == "planned"  # durable before the first step
    backend = session.migrator.cluster
    assert backend.locks is witness
    assert session.migrator.router is deployment.router
    assert backend.migration_id == session.journal.migration_id == "grow"
    session.run_to_completion()
    assert session.journal.state == "completed"
    assert deployment.cluster.num_partitions == 3
    assert witness.acquisitions > 0 and witness.out_of_order == 0
    # a session attached later takes its id from the journal it is handed.
    reloaded = sink.load()
    assert deployment.attach_resize(reloaded, sink=sink).migrator.cluster.migration_id == "grow"
