"""The two real-storage chaos experiments at reduced scale.

CI runs them at full scale through ``repro bench``; these keep the
experiment bodies (scenario, deployment scaffold, kill schedule, audits)
checkable locally.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    format_storage_migration,
    format_storage_resilience,
    run_storage_migration,
    run_storage_resilience,
)

pytestmark = [pytest.mark.storage, pytest.mark.slow]


def test_storage_resilience_survives_worker_kills(tmp_path):
    report = run_storage_resilience(
        seed=0,
        training_transactions=120,
        live_transactions=40,
        num_clients=2,
        partition_counts=(2,),
        directory=tmp_path,
    )
    assert report.violations == []
    assert [point.label for point in report.points] == ["schism-k2", "hash-k2"]
    for point in report.points:
        assert (point.total, point.committed, point.aborted) == (40, 40, 0)
        assert point.kills_fired == 2 and point.restarts >= 2
        assert point.lock_acquisitions > 0
        # an explicit directory keeps the audited files.
        assert (tmp_path / point.label / "partition-0.sqlite").exists()
    schism, hashed = report.points
    assert schism.distributed_fraction < hashed.distributed_fraction
    assert "audits clean" in format_storage_resilience(report)


def test_storage_migration_resizes_under_kills_deterministically():
    def run():
        return run_storage_migration(
            seed=0,
            training_transactions=120,
            live_transactions=48,
            num_clients=2,
            batch_size=16,
        )

    first, second = run(), run()
    assert first.violations == []
    assert first.final_state == "completed"
    assert first.copies_done == first.copies_planned > 0
    assert first.drops_done == first.drops_planned > 0
    assert (first.worker_kills_fired, first.coordinator_deaths) == (2, 1)
    assert first.migrator_reattaches >= 1
    # the migrator's steps went through the witnessed (shared) lock manager.
    assert first.lock_acquisitions > 2 * first.copies_planned
    assert first.to_payload() == second.to_payload()
    assert "audits clean" in format_storage_migration(first)
