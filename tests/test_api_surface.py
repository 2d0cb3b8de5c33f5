"""The public surface: every exported name resolves, no knob creeps back."""

import importlib
from dataclasses import fields

import pytest

from repro.catalog.tuples import TupleId
from repro.graph.partitioner import PartitionerOptions
from repro.online.controller import OnlineOptions
from repro.online.maintainer import MaintainerOptions
from repro.online.migration import MigrationJournal, MigrationPlan, MigrationStep
from repro.online.monitor import MonitorOptions
from repro.online.policy import ElasticOptions, PacingOptions
from repro.online.repartitioner import RepartitionOptions
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.workloads import generate_simplecount

#: options a plan written before the partitioner lost its internal knobs
#: still carries under ``provenance.options.partitioner`` (plus the k-way
#: mode selector, a string).
REMOVED_PARTITIONER_KEYS = {
    "fm_negative_streak": 16,
    "kway_coarse_factor": 20,
    "flat_refine": True,
    "peripheral_seed_trial": True,
    "bisection_carry": 2,
    "two_way_chain_trials": 2,
}


@pytest.mark.parametrize(
    "package", ["repro", "repro.online", "repro.storage", "repro.engine", "repro.core"]
)
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


def test_partitioner_options_are_exactly_the_five_knobs():
    assert [field.name for field in fields(PartitionerOptions)] == [
        "imbalance",
        "coarsen_target",
        "initial_trials",
        "refine_passes",
        "seed",
    ]


def test_plan_with_removed_partitioner_keys_still_loads():
    bundle = generate_simplecount(num_rows=60, num_transactions=80, num_blocks=3, seed=0)
    plan = (
        Pipeline(SchismOptions(num_partitions=2))
        .run(bundle.database, bundle.workload)
        .plan(workload=bundle.name)
    )
    payload = plan.to_payload()
    recorded = payload["provenance"]["options"]["partitioner"]
    assert not REMOVED_PARTITIONER_KEYS.keys() & recorded.keys()
    recorded.update(REMOVED_PARTITIONER_KEYS)
    old = PartitionPlan.from_payload(payload)
    assert old.provenance.options["partitioner"]["bisection_carry"] == 2
    assert old.content_fingerprint() == plan.content_fingerprint()
    assert PartitionPlan.loads(old.dumps()).dumps() == old.dumps()


@pytest.mark.parametrize(
    "options, names",
    [
        (
            OnlineOptions,
            "monitor repartition elastic pacing batch_size "
            "replication_min_read_fraction replication_retention_slack",
        ),
        (
            PacingOptions,
            "abort_window p99_latency_budget abort_rate_budget min_samples "
            "pressure_ratio max_steps throttled_steps backoff_initial backoff_max",
        ),
        (
            MonitorOptions,
            "window_size decay hot_set_size drift_distributed_increase "
            "drift_skew_threshold drift_churn_threshold drift_churn_min_weight_share "
            "drift_churn_share_floor drift_churn_share_lift min_window_fill",
        ),
        (
            MaintainerOptions,
            "decay prune_threshold blanket_transaction_threshold prune_interval",
        ),
        (
            ElasticOptions,
            "enabled target_rate_per_partition grow_hysteresis shrink_hysteresis "
            "min_partitions max_partitions cooldown_batches",
        ),
        (
            RepartitionOptions,
            "migration_cost_weight migration_budget max_passes imbalance",
        ),
    ],
)
def test_online_options_are_exactly_the_knobs_somebody_turns(options, names):
    assert [field.name for field in fields(options)] == names.split()


def test_journal_with_lookup_backend_and_default_policy_still_loads():
    """No caller chooses them any more, but journals on disk carry them."""
    tuple_id = TupleId("usertable", (7,))
    plan = MigrationPlan(
        3,
        copies=[MigrationStep("copy", tuple_id, 0, 2)],
        drops=[MigrationStep("drop", tuple_id, 0)],
        changes=[(tuple_id, frozenset({2}))],
        previous=[(tuple_id, frozenset({0}))],
    )
    payload = MigrationJournal.for_plan(
        plan, kind="resize", flip_mode="swap", old_num_partitions=2
    ).to_payload()
    assert (payload["lookup_backend"], payload["default_policy"]) == ("dict", "hash")
    payload.update(lookup_backend="bitarray", default_policy="replicate")
    old = MigrationJournal.from_payload(payload)
    assert (old.lookup_backend, old.default_policy) == ("bitarray", "replicate")
    assert MigrationJournal.loads(old.dumps()).dumps() == old.dumps()
    assert old.to_payload() == payload
