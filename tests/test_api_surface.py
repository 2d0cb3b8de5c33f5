"""The public surface: every exported name resolves, no knob creeps back."""

import importlib
from dataclasses import fields

import pytest

from repro.graph.partitioner import PartitionerOptions
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
