"""The public surface: every exported name resolves, no knob creeps back."""

import copy
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
import repro.storage
from repro.catalog.tuples import TupleId
from repro.explain.explainer import ExplainerOptions
from repro.graph.builder import GraphBuildOptions
from repro.graph.partitioner import PartitionerOptions
from repro.online.controller import OnlineOptions
from repro.online.migration import MigrationJournal, MigrationPlan, MigrationStep
from repro.online.monitor import MonitorOptions
from repro.online.policy import ElasticOptions, PacingOptions
from repro.online.repartitioner import RepartitionOptions
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.storage.retry import RetryOptions
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

#: the 16 planning options that became constants: where a plan written
#: before that carries them under ``provenance.options`` (four of them one
#: level further down, in the explainer's removed ``tree_options`` bundle).
REMOVED_PLANNING_KEYS = {
    (): {
        "lookup_default_policy": "auto",
        "range_fallback": "replicate",
        "tie_tolerance": 0.01,
        "relative_tie_tolerance": 0.1,
        "max_load_imbalance": 1.6,
    },
    ("graph",): {
        "min_accesses_for_replication": 2,
        "blanket_statement_threshold": 100,
        "min_tuple_accesses": 1,
        "replication_epsilon": 0.1,
    },
    ("explainer",): {
        "min_accuracy": 0.5,
        "folds": 5,
        "tree_options": {
            "max_depth": 12,
            "min_samples_leaf": 1,
            "min_samples_split": 2,
            "min_gain_ratio": 0.001,
            "pruning_confidence": 0.25,
            "max_thresholds": 64,
            "prune": True,
        },
    },
}


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.online", "repro.storage", "repro.engine", "repro.core", "repro.explain"],
)
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
        module.NoSuchName


#: run in a fresh interpreter, where no import made by the test session can
#: hide one the worker would pay for.
_IMPORT_CLOSURE_SNIPPET = """
import sys

HEAVY = ("graph", "online", "pipeline", "engine", "explain", "core", "routing",
         "workloads", "experiments", "distributed", "analysis")

def heavy_modules():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "numpy"
        or (name.startswith("repro.") and name.split(".")[1] in HEAVY)
    )

import repro
assert heavy_modules() == [], heavy_modules()
import repro.storage.worker
assert heavy_modules() == [], heavy_modules()
ours = sorted(name for name in sys.modules if name.split(".")[0] == "repro")
assert len(ours) <= 25, ours  # 22 today; 79 with eager package __init__s

from repro import Pipeline
from repro.storage import StorageCoordinator
assert Pipeline.__module__.startswith("repro.pipeline")
assert StorageCoordinator.__module__ == "repro.storage.coordinator"
assert set(repro.__all__) <= set(dir(repro))
assert set(repro.storage.__all__) <= set(dir(repro.storage))
"""


def test_a_worker_imports_only_its_store():
    """A spawned partition worker boots without numpy or the planner.

    The ``repro`` and ``repro.storage`` package ``__init__``s re-export
    lazily; an eager one would pull the whole system into every worker.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLOSURE_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(root),
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("first", ["repro.routing", "repro.online.monitor", "repro.core.cost"])
def test_no_import_cycle_whichever_module_comes_first(first):
    """The router imports ``repro.core`` and the cost model imports the router.

    ``repro.core`` re-exports lazily, so each of the three imports cleanly as
    the first ``repro`` import of a fresh interpreter, and every name in
    ``repro.core.__all__`` resolves afterwards.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    snippet = (
        f"import {first}\n"
        "import repro.core\n"
        "from repro.core.cost import scoring_router\n"
        "missing = [n for n in repro.core.__all__ if not hasattr(repro.core, n)]\n"
        "assert not missing, missing\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, cwd=str(root)
    )
    assert result.returncode == 0, result.stderr


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

    # The planning-side census: the same for its 16 keys, on both formats.
    version_1 = copy.deepcopy(plan.to_payload())
    version_1["version"] = 1
    del version_1["primary_keys"]
    version_1["provenance"]["timings"] = {"extraction": 0.5, "total": 0.5}
    for payload in (plan.to_payload(), version_1):
        clean = PartitionPlan.from_payload(copy.deepcopy(payload))
        for path, removed in REMOVED_PLANNING_KEYS.items():
            recorded = payload["provenance"]["options"]
            for name in path:
                recorded = recorded[name]
            assert not removed.keys() & recorded.keys()
            recorded.update(removed)
        old = PartitionPlan.from_payload(payload)
        assert old.provenance.options["explainer"]["tree_options"]["max_thresholds"] == 64
        assert old.provenance.options["graph"]["replication_epsilon"] == 0.1
        assert old.provenance.options["range_fallback"] == "replicate"
        assert old.content_fingerprint() == clean.content_fingerprint()
        reloaded = PartitionPlan.loads(old.dumps())
        assert reloaded.dumps() == old.dumps()
        assert reloaded.provenance.options == payload["provenance"]["options"]
        assert reloaded.content_fingerprint() == old.content_fingerprint()


#: every ``*Options`` dataclass under ``src/repro`` except ``PartitionerOptions``
#: (pinned above), field by field; ``tests/test_option_census.py`` checks
#: that some caller turns each one.
PINNED_OPTIONS = [
    (SchismOptions, "num_partitions graph partitioner explainer hash_columns"),
    (
        GraphBuildOptions,
        "replication node_weighting transaction_sample_fraction "
        "tuple_sample_fraction coalesce_tuples seed",
    ),
    (ExplainerOptions, "min_attribute_frequency max_samples_per_table seed"),
    (RetryOptions, "timeout_ms max_retries backoff_base_ms"),
    (
        OnlineOptions,
        "monitor repartition elastic pacing replication_min_read_fraction",
    ),
    (PacingOptions, "abort_rate_budget p99_latency_budget max_steps throttled_steps"),
    (MonitorOptions, "window_size min_window_fill"),
    (
        ElasticOptions,
        "enabled target_rate_per_partition min_partitions max_partitions cooldown_batches",
    ),
    (
        RepartitionOptions,
        "migration_cost_weight migration_budget max_passes imbalance",
    ),
]


@pytest.mark.parametrize("options, names", PINNED_OPTIONS)
def test_online_options_are_exactly_the_knobs_somebody_turns(options, names):
    assert [field.name for field in fields(options)] == names.split()


def test_every_options_class_is_pinned():
    source = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
    )
    assert sorted(re.findall(r"^class (\w+Options)\b", source, re.MULTILINE)) == sorted(
        ["PartitionerOptions", *(options.__name__ for options, _ in PINNED_OPTIONS)]
    )


def test_removed_options_classes_are_gone():
    import repro.explain
    import repro.online

    assert "MaintainerOptions" not in repro.online.__all__
    assert not hasattr(repro.online, "MaintainerOptions")
    assert "DecisionTreeOptions" not in repro.explain.__all__
    assert not hasattr(repro.explain, "DecisionTreeOptions")


def test_only_the_storage_package_wires_a_deployment_or_a_storage_migrator():
    """One path: everything else stands a plan up through ``StorageDeployment``."""
    root = Path(repro.__file__).parent
    hand_wired = re.compile(
        r"StorageCoordinator\(|SqliteStorageCluster\.from_database\(|SqliteMigrationBackend\("
    )
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path.parent != root / "storage"
        and hand_wired.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert "StorageMigrator" not in repro.storage.__all__
    assert not hasattr(repro.storage, "StorageMigrator")
    assert "StorageDeployment" in repro.storage.__all__


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
    payload = MigrationJournal.for_plan(plan, kind="resize", old_num_partitions=2).to_payload()
    assert (payload["lookup_backend"], payload["default_policy"]) == ("dict", "hash")
    payload.update(lookup_backend="bitarray", default_policy="replicate")
    old = MigrationJournal.from_payload(payload)
    assert (old.lookup_backend, old.default_policy) == ("bitarray", "replicate")
    assert MigrationJournal.loads(old.dumps()).dumps() == old.dumps()
    assert old.to_payload() == payload
