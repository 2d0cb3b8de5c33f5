"""Schism: workload-driven database replication and partitioning (VLDB 2010).

A pure-Python reproduction of Curino, Jones, Zhang and Madden's Schism
system: it takes a database, a representative OLTP workload, and a number of
partitions, and produces a replication/partitioning strategy that minimises
distributed transactions while keeping partitions balanced.

Typical use::

    from repro import Pipeline, SchismOptions
    from repro.workloads import generate_tpcc

    bundle = generate_tpcc()
    run = Pipeline(SchismOptions(num_partitions=2)).run(bundle.database, bundle.workload)
    plan = run.plan(workload=bundle.name)
    plan.save("plan.json")           # the durable artifact
    print(plan.describe())

or, from a shell::

    python -m repro run --workload tpcc --partitions 2 --out plan.json

A plan deploys as a live, self-adapting system with :func:`start_online`.
"""

from __future__ import annotations

import importlib

__version__ = "2.0.0"

#: public name -> defining module, imported on first access (PEP 562), so a
#: process that needs one corner of the package (a storage worker runs only
#: SQLite) does not load the planner, numpy and the online controller.
_EXPORTS = {
    "CompositePartitioning": "repro.core.strategies",
    "CostReport": "repro.core.cost",
    "Database": "repro.engine.database",
    "FullReplication": "repro.core.strategies",
    "HashPartitioning": "repro.core.strategies",
    "LookupTablePartitioning": "repro.core.strategies",
    "PartitionPlan": "repro.pipeline",
    "PartitioningStrategy": "repro.core.strategies",
    "Pipeline": "repro.pipeline",
    "PipelineRun": "repro.pipeline",
    "PipelineState": "repro.pipeline",
    "PlanDiff": "repro.pipeline",
    "RangePredicatePartitioning": "repro.core.strategies",
    "SchismOptions": "repro.pipeline",
    "Transaction": "repro.workload.trace",
    "Workload": "repro.workload.trace",
    "evaluate_strategy": "repro.core.cost",
    "extract_access_trace": "repro.workload.rwsets",
    "split_workload": "repro.workload.splitter",
    "start_online": "repro.online",
    "validate_strategies": "repro.core.validation",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
