"""Schism's core: partitioning strategies, the cost model and validation."""

from __future__ import annotations

import importlib

#: public name -> defining module, imported on first access (PEP 562): the
#: router imports :mod:`repro.core.strategies` through this package, and the
#: cost model imports the router, so an eager import of the cost model here
#: would close a cycle.
_EXPORTS = {
    "CompositePartitioning": "repro.core.strategies",
    "FullReplication": "repro.core.strategies",
    "HashPartitioning": "repro.core.strategies",
    "LookupTablePartitioning": "repro.core.strategies",
    "PartitioningStrategy": "repro.core.strategies",
    "RangePredicatePartitioning": "repro.core.strategies",
    "TablePolicy": "repro.core.strategies",
    "hash_on": "repro.core.strategies",
    "range_on": "repro.core.strategies",
    "replicate": "repro.core.strategies",
    "CostReport": "repro.core.cost",
    "evaluate_strategy": "repro.core.cost",
    "ValidationResult": "repro.core.validation",
    "validate_strategies": "repro.core.validation",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
