"""Schism's core: partitioning strategies, the cost model and validation."""

from repro.core.strategies import (
    CompositePartitioning,
    FullReplication,
    HashPartitioning,
    LookupTablePartitioning,
    PartitioningStrategy,
    RangePredicatePartitioning,
    TablePolicy,
    hash_on,
    range_on,
    replicate,
)
from repro.core.cost import CostReport, evaluate_strategy
from repro.core.validation import ValidationResult, validate_strategies

__all__ = [
    "CompositePartitioning",
    "CostReport",
    "FullReplication",
    "HashPartitioning",
    "LookupTablePartitioning",
    "PartitioningStrategy",
    "RangePredicatePartitioning",
    "TablePolicy",
    "ValidationResult",
    "evaluate_strategy",
    "hash_on",
    "range_on",
    "replicate",
    "validate_strategies",
]
