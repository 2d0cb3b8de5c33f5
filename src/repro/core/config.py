"""The pre-baked option bundle the CLI and the benchmark run with."""

from __future__ import annotations

from repro.explain.explainer import ExplainerOptions
from repro.graph.builder import GraphBuildOptions
from repro.graph.partitioner import PartitionerOptions
from repro.pipeline.config import SchismOptions


def default_options(num_partitions: int, seed: int = 0) -> SchismOptions:
    """Sensible defaults for laptop-scale workloads (full trace, no sampling)."""
    return SchismOptions(
        num_partitions=num_partitions,
        graph=GraphBuildOptions(seed=seed),
        partitioner=PartitionerOptions(seed=seed),
        explainer=ExplainerOptions(seed=seed),
    )
