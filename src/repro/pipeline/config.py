"""The one options object of the whole system.

:class:`SchismOptions` bundles the per-stage knob dataclasses (graph
construction, partitioner, explainer) with the partition count and the
optional attribute-hashing candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.explain.explainer import ExplainerOptions
from repro.graph.builder import GraphBuildOptions
from repro.graph.partitioner import PartitionerOptions


@dataclass
class SchismOptions:
    """Configuration of a Schism pipeline run."""

    num_partitions: int
    graph: GraphBuildOptions = field(default_factory=GraphBuildOptions)
    partitioner: PartitionerOptions = field(default_factory=PartitionerOptions)
    explainer: ExplainerOptions = field(default_factory=ExplainerOptions)
    #: also evaluate a hash strategy on the given columns per table (optional).
    hash_columns: dict[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
