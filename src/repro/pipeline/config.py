"""Configuration and timing records shared by every pipeline stage.

:class:`SchismOptions` is the one options object of the whole system: it
bundles the per-stage knob dataclasses (graph construction, partitioner,
explainer) with the cross-stage policies (default routing for unknown
tuples, validation tie-breaking).
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
    #: policy for tuples missing from the lookup table: "hash", "replicate",
    #: or "auto" (replicate when the workload is read-mostly, hash otherwise).
    lookup_default_policy: str = "auto"
    #: fallback for tables without range rules: "replicate" or "hash".
    range_fallback: str = "replicate"
    #: absolute tolerance on the distributed fraction for the simplicity tie-break.
    tie_tolerance: float = 0.01
    #: relative tolerance serving the same purpose (see validate_strategies).
    relative_tie_tolerance: float = 0.10
    #: reject candidates whose per-partition load imbalance (max/mean) exceeds this.
    max_load_imbalance: float = 1.6
    #: also evaluate a hash strategy on the given columns per table (optional).
    hash_columns: dict[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.lookup_default_policy not in ("hash", "replicate", "auto"):
            raise ValueError("lookup_default_policy must be 'hash', 'replicate' or 'auto'")
        if self.range_fallback not in ("replicate", "hash"):
            raise ValueError("range_fallback must be 'replicate' or 'hash'")


#: stage name (as the pipeline runner knows it) -> PhaseTimings field.
STAGE_TIMING_FIELDS: dict[str, str] = {
    "extract": "extraction",
    "build_graph": "graph_build",
    "partition": "partitioning",
    "explain": "explanation",
    "validate": "validation",
}


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each pipeline phase.

    A thin provenance view over the telemetry layer's one timing code path:
    the pipeline runner measures each stage with a
    :class:`~repro.obs.clock.Stopwatch` and deposits the reading here via
    :meth:`record` (stages no longer time themselves).
    """

    extraction: float = 0.0
    graph_build: float = 0.0
    partitioning: float = 0.0
    explanation: float = 0.0
    validation: float = 0.0

    def record(self, stage_name: str, seconds: float) -> None:
        """Store the measured seconds of one pipeline stage."""
        field_name = STAGE_TIMING_FIELDS.get(stage_name)
        if field_name is None:
            raise ValueError(f"unknown pipeline stage {stage_name!r}")
        setattr(self, field_name, seconds)

    @property
    def total(self) -> float:
        """Total pipeline time (all five phases, extraction included)."""
        return (
            self.extraction
            + self.graph_build
            + self.partitioning
            + self.explanation
            + self.validation
        )

    def as_dict(self) -> dict[str, float]:
        """Per-phase seconds plus the total, for plan provenance."""
        return {
            "extraction": self.extraction,
            "graph_build": self.graph_build,
            "partitioning": self.partitioning,
            "explanation": self.explanation,
            "validation": self.validation,
            "total": self.total,
        }
