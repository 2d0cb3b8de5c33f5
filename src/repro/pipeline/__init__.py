"""The staged Schism pipeline and its durable :class:`PartitionPlan` artifact.

Public surface:

* :class:`Pipeline` / :class:`PipelineRun` / :class:`PipelineState` — the
  five paper phases (``extract -> build_graph -> partition -> explain ->
  validate``) as named stages that can be run whole, stopped early, resumed
  from injected artifacts, or re-run one at a time with changed options;
* :class:`SchismOptions` — the one configuration object;
* :class:`PartitionPlan` / :class:`PlanDiff` — the versioned, serializable
  partitioning decision that offline runs produce, online deployments
  consume and re-export, and ``python -m repro`` reads and writes.
"""

from repro.pipeline.config import SchismOptions
from repro.pipeline.plan import (
    KNOWN_STRATEGIES,
    PLAN_FORMAT,
    PLAN_FORMAT_VERSION,
    PartitionPlan,
    PlanDiff,
    PlanFormatError,
    PlanProvenance,
    build_plan,
)
from repro.pipeline.runner import Pipeline, PipelineRun
from repro.pipeline.stages import (
    STAGE_NAMES,
    STAGES,
    PipelineError,
    PipelineState,
    Stage,
    candidate_strategies,
    is_read_mostly,
)

__all__ = [
    "KNOWN_STRATEGIES",
    "PLAN_FORMAT",
    "PLAN_FORMAT_VERSION",
    "PartitionPlan",
    "Pipeline",
    "PipelineError",
    "PipelineRun",
    "PipelineState",
    "PlanDiff",
    "PlanFormatError",
    "PlanProvenance",
    "STAGES",
    "STAGE_NAMES",
    "SchismOptions",
    "Stage",
    "build_plan",
    "candidate_strategies",
    "is_read_mostly",
]
