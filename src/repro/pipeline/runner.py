"""The :class:`Pipeline` orchestrator: run, stop, inject, resume, re-run.

Typical uses::

    from repro.pipeline import Pipeline, SchismOptions

    # Whole chain, one call:
    run = Pipeline(SchismOptions(num_partitions=4)).run(database, training)
    plan = run.plan()
    plan.save("plan.json")

    # Stop after the partition stage (no explanation/validation yet):
    run = pipeline.run(database, training, stop_after="partition")

    # Inject a cached trace, then resume:
    state = pipeline.new_state(database, training, training_trace=cached_trace)
    run = pipeline.resume(state)

    # Re-run one stage with changed options on the same artifacts:
    retuned = Pipeline(new_options)
    retuned.run_stage("partition", run.state)   # invalidates explain/validate
    run = retuned.resume(run.state)             # recomputes only what is stale
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.database import Database
from repro.graph.builder import TupleGraph
from repro.obs import SECONDS_BUCKETS, Stopwatch, get_telemetry
from repro.pipeline.config import SchismOptions
from repro.pipeline.plan import PartitionPlan, build_plan
from repro.pipeline.stages import (
    STAGE_NAMES,
    STAGES,
    STAGES_BY_NAME,
    PipelineError,
    PipelineState,
    Stage,
)
from repro.workload.rwsets import AccessTrace
from repro.workload.trace import Workload


class Pipeline:
    """Composable, resumable staged pipeline over one options bundle.

    The pipeline holds the *configuration*; a :class:`PipelineState` holds
    the *artifacts*.  Keeping them separate is what makes "re-run one stage
    with changed options" a first-class operation: build a new ``Pipeline``
    with the new options and point it at the old state.
    """

    def __init__(self, options: SchismOptions) -> None:
        self.options = options

    # -- state construction -----------------------------------------------------------
    def new_state(
        self,
        database: Database,
        training_workload: Workload | None = None,
        test_workload: Workload | None = None,
        *,
        training_trace: AccessTrace | None = None,
        test_trace: AccessTrace | None = None,
        tuple_graph: TupleGraph | None = None,
    ) -> PipelineState:
        """A fresh state, optionally pre-seeded with cached artifacts.

        A stage whose outputs are already present is skipped by
        :meth:`resume` — injecting ``training_trace`` skips extraction,
        injecting ``tuple_graph`` skips graph construction, and so on.
        """
        return PipelineState(
            database=database,
            training_workload=training_workload,
            test_workload=test_workload,
            training_trace=training_trace,
            test_trace=test_trace,
            tuple_graph=tuple_graph,
        )

    # -- execution --------------------------------------------------------------------
    def run(
        self,
        database: Database,
        training_workload: Workload | None = None,
        test_workload: Workload | None = None,
        *,
        stop_after: str | None = None,
        training_trace: AccessTrace | None = None,
        test_trace: AccessTrace | None = None,
        tuple_graph: TupleGraph | None = None,
    ) -> "PipelineRun":
        """Run the chain from scratch (``stop_after`` names the last stage)."""
        state = self.new_state(
            database,
            training_workload,
            test_workload,
            training_trace=training_trace,
            test_trace=test_trace,
            tuple_graph=tuple_graph,
        )
        return self.resume(state, stop_after=stop_after)

    def resume(
        self, state: PipelineState, *, stop_after: str | None = None
    ) -> "PipelineRun":
        """Run every stage whose outputs are missing, in order.

        Stages satisfied by injected (or previously computed) artifacts are
        skipped; execution stops after ``stop_after`` when given.
        """
        if stop_after is not None and stop_after not in STAGES_BY_NAME:
            raise ValueError(
                f"unknown stage {stop_after!r}; expected one of {STAGE_NAMES}"
            )
        for stage in STAGES:
            if not stage.satisfied_by(state):
                self._execute(stage, state)
            if stage.name == stop_after:
                break
        return PipelineRun(self.options, state)

    def run_stage(self, name: str, state: PipelineState) -> PipelineState:
        """Force one stage to (re-)run, invalidating everything downstream.

        This is the "re-run a single stage with changed options" entry
        point: downstream artifacts are stale by construction, so they are
        cleared; a subsequent :meth:`resume` recomputes only those.
        """
        if name not in STAGES_BY_NAME:
            raise ValueError(f"unknown stage {name!r}; expected one of {STAGE_NAMES}")
        self._invalidate_downstream(state, name)
        self._execute(STAGES_BY_NAME[name], state)
        return state

    # -- internals --------------------------------------------------------------------
    def _execute(self, stage: Stage, state: PipelineState) -> None:
        missing = stage.missing_inputs(state)
        if missing:
            raise PipelineError(
                f"stage {stage.name!r} is missing inputs {missing}; "
                f"run earlier stages or inject the artifacts "
                f"(present: {state.artifacts_present()})"
            )
        telemetry = get_telemetry()
        watch = Stopwatch()
        with watch, telemetry.tracer.span(f"pipeline.{stage.name}"):
            stage.runner(state, self.options)
        state.timings[stage.name] = watch.elapsed
        telemetry.metrics.counter(
            "pipeline.stage_runs", "pipeline stage executions", labels=("stage",)
        ).inc(stage=stage.name)
        telemetry.metrics.histogram(
            "pipeline.stage_seconds",
            "wall-clock seconds per pipeline stage",
            labels=("stage",),
            buckets=SECONDS_BUCKETS,
            volatile=True,
        ).observe(watch.elapsed, stage=stage.name)
        if stage.name not in state.completed:
            state.completed.append(stage.name)

    @staticmethod
    def _invalidate_downstream(state: PipelineState, name: str) -> None:
        index = STAGE_NAMES.index(name)
        for downstream in STAGES[index:]:
            for provided in downstream.provides:
                setattr(state, provided, None)
            if downstream.name in state.completed:
                state.completed.remove(downstream.name)


@dataclass
class PipelineRun:
    """A pipeline state plus the options that produced it."""

    options: SchismOptions
    state: PipelineState

    @property
    def complete(self) -> bool:
        """Whether every stage's outputs are present."""
        return all(stage.satisfied_by(self.state) for stage in STAGES)

    @property
    def recommendation(self) -> str:
        """Name of the strategy selected by the validation stage."""
        if self.state.validation is None:
            raise PipelineError("validation has not run yet")
        return self.state.validation.recommendation

    def plan(
        self, created_by: str = "repro.pipeline", workload: str | None = None
    ) -> PartitionPlan:
        """The run's durable :class:`PartitionPlan` artifact."""
        return build_plan(
            self.options, self.state, created_by=created_by, workload=workload
        )

    def describe(self) -> str:
        """One-paragraph progress/summary report."""
        state = self.state
        done = ", ".join(state.completed) or "nothing executed"
        lines = [f"pipeline run ({self.options.num_partitions} partitions): {done}"]
        if state.tuple_graph is not None:
            lines.append(
                f"graph: {state.tuple_graph.num_nodes} nodes, "
                f"{state.tuple_graph.num_edges} edges"
            )
        if state.graph_cut is not None:
            lines.append(f"cut weight: {state.graph_cut:.1f}")
        if state.validation is not None:
            lines.append(f"selected: {state.validation.recommendation}")
            lines.append(state.validation.describe())
        return "\n".join(lines)
