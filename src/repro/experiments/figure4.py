"""Figure 4 — partitioning quality across the nine evaluation workloads.

For each experiment the harness runs the full Schism pipeline and reports the
fraction of distributed transactions of:

* Schism's graph/lookup-table solution,
* Schism's range-predicate explanation,
* the strategy actually selected by the final validation (the "SCHISM:" row
  of the paper's figure),
* the best manual partitioning (where the paper has one),
* full replication, and
* hash partitioning on the primary key.

Scales default to sizes that run in seconds per experiment; pass
``scale > 1.0`` to grow databases and traces toward the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import default_options
from repro.core.cost import evaluate_strategy
from repro.explain.explainer import ExplainerOptions
from repro.graph.builder import GraphBuildOptions
from repro.graph.partitioner import PartitionerOptions
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.utils.rng import SeededRng
from repro.workload.splitter import split_workload
from repro.workloads import (
    EpinionsConfig,
    TpccConfig,
    TpceConfig,
    generate_epinions,
    generate_random_workload,
    generate_tpcc,
    generate_tpce,
    generate_ycsb_a,
    generate_ycsb_e,
)
from repro.workloads.base import WorkloadBundle


@dataclass
class Figure4Experiment:
    """Definition of one bar group of Figure 4."""

    key: str
    partitions: int
    bundle_factory: Callable[[float, int], WorkloadBundle]
    options_factory: Callable[[int, int], SchismOptions] | None = None
    #: paper's qualitative expectation for the validation phase's choice.
    expected_recommendation: tuple[str, ...] = ()


@dataclass
class Figure4Row:
    """Results for one experiment (one bar group in the figure)."""

    key: str
    partitions: int
    recommendation: str
    schism_lookup: float
    schism_range: float | None
    schism_selected: float
    manual: float | None
    replication: float
    hashing: float
    metadata: dict[str, object] = field(default_factory=dict)


def _sampled_options(partitions: int, seed: int) -> SchismOptions:
    """Options for the "TPC-C 2W, sampling" stress test (Section 6.1).

    The paper samples a 100k-transaction trace down to 20k transactions and
    ~0.5% of the tuples and still recovers the by-warehouse design; at our
    much smaller absolute scale we sample less aggressively (70%/70%) so that
    enough co-access signal survives, and cap the decision-tree training set
    at 250 tuples per table exactly as the paper does.
    """
    return SchismOptions(
        num_partitions=partitions,
        graph=GraphBuildOptions(
            transaction_sample_fraction=0.7,
            tuple_sample_fraction=0.7,
            seed=seed,
        ),
        partitioner=PartitionerOptions(seed=seed),
        explainer=ExplainerOptions(seed=seed, max_samples_per_table=250),
    )


def _tpcc_50w_options(partitions: int, seed: int) -> SchismOptions:
    """Options for the scaled-down TPC-C 50W / 10 partition experiment.

    With only two warehouses per partition the 5% balance slack of the default
    configuration would force the partitioner to split warehouses; a slightly
    wider slack and a larger refinement budget let it keep warehouses whole,
    which is what kmetis achieves at the paper's 50-warehouse scale.
    """
    return SchismOptions(
        num_partitions=partitions,
        graph=GraphBuildOptions(seed=seed),
        partitioner=PartitionerOptions(
            seed=seed, imbalance=0.15, refine_passes=6, initial_trials=8, coarsen_target=200
        ),
        explainer=ExplainerOptions(seed=seed),
    )


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


FIGURE4_EXPERIMENTS: tuple[Figure4Experiment, ...] = (
    Figure4Experiment(
        key="ycsb-a",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_ycsb_a(
            num_rows=_scaled(5000, scale), num_transactions=_scaled(4000, scale), seed=seed
        ),
        expected_recommendation=("hashing", "attribute-hashing"),
    ),
    Figure4Experiment(
        key="ycsb-e",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_ycsb_e(
            num_rows=_scaled(2000, scale),
            num_transactions=_scaled(4000, scale),
            max_scan_length=20,
            seed=seed,
        ),
        expected_recommendation=("range-predicates", "lookup-table"),
    ),
    Figure4Experiment(
        key="tpcc-2w",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_tpcc(
            TpccConfig(
                warehouses=2,
                districts_per_warehouse=_scaled(4, scale),
                customers_per_district=_scaled(20, scale),
                items=_scaled(100, scale),
                seed=seed,
            ),
            num_transactions=_scaled(600, scale),
        ),
        expected_recommendation=("range-predicates",),
    ),
    Figure4Experiment(
        key="tpcc-2w-sampled",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_tpcc(
            TpccConfig(
                warehouses=2,
                districts_per_warehouse=_scaled(4, scale),
                customers_per_district=_scaled(20, scale),
                items=_scaled(100, scale),
                seed=seed,
            ),
            # Larger base trace so that 50% transaction / 50% tuple sampling
            # still leaves enough co-access signal (the paper samples a 100k
            # transaction trace down to 20k).
            num_transactions=_scaled(1600, scale),
            name="tpcc-2w-sampled",
        ),
        options_factory=_sampled_options,
        expected_recommendation=("range-predicates", "attribute-hashing"),
    ),
    Figure4Experiment(
        key="tpcc-50w",
        partitions=10,
        bundle_factory=lambda scale, seed: generate_tpcc(
            TpccConfig(
                # Scaled-down stand-in for 50 warehouses / 10 partitions: keep
                # several warehouses per partition so the by-warehouse structure
                # is recoverable, and shrink the per-warehouse population instead.
                warehouses=20,
                districts_per_warehouse=2,
                customers_per_district=_scaled(10, scale),
                items=_scaled(100, scale),
                seed=seed,
            ),
            num_transactions=_scaled(2400, scale),
            name="tpcc-50w",
        ),
        options_factory=_tpcc_50w_options,
        expected_recommendation=("range-predicates", "attribute-hashing"),
    ),
    Figure4Experiment(
        key="tpce",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_tpce(
            TpceConfig(
                customers=_scaled(200, scale),
                securities=_scaled(80, scale),
                seed=seed,
            ),
            num_transactions=_scaled(2500, scale),
        ),
        expected_recommendation=("range-predicates", "lookup-table"),
    ),
    Figure4Experiment(
        key="epinions-2p",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_epinions(
            EpinionsConfig(
                num_users=_scaled(300, scale),
                num_items=_scaled(300, scale),
                num_communities=10,
                seed=seed,
            ),
            num_transactions=_scaled(3000, scale),
        ),
        expected_recommendation=("lookup-table",),
    ),
    Figure4Experiment(
        key="epinions-10p",
        partitions=10,
        bundle_factory=lambda scale, seed: generate_epinions(
            EpinionsConfig(
                num_users=_scaled(300, scale),
                num_items=_scaled(300, scale),
                num_communities=20,
                seed=seed,
            ),
            num_transactions=_scaled(3000, scale),
            name="epinions-10p",
        ),
        expected_recommendation=("lookup-table",),
    ),
    Figure4Experiment(
        key="random",
        partitions=2,
        bundle_factory=lambda scale, seed: generate_random_workload(
            num_rows=_scaled(3000, scale), num_transactions=_scaled(1500, scale), seed=seed
        ),
        expected_recommendation=("hashing", "attribute-hashing"),
    ),
)


def run_figure4_experiment(
    experiment: Figure4Experiment,
    scale: float = 1.0,
    seed: int = 0,
    train_fraction: float = 0.7,
) -> tuple[Figure4Row, PartitionPlan]:
    """Run one Figure 4 experiment; returns its row plus the plan artifact.

    Every per-candidate number in the row is read from the plan's
    provenance metrics — the artifact carries the whole comparison, so a
    saved plan file reproduces the figure row without re-running anything.
    """
    bundle = experiment.bundle_factory(scale, seed)
    options_factory = experiment.options_factory or default_options
    options = options_factory(experiment.partitions, seed)
    if bundle.hash_columns and options.hash_columns is None:
        options.hash_columns = bundle.hash_columns
    train, test = split_workload(bundle.workload, train_fraction, rng=SeededRng(seed))
    run = Pipeline(options).run(bundle.database, train, test)
    plan = run.plan(created_by="experiments.figure4", workload=bundle.name)
    fractions: dict[str, float] = plan.provenance.metrics["candidate_fractions"]
    manual_fraction: float | None = None
    manual_strategy = bundle.manual_strategy(experiment.partitions)
    if manual_strategy is not None:
        manual_fraction = evaluate_strategy(
            manual_strategy, run.state.test_trace, bundle.database
        ).distributed_fraction
    row = Figure4Row(
        key=experiment.key,
        partitions=experiment.partitions,
        recommendation=plan.recommendation,
        schism_lookup=fractions["lookup-table"],
        schism_range=fractions.get("range-predicates"),
        schism_selected=plan.provenance.metrics["distributed_fraction"],
        manual=manual_fraction,
        replication=fractions["replication"],
        hashing=fractions["hashing"],
        metadata=dict(bundle.metadata),
    )
    return row, plan


def run_figure4(
    scale: float = 1.0,
    seed: int = 0,
    keys: tuple[str, ...] | None = None,
) -> list[Figure4Row]:
    """Run all (or the selected) Figure 4 experiments."""
    rows: list[Figure4Row] = []
    for experiment in FIGURE4_EXPERIMENTS:
        if keys is not None and experiment.key not in keys:
            continue
        row, _result = run_figure4_experiment(experiment, scale=scale, seed=seed)
        rows.append(row)
    return rows


def format_figure4(rows: list[Figure4Row]) -> str:
    """Render Figure 4 as a text table (percentages of distributed transactions)."""

    def pct(value: float | None) -> str:
        return f"{value:7.1%}" if value is not None else "     --"

    lines = [
        "Figure 4: distributed transactions by strategy (lower is better)",
        f"{'experiment':>16} {'parts':>5} {'schism':>8} {'lookup':>8} {'range':>8} "
        f"{'manual':>8} {'replic.':>8} {'hashing':>8}  selected",
    ]
    for row in rows:
        lines.append(
            f"{row.key:>16} {row.partitions:>5} {pct(row.schism_selected):>8} "
            f"{pct(row.schism_lookup):>8} {pct(row.schism_range):>8} {pct(row.manual):>8} "
            f"{pct(row.replication):>8} {pct(row.hashing):>8}  {row.recommendation}"
        )
    return "\n".join(lines)
