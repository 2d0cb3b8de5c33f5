"""Scaling out TPC-C on a simulated shared-nothing cluster.

This example ties the whole system together: the pipeline produces a
:class:`~repro.pipeline.plan.PartitionPlan` for TPC-C, the cluster
materialises the plan physically, the router + two-phase-commit coordinator
execute the workload against the partitions, and the throughput simulator
projects the Figure 6 scaling curves.

Run with::

    python examples/scaling_out_tpcc.py
"""

from repro import Pipeline, SchismOptions, split_workload
from repro.distributed import Cluster, ThroughputSimulator, TwoPhaseCommitCoordinator
from repro.experiments import format_figure6, run_figure6
from repro.routing import Router
from repro.workloads import TpccConfig, generate_tpcc


def main() -> None:
    # 1. Derive the partitioning plan with the pipeline.
    config = TpccConfig(warehouses=4, districts_per_warehouse=3, customers_per_district=15, items=80)
    bundle = generate_tpcc(config, num_transactions=500)
    training, test = split_workload(bundle.workload, train_fraction=0.7)
    run = Pipeline(SchismOptions(num_partitions=4)).run(bundle.database, training, test)
    plan = run.plan(workload=bundle.name)
    print(f"schism selected {plan.recommendation} "
          f"({plan.provenance.metrics['distributed_fraction']:.1%} distributed transactions)")

    # 2. Materialise a 4-node cluster from the plan's deployed strategy (the
    #    form validation scored) and run the test workload through the router
    #    and the two-phase-commit coordinator (one strategy object, shared by
    #    cluster and router).
    fresh_bundle = generate_tpcc(config, num_transactions=200, name="tpcc-online")
    strategy = plan.deployment_strategy()
    cluster = Cluster.from_database(fresh_bundle.database, strategy)
    router = Router(strategy, schema=fresh_bundle.database.schema)
    coordinator = TwoPhaseCommitCoordinator(cluster, router)
    coordinator.execute_workload(fresh_bundle.workload)
    stats = coordinator.statistics
    print(f"cluster row counts: {cluster.row_counts()} (imbalance {cluster.imbalance():.2f})")
    print(f"executed {stats.transactions} transactions: "
          f"{stats.distributed_fraction:.1%} distributed, "
          f"{stats.mean_messages:.1f} messages/transaction")

    # 3. Project end-to-end throughput for the two Figure 6 configurations.
    print()
    fixed_total = run_figure6(num_transactions=200)
    per_machine = run_figure6(warehouses_per_machine=16, num_transactions=200)
    print(format_figure6(fixed_total, per_machine))

    # 4. A single what-if: how much throughput does hash partitioning leave
    #    on the table?  (The paper estimates 99% distributed transactions.)
    simulator = ThroughputSimulator()
    good = simulator.simulate_tpcc(8, 128, distributed_fraction=0.10)
    bad = simulator.simulate_tpcc(8, 128, distributed_fraction=0.99)
    print()
    print(f"8 machines with Schism partitioning: {good.throughput_tps:.0f} tps")
    print(f"8 machines with naive hash partitioning: {bad.throughput_tps:.0f} tps")


if __name__ == "__main__":
    main()
