"""Partitioning a social-network workload (Epinions.com).

Social-network schemas contain n-to-n relationships (user reviews of items,
trust edges between users) that defeat schema-driven partitioning.  This
example shows the pipeline discovering the latent community structure at the
tuple level and beating the best manual design (hash items+reviews together,
replicate users and trust), reproducing the paper's headline Epinions result
— then deploys the resulting plan as a live controller and exports the live
placement back as a plan, closing the offline -> online -> artifact loop.

Run with::

    python examples/social_network_partitioning.py
"""

from repro import Pipeline, SchismOptions, evaluate_strategy, split_workload, start_online
from repro.workloads import EpinionsConfig, generate_epinions


def main() -> None:
    config = EpinionsConfig(num_users=300, num_items=300, num_communities=10)
    bundle = generate_epinions(config, num_transactions=3000)
    print(f"generated {bundle.name}: {bundle.database.row_count()} tuples "
          f"({config.num_users} users, {config.num_items} items, "
          f"{config.num_communities} hidden communities)")

    training, test = split_workload(bundle.workload, train_fraction=0.7)
    run = Pipeline(SchismOptions(num_partitions=2)).run(bundle.database, training, test)
    plan = run.plan(workload=bundle.name)

    print()
    print(plan.describe())

    manual = bundle.manual_strategy(2)
    manual_report = evaluate_strategy(manual, run.state.test_trace, bundle.database)
    schism_fraction = plan.provenance.metrics["candidate_fractions"]["lookup-table"]
    print()
    print(f"manual partitioning (items+reviews hashed, users+trust replicated): "
          f"{manual_report.distributed_fraction:.1%} distributed transactions")
    print(f"schism lookup-table partitioning: {schism_fraction:.1%} distributed transactions")
    if manual_report.distributed_fraction > 0:
        improvement = 1.0 - schism_fraction / manual_report.distributed_fraction
        print(f"improvement over manual: {improvement:.0%}")

    # The fine-grained placement is the router's lookup table.
    assignment = plan.to_assignment()
    print()
    print(f"lookup table: ~{assignment.memory_bytes()} bytes for {len(assignment)} tuples")

    # Deploy the plan live on a fresh instance and export the (unchanged)
    # placement back as a plan — what a production rollout would persist.
    fresh = generate_epinions(config, num_transactions=500, name="epinions-live")
    controller = start_online(plan, fresh.database)
    live_plan = controller.export_plan()
    print()
    print(f"deployed {controller.num_partitions} partitions live; "
          f"diff vs exported live plan: {plan.diff(live_plan).describe()}")


if __name__ == "__main__":
    main()
