"""Deployment routes by what validation chose, and files and router agree.

The plan's winner is scored on a held-out stream by the validate stage; the
deployed router must serve the same stream within a stated tolerance of that
score (the test whose absence let a hash-default deployment of a
range-predicate winner survive for fifteen PRs).  The outside oracle is
py-tpcc's hand partitioning: every table by its warehouse column, ``item``
replicated — under it a transaction naming one warehouse is single-partition.
"""

import pytest

from repro.catalog.tuples import TupleId
from repro.core.config import default_options
from repro.core.strategies import HashPartitioning, LookupTablePartitioning
from repro.distributed.cluster import Cluster
from repro.distributed.coordinator import TwoPhaseCommitCoordinator
from repro.experiments import FIGURE4_EXPERIMENTS
from repro.experiments.audit import audit_against_oracle, cluster_rows
from repro.graph.assignment import PartitionAssignment
from repro.online import start_online
from repro.online.migration import JournaledMigrator, MigrationJournal, plan_migration
from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.routing.router import Router
from repro.sqlparse.ast import InsertStatement, SelectStatement, eq, is_write, statement_tables
from repro.sqlparse.predicates import conjunctive_conditions, pinned_values, statement_where
from repro.storage import SqliteStorageCluster
from repro.storage.coordinator import write_lock_tokens
from repro.utils.rng import SeededRng
from repro.workload.rwsets import extract_access_trace
from repro.workload.splitter import split_workload
from repro.workload.trace import Transaction
from repro.workloads import (
    EpinionsConfig,
    TpccConfig,
    generate_epinions,
    generate_simplecount,
    generate_tpcc,
)

TOLERANCE = 0.05


def _tpcc():
    config = TpccConfig(
        warehouses=2, districts_per_warehouse=3, customers_per_district=10, items=50
    )
    return generate_tpcc(config, num_transactions=300)


def _epinions():
    config = EpinionsConfig(num_users=60, num_items=60, num_communities=2)
    return generate_epinions(config, num_transactions=200)


def _simplecount():
    return generate_simplecount(num_rows=200, num_transactions=300, num_blocks=4, seed=0)


BUNDLES = {"tpcc": (_tpcc, 2), "epinions": (_epinions, 2), "simplecount": (_simplecount, 4)}


def _planned(name):
    """(fresh bundle, held-out workload, run, plan loaded back from its text)."""
    factory, partitions = BUNDLES[name]
    bundle = factory()
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
    run = Pipeline(SchismOptions(num_partitions=partitions)).run(bundle.database, train, test)
    return bundle, test, run, PartitionPlan.loads(run.plan(workload=bundle.name).dumps())


def _deploy(plan, schema):
    strategy = plan.deployment_strategy("hash")
    return strategy, Router(strategy, schema)


@pytest.fixture(scope="module")
def tpcc_deployment(tmp_path_factory):
    bundle, test, run, plan = _planned("tpcc")
    path = plan.save(tmp_path_factory.mktemp("plan") / "plan.json")
    strategy, router = _deploy(PartitionPlan.load(path), bundle.database.schema)
    return bundle, test, run, plan, strategy, router


def _distributed_fraction(router, workload):
    participants = router.participants_for_workload(workload)
    return sum(1 for parts in participants if len(parts) > 1) / len(participants)


def _warehouses(transaction):
    """Every warehouse id a transaction's statements name."""
    named = set()
    for statement in transaction.statements:
        if isinstance(statement, InsertStatement):
            pairs = statement.row.items()
        else:
            pairs = [
                (condition.column, value)
                for condition in conjunctive_conditions(statement_where(statement))
                for value in condition.candidate_values()
            ]
        named.update(value for column, value in pairs if column.endswith("w_id"))
    return named


# -- deployed vs validated ---------------------------------------------------------------
def test_deployed_fraction_stays_within_tolerance_of_the_validated_one(tpcc_deployment):
    _bundle, test, run, plan, strategy, router = tpcc_deployment
    assert plan.strategy == "range-predicates"
    assert strategy.base is not None and strategy.base.name == plan.strategy
    assert len(strategy.assignment) == 0  # the overlay starts empty
    validated = run.state.validation.winner_report.distributed_fraction
    assert plan.provenance.metrics["distributed_fraction"] == validated
    assert _distributed_fraction(router, test) <= validated + TOLERANCE


def test_one_warehouse_transactions_are_single_partition(tpcc_deployment):
    bundle, _test, _run, _plan, _strategy, router = tpcc_deployment
    seen = {"new_order": 0, "payment": 0}
    for transaction in bundle.workload:
        if transaction.kind in seen and len(_warehouses(transaction)) == 1:
            seen[transaction.kind] += 1
            assert len(router.transaction_participants(transaction)) == 1, transaction.kind
    assert all(seen.values()), seen


def test_item_reads_never_add_a_participant(tpcc_deployment):
    bundle, _test, _run, _plan, _strategy, router = tpcc_deployment
    checked = 0
    for transaction in bundle.workload:
        rest = tuple(
            statement
            for statement in transaction.statements
            if is_write(statement) or statement_tables(statement) != ("item",)
        )
        if rest and len(rest) < len(transaction.statements):
            checked += 1
            assert router.transaction_participants(
                transaction
            ) == router.transaction_participants(Transaction(rest))
    assert checked


# -- files and router cannot disagree ----------------------------------------------------
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_every_loaded_and_served_row_is_where_the_router_looks(name, tmp_path):
    bundle, _test, _run, plan = _planned(name)
    database = bundle.database
    strategy, router = _deploy(plan, database.schema)

    # The SQLite files the bulk loader writes (workers never started).
    storage = SqliteStorageCluster.from_database(tmp_path, database, strategy)
    written: dict[TupleId, set[int]] = {}
    for partition in range(storage.num_partitions):
        with storage.open_store(partition) as store:
            for tuple_id in store.tuple_ids():
                written.setdefault(tuple_id, set()).add(partition)
    assert set(written) == set(database.all_tuple_ids())
    for tuple_id, partitions in written.items():
        assert router.placement_of(tuple_id) == partitions, tuple_id

    # An in-memory cluster after serving a stream that inserts rows (a fresh
    # same-seed database: planning executed the stream against the first).
    fresh = BUNDLES[name][0]()
    cluster = Cluster.from_database(fresh.database, strategy)
    TwoPhaseCommitCoordinator(cluster, router).execute_workload(fresh.workload)
    for tuple_id, partitions in cluster.tuple_locations_map().items():
        assert router.placement_of(tuple_id) == partitions, tuple_id


def test_history_rows_are_placed_by_their_row_and_found_by_their_key(tpcc_deployment):
    bundle, _test, _run, _plan, _strategy, _router = tpcc_deployment
    # A fresh deployment: the module's router has already seen these inserts.
    strategy, router = _deploy(_plan, bundle.database.schema)
    insert = next(
        statement
        for transaction in bundle.workload
        for statement in transaction.statements
        if isinstance(statement, InsertStatement) and statement.table == "history"
    )
    tuple_id = TupleId("history", (insert.row["h_id"],))
    decision = router.route_statement(insert)
    warehouse = TupleId("warehouse", (insert.row["h_w_id"],))
    assert decision.partitions == router.placement_of(warehouse)
    # Key only, no row: answered from the entry the insert left behind.
    assert strategy.assignment.partitions_of(tuple_id) == decision.partitions
    assert router.placement_of(tuple_id) == decision.partitions
    # A history tuple never seen with its row has only the last resort.
    unseen = TupleId("history", (10**9,))
    fallback = LookupTablePartitioning(2, strategy.assignment, "hash")
    assert router.placement_of(unseen) == fallback.partitions_for_tuple(unseen)


def test_observing_a_stream_places_only_what_serving_it_places():
    _bundle, _test, _run, plan = _planned("tpcc")
    # Two fresh same-seed databases: the stream's history inserts are new.
    served = BUNDLES["tpcc"][0]()
    strategy = plan.deployment_strategy("hash")
    Cluster.from_database(served.database, strategy)
    Router(strategy, served.database.schema).participants_for_workload(served.workload)

    observed = BUNDLES["tpcc"][0]()
    controller = start_online(plan, observed.database)
    loaded = set(controller.strategy.assignment.placements)
    trace = extract_access_trace(observed.database, observed.workload)
    controller.observe(trace, auto_adapt=False)
    placements = controller.strategy.assignment.placements
    assert any(tuple_id.table == "history" for tuple_id in set(placements) - loaded)
    assert placements == strategy.assignment.placements


# -- the cost model scores what the router serves ---------------------------------------
def _served(plan, database, trace):
    """Participants of every transaction of ``trace`` as a deployment of
    ``plan`` serves them, once it has placed every row (as loading does)."""
    strategy = plan.deployment_strategy()
    for table in database.schema.tables:
        for key, row in database.rows(table.name).items():
            strategy.partitions_for_tuple(TupleId(table.name, key), row)
    router = Router(strategy, database.schema)
    return [router.transaction_participants(access.transaction) for access in trace]


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_cost_model_scores_the_partitions_the_router_serves(name):
    bundle, _test, run, plan = _planned(name)
    served = _served(plan, bundle.database, run.state.test_trace)
    report = run.state.validation.winner_report
    assert report.distributed_transactions == sum(1 for parts in served if len(parts) > 1)
    assert report.total_participations == sum(len(parts) for parts in served)
    assert report.partition_transaction_counts == [
        sum(1 for parts in served if partition in parts)
        for partition in range(plan.num_partitions)
    ]


#: Figure-4 bars at this scale plan in about 12 s together.
FIGURE4_SCALE = 0.4


@pytest.mark.parametrize("experiment", FIGURE4_EXPERIMENTS, ids=lambda experiment: experiment.key)
def test_every_figure4_bar_serves_what_it_validated(experiment):
    """Validation scores each candidate in its deployed form, so the selected
    strategy's fraction is exactly what its deployment serves on the
    held-out transactions — on every bar, broadcasts included."""
    bundle = experiment.bundle_factory(FIGURE4_SCALE, 0)
    options = (experiment.options_factory or default_options)(experiment.partitions, 0)
    if bundle.hash_columns and options.hash_columns is None:
        options.hash_columns = bundle.hash_columns
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
    run = Pipeline(options).run(bundle.database, train, test)
    plan = run.plan(workload=bundle.name)
    served = _served(plan, bundle.database, run.state.test_trace)
    fraction = sum(1 for parts in served if len(parts) > 1) / len(served)
    assert fraction == plan.provenance.metrics["distributed_fraction"]


# -- one derivation of a statement's keys ------------------------------------------------
def _derived_keys(statement, table, schema):
    """The keys the storage coordinator derived itself before routing carried them."""
    if isinstance(statement, InsertStatement):
        try:
            return [schema.table(table).primary_key_of(statement.row)]
        except KeyError:
            return None
    return pinned_values(
        [
            condition
            for condition in conjunctive_conditions(statement_where(statement))
            if condition.table in (None, table)
        ],
        schema.table(table).primary_key,
    )


def _derived_lock_tokens(transaction, schema):
    tokens = set()
    for statement in transaction.statements:
        if is_write(statement):
            keys = _derived_keys(statement, statement.table, schema)
            if keys is None:
                tokens.add(("table-x", statement.table))
            else:
                tokens.add(("table-s", statement.table))
                tokens.update(("key", statement.table, tuple(key)) for key in keys)
    return sorted(tokens, key=repr)


@pytest.mark.parametrize("name, deployed", [("tpcc", "plan"), ("epinions", "plan"), ("tpcc", "hash")])
def test_lock_tokens_and_read_keys_are_the_keys_routing_resolved(name, deployed):
    if deployed == "plan":
        bundle, _test, _run, plan = _planned(name)
        _strategy, router = _deploy(plan, bundle.database.schema)
    else:
        bundle = BUNDLES[name][0]()
        router = Router(HashPartitioning(2), bundle.database.schema)
    schema = bundle.database.schema
    locked = pinned = 0
    for transaction in bundle.workload:
        decisions = router.route_transaction(transaction)
        tokens = write_lock_tokens(decisions)
        assert tokens == _derived_lock_tokens(transaction, schema), transaction
        locked += len(tokens)
        for decision in decisions:
            tables = statement_tables(decision.statement)
            if len(tables) == 1:
                expected = _derived_keys(decision.statement, tables[0], schema)
                assert decision.keys == expected, decision.statement
                pinned += expected is not None
            else:
                assert decision.keys is None
    assert locked and pinned


# -- a moved tuple is still found --------------------------------------------------------
def _migrate(cluster, router, journal):
    JournaledMigrator(cluster, router, journal).run()
    assert journal.state == "completed"


def test_scan_still_reaches_a_tuple_a_delta_flip_moved_off_its_rule_partition():
    bundle, _test, _run, plan = _planned("tpcc")
    database = bundle.database
    strategy, router = _deploy(plan, database.schema)
    cluster = Cluster.from_database(database, strategy)
    stock = next(t for t in sorted(cluster.tuple_locations_map()) if t.table == "stock")
    (home,) = router.placement_of(stock)
    scan = SelectStatement(("stock",), where=eq("s_w_id", stock.key[0]))
    assert router.route_statement(scan).partitions == {home}

    target = PartitionAssignment(2)
    target.assign(stock, {1 - home})
    journal = MigrationJournal.for_plan(
        plan_migration(strategy.partitions_for_tuple, target),
        kind="adapt",
        old_num_partitions=2,
    )
    _migrate(cluster, router, journal)
    assert cluster.tuple_locations(stock) == {1 - home}
    assert router.placement_of(stock) == {1 - home}
    assert 1 - home in router.route_statement(scan).partitions
    # Other tables still follow their rules.
    district = SelectStatement(("district",), where=eq("d_w_id", stock.key[0]))
    assert router.route_statement(district).partitions == {home}


def test_resize_swap_pins_every_stored_tuple_and_audits_clean():
    _bundle, _test, _run, plan = _planned("tpcc")
    fresh = _tpcc()
    database = fresh.database
    strategy, router = _deploy(plan, database.schema)
    cluster = Cluster.from_database(database, strategy)
    # Serve a stream (its inserts are what the swap must pin), then bring the
    # oracle to the same state.
    TwoPhaseCommitCoordinator(cluster, router).execute_workload(fresh.workload)
    extract_access_trace(database, fresh.workload)

    locations = cluster.tuple_locations_map()
    target = PartitionAssignment(3)
    moved = sorted(locations)[::7]
    for tuple_id in moved:
        target.assign(tuple_id, {2})
    journal = MigrationJournal.for_plan(
        plan_migration(lambda tuple_id: locations[tuple_id], target),
        kind="resize",
        old_num_partitions=2,
        new_num_partitions=3,
    )
    _migrate(cluster, router, journal)
    assert router.num_partitions == cluster.num_partitions == 3
    assert router.strategy.base is not None  # the rules still place new tuples
    assert set(router.strategy.assignment) == set(locations)
    audit = audit_against_oracle(cluster_rows(cluster), router.placement_of, database)
    assert audit == (0, 0, 0, True)
    # Pinned away from its rule partition, so the table's scans go everywhere.
    scan = SelectStatement(("stock",), where=eq("s_w_id", 1))
    assert router.route_statement(scan).partitions == {0, 1, 2}


# -- plans that deploy as before ---------------------------------------------------------
def test_lookup_table_winner_and_plans_without_primary_keys_deploy_as_before():
    bundle, test, _run, plan = _planned("tpcc")
    schema = bundle.database.schema
    payload = plan.to_payload()
    del payload["primary_keys"]
    payload["version"] = 1
    payload["provenance"]["timings"] = {"extraction": 0.5, "total": 0.5}
    old = PartitionPlan.from_payload(payload)
    assert old.version == 1 and old.primary_keys == {} and old.deployment_base is None
    assert "timings: 0.50s" in old.provenance.describe()
    won = PartitionPlan.from_payload(dict(plan.to_payload(), strategy="lookup-table"))
    assert won.deployment_base is None

    before = LookupTablePartitioning(plan.num_partitions, plan.to_assignment(), "hash")
    expected = Router(before, schema).participants_for_workload(test)
    for candidate in (old, won):
        strategy, router = _deploy(candidate, schema)
        assert strategy.base is None
        assert strategy.assignment.placements == plan.placements
        assert router.participants_for_workload(test) == expected


def test_concurrent_first_sight_placements_lose_no_entry(tpcc_deployment):
    """Client threads route inserts through one router: every row seen leaves
    its entry, whatever the interleaving."""
    import sys
    import threading

    bundle, _test, _run, plan, _strategy, _router = tpcc_deployment
    strategy, router = _deploy(plan, bundle.database.schema)
    template = next(
        statement
        for transaction in bundle.workload
        for statement in transaction.statements
        if isinstance(statement, InsertStatement) and statement.table == "history"
    )
    workers, per_worker = 8, 200
    inserts = [
        [
            InsertStatement(
                "history",
                dict(template.row, h_id=10**6 + worker * per_worker + n, h_w_id=1 + n % 2),
            )
            for n in range(per_worker)
        ]
        for worker in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda batch=batch: [router.route_statement(s) for s in batch])
            for batch in inserts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for batch in inserts:
        for statement in batch:
            home = router.placement_of(TupleId("warehouse", (statement.row["h_w_id"],)))
            tuple_id = TupleId("history", (statement.row["h_id"],))
            assert strategy.assignment.partitions_of(tuple_id) == home
