"""A ``LIMIT`` read is planned on the rows the deployment serves it.

Extraction runs every statement on the planner's Database, and a deployed
partition runs the same SQL on the same DDL.  So a ``LIMIT`` SELECT that the
router sends to one partition must return, on that partition's SQLite file,
exactly the rows extraction saw — otherwise the plan was trained on rows the
deployment never reads.
"""

import pytest

from repro.pipeline import PartitionPlan, Pipeline, SchismOptions
from repro.routing.router import Router
from repro.sqlparse.ast import SelectStatement
from repro.storage import SqliteStorageCluster
from repro.storage.sql import compile_statement
from repro.storage.sqlite_store import SqlitePartitionStore
from repro.utils.rng import SeededRng
from repro.workload.splitter import split_workload
from repro.workloads import EpinionsConfig, TpceConfig, generate_epinions, generate_tpce

pytestmark = pytest.mark.storage


def _tiny_epinions():
    config = EpinionsConfig(num_users=100, num_items=100, num_communities=5, seed=0)
    return generate_epinions(config, num_transactions=300)


def _tiny_tpce():
    config = TpceConfig(customers=60, securities=30, companies=15, brokers=5, seed=0)
    return generate_tpce(config, num_transactions=300)


@pytest.mark.parametrize("generate", [_tiny_epinions, _tiny_tpce])
def test_single_partition_limit_reads_see_the_extracted_rows(tmp_path, generate):
    bundle = generate()
    database = bundle.database
    train, test = split_workload(bundle.workload, 0.7, rng=SeededRng(0))
    run = Pipeline(SchismOptions(num_partitions=2)).run(database, train, test)
    strategy = PartitionPlan.loads(run.plan(workload=bundle.name).dumps()).deployment_strategy()
    router = Router(strategy, database.schema)
    cluster = SqliteStorageCluster.from_database(tmp_path / "cluster", database, strategy)
    stores = {
        partition: SqlitePartitionStore(path, database.schema)
        for partition, path in cluster.paths.items()
    }
    checked = 0
    try:
        for transaction in bundle.workload:
            for decision in router.route_transaction(transaction):
                statement = decision.statement
                if not isinstance(statement, SelectStatement) or statement.limit is None:
                    continue
                if decision.broadcast or len(decision.partitions) != 1:
                    continue
                [partition] = decision.partitions
                [served] = stores[partition].execute_read([compile_statement(statement)])
                planned = [tuple(row.values()) for row in database.execute(statement).rows]
                assert served == planned, str(statement)
                checked += 1
    finally:
        for store in stores.values():
            store.close()
    assert checked > 0
