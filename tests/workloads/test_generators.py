"""Tests for the benchmark workload generators."""

import pytest

from repro.core.cost import evaluate_strategy
from repro.sqlparse.ast import SelectStatement, is_write
from repro.workload.analysis import workload_statistics
from repro.workload.rwsets import extract_access_trace
from repro.workloads import (
    EpinionsConfig,
    TpccConfig,
    TpceConfig,
    generate_epinions,
    generate_random_workload,
    generate_simplecount,
    generate_tpce,
    generate_ycsb_a,
    generate_ycsb_e,
)


class TestSimplecount:
    def test_local_workload_is_single_block(self):
        bundle = generate_simplecount(num_rows=100, num_transactions=50, num_blocks=5)
        strategy = bundle.manual_strategy(5)
        trace = extract_access_trace(bundle.database, bundle.workload)
        report = evaluate_strategy(strategy, trace, bundle.database)
        assert report.distributed_fraction == 0.0

    def test_distributed_workload_crosses_blocks(self):
        bundle = generate_simplecount(
            num_rows=100, num_transactions=50, num_blocks=5, single_partition=False
        )
        strategy = bundle.manual_strategy(5)
        trace = extract_access_trace(bundle.database, bundle.workload)
        report = evaluate_strategy(strategy, trace, bundle.database)
        assert report.distributed_fraction == 1.0

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            generate_simplecount(num_rows=101, num_blocks=5)


class TestYcsb:
    def test_workload_a_mix_and_size(self):
        bundle = generate_ycsb_a(num_rows=500, num_transactions=400)
        assert bundle.database.row_count() == 500
        stats = workload_statistics(bundle.workload)
        assert stats.transaction_count == 400
        assert 0.4 < stats.write_fraction < 0.6
        assert all(len(t.statements) == 1 for t in bundle.workload)

    def test_workload_a_keys_are_skewed(self):
        bundle = generate_ycsb_a(num_rows=500, num_transactions=500)
        trace = extract_access_trace(bundle.database, bundle.workload)
        counts = trace.access_counts()
        assert max(counts.values()) >= 5  # Zipfian hot keys

    def test_workload_e_scans(self):
        bundle = generate_ycsb_e(num_rows=500, num_transactions=300, max_scan_length=10)
        stats = workload_statistics(bundle.workload)
        assert stats.write_fraction < 0.15
        scans = [
            statement
            for transaction in bundle.workload
            for statement in transaction.statements
            if isinstance(statement, SelectStatement) and statement.where.operator == "between"
        ]
        assert scans

    def test_manual_range_strategy_handles_scans(self):
        bundle = generate_ycsb_e(num_rows=500, num_transactions=300, max_scan_length=5)
        trace = extract_access_trace(bundle.database, bundle.workload)
        report = evaluate_strategy(bundle.manual_strategy(2), trace, bundle.database)
        assert report.distributed_fraction < 0.1

    def test_determinism(self):
        first = generate_ycsb_a(num_rows=100, num_transactions=50, seed=3)
        second = generate_ycsb_a(num_rows=100, num_transactions=50, seed=3)
        assert [str(t.statements[0]) for t in first.workload] == [
            str(t.statements[0]) for t in second.workload
        ]


class TestTpcc:
    def test_database_shape(self, tiny_tpcc):
        database = tiny_tpcc.database
        config_warehouses = tiny_tpcc.metadata["warehouses"]
        assert database.row_count("warehouse") == config_warehouses
        assert database.row_count("district") == config_warehouses * 3
        assert database.row_count("item") == 50
        assert database.row_count("stock") == config_warehouses * 50

    def test_transaction_mix(self, tiny_tpcc):
        kinds = {t.kind for t in tiny_tpcc.workload}
        assert {"new_order", "payment"} <= kinds

    def test_multi_warehouse_fraction(self, tiny_tpcc):
        trace = extract_access_trace(tiny_tpcc.database, tiny_tpcc.workload)
        strategy = tiny_tpcc.manual_strategy(2)
        report = evaluate_strategy(strategy, trace, tiny_tpcc.database)
        # Roughly 10% of TPC-C transactions touch more than one warehouse.
        assert 0.02 < report.distributed_fraction < 0.30

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            TpccConfig(new_order_weight=0.9)


class TestTpce:
    def test_schema_and_mix(self):
        bundle = generate_tpce(TpceConfig(customers=50, securities=30), num_transactions=300)
        assert len(bundle.database.schema.tables) == 12
        assert bundle.database.row_count("customer") == 50
        kinds = {t.kind for t in bundle.workload}
        assert "trade_status" in kinds and "market_watch" in kinds
        stats = workload_statistics(bundle.workload)
        assert stats.write_fraction < 0.5  # read-heavy benchmark

    def test_no_manual_baseline(self):
        bundle = generate_tpce(TpceConfig(customers=20, securities=10), num_transactions=50)
        assert bundle.manual_strategy(2) is None


class TestEpinions:
    def test_schema_and_community_locality(self):
        config = EpinionsConfig(num_users=100, num_items=100, num_communities=5)
        bundle = generate_epinions(config, num_transactions=200)
        database = bundle.database
        assert database.row_count("users") == 100
        assert database.row_count("items") == 100
        assert database.row_count("reviews") > 0
        # Most reviews stay within the author's community.
        within = 0
        total = 0
        for row in database.rows("reviews").values():
            total += 1
            if row["u_id"] % 5 == row["i_id"] % 5:
                within += 1
        assert within / total > 0.7

    def test_manual_strategy_replicates_users(self):
        from repro.catalog.tuples import TupleId

        strategy = generate_epinions(
            EpinionsConfig(num_users=20, num_items=20, num_communities=2), num_transactions=10
        ).manual_strategy(4)
        assert strategy.partitions_for_tuple(TupleId("users", (1,))) == frozenset(range(4))
        assert len(strategy.partitions_for_tuple(TupleId("items", (1,)), {"i_id": 1})) == 1


class TestRandom:
    def test_every_transaction_writes_two_tuples(self):
        bundle = generate_random_workload(num_rows=200, num_transactions=100)
        trace = extract_access_trace(bundle.database, bundle.workload)
        assert all(len(access.write_set) == 2 for access in trace)
        assert all(is_write(s) for t in bundle.workload for s in t.statements)


class TestDriftingWorkloads:
    def test_rotating_hotspot_phases_touch_disjoint_windows(self):
        from repro.workloads import generate_rotating_hotspot

        bundle = generate_rotating_hotspot(
            num_rows=600,
            transactions_per_phase=100,
            num_phases=2,
            hot_window=150,
            uniform_fraction=0.0,
            seed=0,
        )
        assert len(bundle.phases) == 2
        traces = [
            extract_access_trace(bundle.database, phase) for phase in bundle.phases
        ]
        keys = [
            {tuple_id.key[0] for access in trace for tuple_id in access.touched}
            for trace in traces
        ]
        assert keys[0] and max(keys[0]) < 150
        assert keys[1] and min(keys[1]) >= 150 and max(keys[1]) < 300
        # Group transactions are multi-tuple and contain exactly one write.
        for trace in traces:
            for access in trace:
                assert len(access.touched) == 3
                assert len(access.write_set) == 1

    def test_rotating_hotspot_is_deterministic(self):
        from repro.workloads import generate_rotating_hotspot

        a = generate_rotating_hotspot(num_rows=600, transactions_per_phase=50, seed=3)
        b = generate_rotating_hotspot(num_rows=600, transactions_per_phase=50, seed=3)
        for phase_a, phase_b in zip(a.phases, b.phases):
            assert [t.statements for t in phase_a] == [t.statements for t in phase_b]

    def test_rotating_hotspot_validates_geometry(self):
        from repro.workloads import generate_rotating_hotspot

        with pytest.raises(ValueError):
            generate_rotating_hotspot(num_rows=100, hot_window=90, num_phases=2)
        with pytest.raises(ValueError):
            generate_rotating_hotspot(hot_window=100, group_size=3)

    def test_combined_stream_concatenates_phases(self):
        from repro.workloads import generate_rotating_hotspot

        bundle = generate_rotating_hotspot(
            num_rows=600, transactions_per_phase=40, num_phases=2, hot_window=150
        )
        combined = bundle.combined()
        assert len(combined) == sum(len(phase) for phase in bundle.phases)
        assert bundle.training is bundle.phases[0]

    def test_warehouse_shift_rotates_hot_warehouse(self):
        from repro.workloads import generate_warehouse_shift_tpcc

        bundle = generate_warehouse_shift_tpcc(
            warehouses=4,
            hot_warehouses=1,
            transactions_per_phase=120,
            num_phases=2,
            hot_weight=20.0,
            seed=0,
        )
        assert len(bundle.phases) == 2

        def warehouse_histogram(workload):
            from repro.sqlparse.predicates import conjunctive_conditions, statement_where

            counts = {}
            for transaction in workload:
                for statement in transaction.statements:
                    if isinstance(statement, SelectStatement) and statement.tables == (
                        "warehouse",
                    ):
                        for condition in conjunctive_conditions(statement_where(statement)):
                            if condition.column == "w_id":
                                value = condition.candidate_values()[0]
                                counts[value] = counts.get(value, 0) + 1
                        break
            return counts

        histograms = [warehouse_histogram(phase) for phase in bundle.phases]
        hot = [max(counts, key=counts.get) for counts in histograms if counts]
        assert len(hot) == 2
        # The hot warehouse moved between phases (1-indexed: 1 -> 2).
        assert hot[0] == 1 and hot[1] == 2


def test_warehouse_shift_does_not_mutate_caller_config():
    from repro.workloads import TpccConfig, generate_warehouse_shift_tpcc

    config = TpccConfig(warehouses=3, seed=1)
    generate_warehouse_shift_tpcc(
        warehouses=3, transactions_per_phase=20, num_phases=2, config=config
    )
    assert config.home_warehouse_weights is None


def test_warehouse_shift_honors_seed_with_config():
    from repro.workloads import TpccConfig, generate_warehouse_shift_tpcc

    def statements(bundle):
        return [str(s) for phase in bundle.phases for t in phase for s in t.statements]

    a = generate_warehouse_shift_tpcc(
        warehouses=2, transactions_per_phase=30, config=TpccConfig(warehouses=2), seed=7
    )
    b = generate_warehouse_shift_tpcc(
        warehouses=2, transactions_per_phase=30, config=TpccConfig(warehouses=2), seed=8
    )
    assert statements(a) != statements(b)
