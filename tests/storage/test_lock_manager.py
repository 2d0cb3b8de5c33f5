"""LockManager: key mutexes live only while a transaction holds or awaits them."""

from __future__ import annotations

import sys
import threading
import time

from repro.analysis.witness import WitnessedLockManager
from repro.core.strategies import HashPartitioning
from repro.routing.router import Router
from repro.storage.coordinator import LockManager, write_lock_tokens
from repro.workloads import TpccConfig, generate_tpcc


def test_key_locks_are_dropped_after_a_concurrent_insert_heavy_run():
    config = TpccConfig(warehouses=2, districts_per_warehouse=2, customers_per_district=5, items=20)
    bundle = generate_tpcc(config, num_transactions=200)
    router = Router(HashPartitioning(2), bundle.database.schema)
    token_sets = [
        write_lock_tokens(router.route_transaction(transaction)) for transaction in bundle.workload
    ]
    key_tokens = sum(1 for tokens in token_sets for token in tokens if token[0] == "key")
    assert key_tokens > 1000
    locks = LockManager()
    witness = WitnessedLockManager(locks)
    holders: dict[tuple, int] = {}
    overlaps = []
    guard = threading.Lock()

    def client(share):
        for tokens in share:
            witness.acquire(tokens)
            keys = [token for token in tokens if token[0] == "key"]
            with guard:
                for token in keys:
                    holders[token] = holders.get(token, 0) + 1
                    if holders[token] > 1:
                        overlaps.append(token)
            time.sleep(0)
            with guard:
                for token in keys:
                    holders[token] -= 1
            witness.release(tokens)

    threads = [threading.Thread(target=client, args=(token_sets[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert overlaps == []
    assert witness.acquisitions > 0 and witness.out_of_order == 0
    assert locks._key_locks == {}


def test_a_waiting_transaction_keeps_the_key_entry_until_it_releases():
    locks = LockManager()
    tokens = [("key", "t", (1,))]
    locks.acquire(tokens)
    waiter = threading.Thread(target=lambda: (locks.acquire(tokens), locks.release(tokens)))
    waiter.start()
    deadline = time.monotonic() + 5.0
    while locks._key_locks[tokens[0]][1] < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert locks._key_locks[tokens[0]][1] == 2
    locks.release(tokens)
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    assert locks._key_locks == {}
