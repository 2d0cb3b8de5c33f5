"""Partition worker process and its parent-side handle.

Each partition's SQLite file is owned by exactly one **worker process**; the
parent talks to it over a duplex pipe with a sequence-numbered
request/response protocol.  Processes use the ``spawn`` start method — a
fresh interpreter per worker, no inherited locks or connections — so killing
one with ``SIGKILL`` is a faithful crash: the parent sees a broken pipe, the
file is left wherever SQLite's WAL put it, and a replacement worker opening
the same path recovers the last committed state.

Protocol (all values picklable): requests are ``(seq, op, payload)``, the
reply to request ``seq`` is ``(seq, "ok", result)`` or
``(seq, "error", kind, message)`` where ``kind`` is the retry
classification (:data:`~repro.storage.retry.RETRYABLE` /
:data:`~repro.storage.retry.FATAL`).  The handle discards stale replies
whose ``seq`` belongs to a request that already timed out, so one slow
response does not desynchronise the stream.

Statements travel compiled: each is a ``(sql, params)`` pair the coordinator
built with :func:`~repro.storage.sql.compile_statement`, so the worker
neither unpickles statement trees nor compiles.  Payloads by op:

* ``read`` takes a **list of pairs** — a transaction's reads routed to a
  partition it does not write, a single read being a batch of one — and
  replies with a list of row lists, one per read in request order;
* ``apply`` takes ``(txn_id, writes, reads)``: the partition's write pairs
  and the transaction's reads routed here, which run first inside the same
  SQLite transaction.  It replies ``(status, rows)``, ``status`` being
  ``"applied"`` or ``"duplicate"`` and ``rows`` one row list per read.

Both are idempotent (reads change nothing, applies dedup by ``txn_id``), so
the client retries either as a unit.  A payload the store cannot serve — a
bare or uncompiled statement, SQL that is not a string, a read that is not
a ``SELECT`` or a write that is not an ``INSERT``/``UPDATE``/``DELETE`` — is
answered with a FATAL error reply and the worker keeps serving.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

from repro.catalog.schema import Schema
from repro.storage.retry import FATAL, RETRYABLE
from repro.storage.sqlite_store import SqlitePartitionStore, StoreConstraintError

#: the spawn context every worker uses (safe with a threaded parent).
SPAWN_CONTEXT = multiprocessing.get_context("spawn")


class WorkerUnavailable(ConnectionError):
    """The worker process is dead or its pipe is broken (retryable)."""

    def __init__(self, partition: int, detail: str = "") -> None:
        super().__init__(
            f"partition {partition} worker unavailable" + (f": {detail}" if detail else "")
        )
        self.partition = partition


class WorkerTimeout(TimeoutError):
    """A request missed its per-attempt deadline (retryable)."""

    def __init__(self, partition: int, op: str, timeout_s: float) -> None:
        super().__init__(
            f"partition {partition} {op!r} request timed out after {timeout_s:.3f}s"
        )
        self.partition = partition
        self.op = op


class RemoteStoreError(RuntimeError):
    """An error raised inside the worker, carrying its retry classification."""

    def __init__(self, partition: int, kind: str, message: str) -> None:
        super().__init__(f"partition {partition}: {message}")
        self.partition = partition
        self.kind = kind


def worker_main(connection: Connection, db_path: str, schema: Schema) -> None:
    """Entry point of the worker process: serve requests until ``stop``.

    Opening the store is itself the recovery step — SQLite replays the WAL
    left behind by a killed predecessor before the first request is served.
    """
    store = SqlitePartitionStore(db_path, schema)
    try:
        while True:
            try:
                seq, op, payload = connection.recv()
            except (EOFError, OSError):
                break
            try:
                if op == "ping":
                    result: object = "pong"
                elif op == "apply":
                    txn_id, writes, reads = payload
                    result = store.apply_transaction(txn_id, writes, reads)
                elif op == "read":
                    result = store.execute_read(payload)
                elif op == "has_txn":
                    result = store.has_transaction(payload)
                elif op == "row_count":
                    result = store.row_count()
                elif op == "export_row":
                    table, key = payload
                    result = store.export_row(table, key)
                elif op == "migrate_in":
                    txn_id, table, key, row = payload
                    result = store.migrate_in(txn_id, table, key, row)
                elif op == "migrate_out":
                    txn_id, table, key = payload
                    result = store.migrate_out(txn_id, table, key)
                elif op == "tuple_ids":
                    result = [
                        [tuple_id.table, list(tuple_id.key)]
                        for tuple_id in store.tuple_ids()
                    ]
                elif op == "stop":
                    connection.send((seq, "ok", "stopping"))
                    break
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except StoreConstraintError as error:
                connection.send((seq, "error", FATAL, str(error)))
                continue
            except Exception as error:
                kind = RETRYABLE if isinstance(error, OSError) else FATAL
                connection.send((seq, "error", kind, f"{type(error).__name__}: {error}"))
                continue
            connection.send((seq, "ok", result))
    finally:
        store.close()
        connection.close()


class WorkerHandle:
    """Parent-side handle of one worker process.

    Thread-safe: concurrent clients serialise on the handle's lock for the
    duration of one request/response exchange (SQLite is single-writer per
    file anyway, so the pipe is not the bottleneck).  ``generation`` counts
    restarts of the partition — the supervisor swaps a fresh handle in after
    a crash, and stale handles refuse further use.
    """

    def __init__(self, partition: int, db_path: str | Path, schema: Schema, generation: int = 0) -> None:
        self.partition = partition
        self.db_path = str(db_path)
        self.generation = generation
        parent_end, child_end = SPAWN_CONTEXT.Pipe()
        self._connection: Connection = parent_end
        self.process = SPAWN_CONTEXT.Process(
            target=worker_main,
            args=(child_end, self.db_path, schema),
            daemon=True,
            name=f"repro-partition-{partition}",
        )
        self.process.start()
        child_end.close()
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return not self._closed and self.process.is_alive()

    def request(self, op: str, payload: object = None, timeout_s: float = 1.0) -> object:
        """One request/response exchange with a deadline.

        Raises :class:`WorkerUnavailable` on a dead process or broken pipe,
        :class:`WorkerTimeout` on a missed deadline, and
        :class:`RemoteStoreError` for errors raised inside the worker.
        """
        with self._lock:
            if self._closed:
                raise WorkerUnavailable(self.partition, "handle closed")
            self._seq += 1
            seq = self._seq
            try:
                self._connection.send((seq, op, payload))
            except (OSError, ValueError, TypeError) as error:
                # TypeError: the supervisor's abandon() closed the connection
                # between its closed-check and its write (the handle is None).
                raise WorkerUnavailable(self.partition, str(error)) from error
            deadline = time.monotonic() + timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeout(self.partition, op, timeout_s)
                try:
                    if not self._connection.poll(remaining):
                        raise WorkerTimeout(self.partition, op, timeout_s)
                    reply = self._connection.recv()
                except (EOFError, OSError) as error:
                    raise WorkerUnavailable(self.partition, str(error)) from error
                if reply[0] != seq:
                    # A reply to an earlier, timed-out request: discard it and
                    # keep waiting for ours.
                    continue
                if reply[1] == "ok":
                    return reply[2]
                _, _, kind, message = reply
                raise RemoteStoreError(self.partition, kind, message)

    def kill(self) -> None:
        """SIGKILL the worker process (the chaos harness's crash primitive)."""
        self.process.kill()

    def close(self, timeout_s: float = 2.0) -> None:
        """Graceful stop: request shutdown, join, escalate to kill."""
        if self._closed:
            return
        try:
            self.request("stop", timeout_s=min(0.5, timeout_s))
        except (WorkerUnavailable, WorkerTimeout, RemoteStoreError):
            pass
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout_s)
        self._closed = True
        self._connection.close()

    def abandon(self) -> None:
        """Mark a crashed handle dead without joining (supervisor path)."""
        self._closed = True
        try:
            self._connection.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        if self.process.is_alive():  # pragma: no cover - crash already happened
            self.process.kill()
        self.process.join(0.5)
