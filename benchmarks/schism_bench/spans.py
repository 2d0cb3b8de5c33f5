"""Benchmark-side tracing: an in-memory span recorder and timing proxies.

Nothing under ``src/`` is touched.  Layers are timed from outside, around
calls into their public functions, through seams the code already exposes:
the coordinator object handed to ``ClosedLoopDriver``, ``coordinator.router``,
``coordinator.locks`` (the seam ``WitnessedLockManager`` uses) and the
``cluster`` object the coordinator asks for worker handles.

A span is ``(id, name, start, end, parent, trace, thread, attrs)``.  Spans of
one transaction share its ``trace`` id (the txn id).  Each thread keeps its own
stack of open spans, so concurrent clients never interleave parent links.
Spans stay in memory and are written out when the workload ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterable


class _OpenSpan:
    """Context manager for one span; appends itself to the recorder on exit."""

    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: dict) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> dict:
        stack = self.recorder._stack()
        record = self.record
        if stack:
            parent = stack[-1]
            record["parent"] = parent["id"]
            if record["trace"] is None:
                record["trace"] = parent["trace"]
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self.record
        record["end"] = time.perf_counter()
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self.recorder._stack().pop()
        self.recorder.spans.append(record)  # list.append is atomic under the GIL


class SpanRecorder:
    """Collects finished spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace: str | None = None, **attrs: object) -> _OpenSpan:
        """Open a child of the calling thread's innermost open span."""
        record = {
            "id": next(self._ids),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": None,
            "trace": trace,
            "thread": threading.current_thread().name,
        }
        if attrs:
            record.update(attrs)
        return _OpenSpan(self, record)

    def named(self, name: str) -> list[dict]:
        """Finished spans called ``name``."""
        return [span for span in self.spans if span["name"] == name]


def duration(span: dict) -> float:
    """Seconds between a span's start and end."""
    return span["end"] - span["start"]


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (overlaps counted once)."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that interval its
    direct children cover (children are clipped to the parent)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: duration(span) - covered(children.get(span["id"], ()))
        for span in spans
    }


# -- timing proxies ----------------------------------------------------------------------
class _Delegate:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)


class TracedCoordinator(_Delegate):
    """Root span per transaction; the trace id is the txn id."""

    def execute_transaction(self, transaction, txn_id: str):
        with self._recorder.span("storage.coordinator.txn", trace=txn_id):
            return self._inner.execute_transaction(transaction, txn_id)


class TracedRouter(_Delegate):
    """Span around ``route_transaction``; everything else passes through."""

    def route_transaction(self, transaction):
        with self._recorder.span("routing.route") as span:
            decisions = self._inner.route_transaction(transaction)
            participants = set()
            for decision in decisions:
                participants.update(decision.partitions)
            span["participants"] = len(participants)
            return decisions


class TracedLocks(_Delegate):
    """Span around lock acquisition (the wait); release passes through."""

    def acquire(self, tokens):
        with self._recorder.span("storage.coordinator.lock_wait", tokens=len(tokens)):
            return self._inner.acquire(tokens)

    def release(self, tokens) -> None:
        self._inner.release(tokens)


class TracedHandle(_Delegate):
    """Child span per worker ``request(op)``; optionally logs the requests."""

    def __init__(self, inner, recorder: SpanRecorder, partition: int, log: list | None) -> None:
        super().__init__(inner, recorder)
        self._partition = partition
        self._log = log

    def request(self, op: str, payload: object = None, timeout_s: float = 1.0) -> object:
        if self._log is not None:
            self._log.append((op, payload))
        with self._recorder.span(f"storage.worker.{op}", partition=self._partition):
            return self._inner.request(op, payload, timeout_s=timeout_s)


class TracedCluster(_Delegate):
    """Hands the coordinator traced worker handles.

    ``log_partition``'s requests are appended to :attr:`request_log` as
    ``(op, payload)`` until ``log_limit`` is reached — the input of the
    in-process ``SqlitePartitionStore`` replay probe.
    """

    def __init__(self, inner, recorder: SpanRecorder, log_partition: int = 0, log_limit: int = 300) -> None:
        super().__init__(inner, recorder)
        self.request_log: list[tuple[str, object]] = []
        self._log_partition = log_partition
        self._log_limit = log_limit

    def handle(self, partition: int) -> TracedHandle:
        log = None
        if partition == self._log_partition and len(self.request_log) < self._log_limit:
            log = self.request_log
        return TracedHandle(self._inner.handle(partition), self._recorder, partition, log)
