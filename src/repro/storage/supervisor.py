"""Supervision of partition worker processes.

The supervisor owns the mapping ``partition -> WorkerHandle`` and is the
only component allowed to replace a handle.  A background health-check
thread polls liveness (``Process.is_alive`` plus a ``ping`` round-trip) and
restarts any worker that died — the replacement opens the same SQLite file,
which replays the WAL and resumes from the last committed state.  Restarts
are generation-guarded: a client holding a stale handle gets
``WorkerUnavailable`` and re-fetches through the supervisor on its next
retry attempt.

Every lifecycle event (start, crash detection, restart) is journaled as a
snapshot through a journal sink — by default the fsync'd
:class:`~repro.online.migration.FileJournalSink` — so a post-mortem can
reconstruct the crash/recovery timeline even if the parent itself dies.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Mapping

from repro.catalog.schema import Schema
from repro.obs import get_telemetry
from repro.storage.worker import WorkerHandle, WorkerTimeout, WorkerUnavailable

#: the protocol a journal sink satisfies (``write(text)``); both
#: MemoryJournalSink and FileJournalSink qualify.
JournalSink = object


class WorkerSupervisor:
    """Starts, health-checks, and restarts the partition workers."""

    def __init__(
        self,
        paths: Mapping[int, str],
        schema: Schema,
        *,
        journal_sink: object | None = None,
        health_interval_s: float = 0.05,
        ping_timeout_s: float = 1.0,
        startup_deadline_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._paths = dict(paths)
        self._schema = schema
        self._journal_sink = journal_sink
        self._health_interval_s = health_interval_s
        self._ping_timeout_s = ping_timeout_s
        self._startup_deadline_s = startup_deadline_s
        self._clock = clock
        self._started = False
        self._lock = threading.Lock()
        self._handles: dict[int, WorkerHandle] = {}
        self._generations: dict[int, int] = {partition: 0 for partition in self._paths}
        self._events: list[dict[str, object]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = get_telemetry().metrics
        self._restarts = metrics.counter(
            "storage.worker_restarts",
            "worker processes restarted by the supervisor",
            labels=("reason",),
        )
        self._alive_gauge = metrics.gauge(
            "storage.workers_alive", "worker processes currently alive"
        )

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and begin health-checking."""
        with self._lock:
            for partition, path in sorted(self._paths.items()):
                handle = WorkerHandle(partition, path, self._schema, generation=0)
                self._handles[partition] = handle
                self._record_event("start", partition, 0)
        try:
            self._probe_all()
        except Exception:
            # Never leak live worker processes behind a failed start — they
            # would pin the SQLite files and survive the parent.
            with self._lock:
                handles = list(self._handles.values())
                self._handles.clear()
            for handle in handles:
                handle.close()
            raise
        self._alive_gauge.set(len(self._handles))
        self._thread = threading.Thread(
            target=self._health_loop, name="repro-storage-supervisor", daemon=True
        )
        self._thread.start()
        self._started = True

    def close(self) -> None:
        """Stop health-checking, then stop every worker."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            handle.close()
        self._alive_gauge.set(0)

    # -- handle access -----------------------------------------------------------------
    @property
    def partitions(self) -> list[int]:
        """The supervised partition ids, sorted."""
        return sorted(self._paths)

    def handle(self, partition: int) -> WorkerHandle:
        """The current handle of ``partition`` (restarts swap it out)."""
        with self._lock:
            try:
                return self._handles[partition]
            except KeyError:
                raise WorkerUnavailable(partition, "unknown partition") from None

    def add_partition(self, partition: int, path: str) -> None:
        """Begin supervising a new (empty) partition — the elastic grow path.

        When the supervisor is already running, the worker is spawned and
        probed immediately; otherwise it joins the next :meth:`start`.
        """
        with self._lock:
            if partition in self._paths:
                return
            self._paths[partition] = path
            self._generations[partition] = 0
            if self._started:
                self._handles[partition] = WorkerHandle(
                    partition, path, self._schema, generation=0
                )
                self._record_event("start", partition, 0)
        if self._started:
            self._probe_all([partition])
            with self._lock:
                alive = sum(1 for handle in self._handles.values() if handle.alive)
            self._alive_gauge.set(alive)

    def remove_partition(self, partition: int) -> None:
        """Stop supervising ``partition`` and shut its worker down — the
        elastic shrink path (caller has already evacuated the data)."""
        with self._lock:
            if partition not in self._paths:
                return
            del self._paths[partition]
            self._generations.pop(partition, None)
            handle = self._handles.pop(partition, None)
            generation = handle.generation if handle is not None else 0
            self._record_event("stop", partition, generation)
        if handle is not None:
            handle.close()
        with self._lock:
            alive = sum(1 for h in self._handles.values() if h.alive)
        self._alive_gauge.set(alive)

    def kill_worker(self, partition: int) -> None:
        """SIGKILL ``partition``'s worker (chaos-harness entry point).

        The supervisor's health loop notices and restarts it; callers see
        retryable errors in the window between kill and restart.
        """
        self.handle(partition).kill()

    # -- health checking ---------------------------------------------------------------
    def check_once(self) -> list[int]:
        """One health-check sweep; returns the partitions restarted."""
        restarted = []
        with self._lock:
            dead = [
                (partition, handle)
                for partition, handle in self._handles.items()
                if not handle.alive
            ]
        for partition, handle in dead:
            if self._restart(partition, handle, reason="crash"):
                restarted.append(partition)
        return restarted

    def ping(self, partition: int) -> bool:
        """Round-trip liveness probe of one worker."""
        try:
            return self.handle(partition).request("ping", timeout_s=self._ping_timeout_s) == "pong"
        except (WorkerUnavailable, WorkerTimeout):
            return False

    def _probe_all(
        self, partitions: list[int] | None = None, deadline_s: float | None = None
    ) -> None:
        """Wait for every worker's first ping.

        A spawned worker answers ~0.17 s after it is started on an idle
        2-core host (a fresh interpreter importing only its SQLite store),
        and several times that under load, so the startup probe retries
        against a deadline (the constructor's ``startup_deadline_s`` by
        default) instead of one strict shot."""
        if deadline_s is None:
            deadline_s = self._startup_deadline_s
        deadline = self._clock() + deadline_s
        for partition in self.partitions if partitions is None else partitions:
            while True:
                if self.ping(partition):
                    break
                if not self.handle(partition).process.is_alive():  # pragma: no cover
                    raise WorkerUnavailable(partition, "died during startup")
                if self._clock() >= deadline:
                    raise WorkerUnavailable(partition, "did not answer startup ping")

    def _restart(self, partition: int, dead_handle: WorkerHandle, reason: str) -> bool:
        with self._lock:
            # Generation guard: only the thread that observed the *current*
            # handle dead performs the restart; racing observers no-op.  A
            # partition removed (elastic shrink) between observation and here
            # must not be resurrected.
            if self._handles.get(partition) is not dead_handle:
                return False
            if partition not in self._paths:
                return False
            generation = self._generations[partition] + 1
            self._generations[partition] = generation
            dead_handle.abandon()
            self._record_event("crash-detected", partition, generation - 1)
            replacement = WorkerHandle(
                partition, self._paths[partition], self._schema, generation=generation
            )
            self._handles[partition] = replacement
            self._record_event("restart", partition, generation)
        self._restarts.inc(reason=reason)
        return True

    def _health_loop(self) -> None:
        while not self._stop.wait(self._health_interval_s):
            try:
                self.check_once()
            except Exception:  # pragma: no cover - supervision must not die
                pass
            with self._lock:
                alive = sum(1 for handle in self._handles.values() if handle.alive)
            self._alive_gauge.set(alive)

    # -- journaling --------------------------------------------------------------------
    @property
    def events(self) -> list[dict[str, object]]:
        """The lifecycle event log (copies; oldest first)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def restart_count(self) -> int:
        """Restarts performed so far (every crash must map to one)."""
        return sum(1 for event in self.events if event["event"] == "restart")

    def _record_event(self, event: str, partition: int, generation: int) -> None:
        # Caller holds the lock (or is in single-threaded start()).
        self._events.append(
            {
                "event": event,
                "partition": partition,
                "generation": generation,
                "at_s": round(self._clock(), 6),
            }
        )
        if self._journal_sink is not None:
            payload = {"format": "repro-storage-supervisor/1", "events": self._events}
            self._journal_sink.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
