"""The one wall-clock timing primitive of the telemetry layer.

Every timed region in the system — pipeline stage timings
(``PipelineState.timings``), experiment stopwatches, and the duration side
of tracing spans — measures through :class:`Stopwatch`, so there is exactly
one timing code path.  Wall-clock readings are *observability-only*: they never
feed span ids, metric snapshot bytes, or any other content that must be
byte-deterministic across runs (see :mod:`repro.obs.metrics` on volatile
families).
"""

from __future__ import annotations

import time


class Stopwatch:
    """Context-manager stopwatch over ``time.perf_counter``.

    Example
    -------
    >>> with Stopwatch() as watch:
    ...     sum(range(10))
    >>> watch.elapsed >= 0.0
    True
    """

    __slots__ = ("_start", "elapsed")

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the stopwatch and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Stopwatch was never started")
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed
