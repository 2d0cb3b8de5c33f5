"""Retry/timeout/backoff policy for routed storage operations.

Every statement routed to a worker runs under this policy: a per-attempt
deadline, a bounded retry budget, exponential backoff between attempts with
**seeded** jitter, and a retryable-vs-fatal error classification so a
constraint violation is never retried while a dead worker is.

Determinism: the backoff *schedule* of an operation is a pure function of
``(seed, operation key)`` — each schedule draws its jitter from a
:meth:`repro.utils.rng.SeededRng.fork` sub-stream salted with the key, so
concurrent clients never race on a shared generator and two runs of the same
scenario produce byte-identical schedules on either array backend.  Only the
*durations actually slept* are wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.obs import get_telemetry
from repro.utils.rng import SeededRng

T = TypeVar("T")

#: classification outcomes.
RETRYABLE = "retryable"
FATAL = "fatal"
#: table-only marker: the error instance carries its own classification
#: (``RemoteStoreError.kind`` travels from the worker process).
CARRIED = "carried"

#: backoff growth per retry (exponential).
BACKOFF_MULTIPLIER = 2.0
#: upper bound on a single backoff delay in milliseconds (never below the
#: base delay).
BACKOFF_CAP_MS = 1000.0
#: fraction of each delay that is jittered: the drawn delay lies in
#: ``[delay * (1 - JITTER), delay]``.
JITTER = 0.5

#: The classification table: every exception type the storage layer raises,
#: registered retryable-or-fatal **by class name**.  :func:`classify_error`
#: resolves an instance by walking its MRO and taking the first registered
#: name, so subclasses inherit their base's classification unless they
#: register themselves.  The ``exception-classification`` invariant pass
#: (``tools/check_invariants.py``) audits that every ``raise`` under
#: ``src/repro/storage/`` names a registered type — an unregistered error
#: would otherwise default to FATAL silently, and a *wrong* default turns a
#: new error type into an infinite-retry loop or a dropped commit.
EXCEPTION_CLASSIFICATION: dict[str, str] = {
    # Transport-layer failures: the worker is dead, slow, or mid-restart —
    # a later attempt can legitimately succeed.
    "WorkerUnavailable": RETRYABLE,
    "WorkerTimeout": RETRYABLE,
    "BrokenPipeError": RETRYABLE,
    "ConnectionError": RETRYABLE,
    "TimeoutError": RETRYABLE,
    "EOFError": RETRYABLE,
    "OSError": RETRYABLE,
    # The worker classified the error itself; the instance carries it.
    "RemoteStoreError": CARRIED,
    # Data/logic errors: retrying reproduces the failure identically
    # (retrying a duplicate-key insert only burns the budget).
    "StoreConstraintError": FATAL,
    "UnsupportedStatementError": FATAL,
    "ValueError": FATAL,
    "RuntimeError": FATAL,
    # A program defect (the package's lazy export hook asked for a name it
    # does not have): the same lookup fails the same way every time.
    "AttributeError": FATAL,
    # Terminal policy outcomes: already *past* retrying — re-entering the
    # policy with one of these would loop the budget on itself.
    "RetryBudgetExhausted": FATAL,
    "InDoubtError": FATAL,
}


@dataclass
class RetryOptions:
    """Knobs of the storage retry policy.

    Mirrors :class:`~repro.graph.partitioner.PartitionerOptions` hygiene:
    count/duration knobs are clamped to sane floors on construction (zero or
    negative timeouts would otherwise turn every request into an instant
    failure).
    """

    #: per-attempt deadline for one worker request, in milliseconds.
    timeout_ms: float = 1000.0
    #: retry budget: total attempts are ``max_retries + 1``.
    max_retries: int = 4
    #: backoff before the first retry, in milliseconds.
    backoff_base_ms: float = 25.0

    def __post_init__(self) -> None:
        self.timeout_ms = max(1.0, float(self.timeout_ms))
        self.max_retries = max(0, int(self.max_retries))
        self.backoff_base_ms = max(0.0, float(self.backoff_base_ms))

    @property
    def timeout_s(self) -> float:
        """Per-attempt deadline in seconds."""
        return self.timeout_ms / 1000.0


class RetryBudgetExhausted(RuntimeError):
    """Every attempt of an operation failed with a retryable error."""

    def __init__(self, operation: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"{operation}: retry budget exhausted after {attempts} attempts "
            f"(last error: {last_error!r})"
        )
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


def classify_error(error: BaseException) -> str:
    """Classify an operation failure as :data:`RETRYABLE` or :data:`FATAL`.

    Resolution walks the instance's MRO against
    :data:`EXCEPTION_CLASSIFICATION`: the first registered class name wins,
    so ``ConnectionResetError`` inherits ``ConnectionError``'s RETRYABLE and
    ``StoreConstraintError`` overrides its ``ValueError`` base explicitly.
    A :data:`CARRIED` entry defers to the instance's own ``kind`` (the
    worker process classified the error before shipping it over the pipe).
    Unregistered types default to FATAL — the conservative direction (a
    dropped retry surfaces loudly; an infinite retry wedges a client) — and
    the static audit keeps that default from ever being exercised by code
    in the storage layer itself.
    """
    for klass in type(error).__mro__:
        classification = EXCEPTION_CLASSIFICATION.get(klass.__name__)
        if classification == CARRIED:
            return getattr(error, "kind", FATAL)
        if classification is not None:
            return classification
    return FATAL


class RetryPolicy:
    """Executes operations under :class:`RetryOptions` with seeded backoff."""

    def __init__(
        self,
        options: RetryOptions | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.options = options or RetryOptions()
        self.seed = seed
        self._sleep = sleep
        metrics = get_telemetry().metrics
        self._retries = metrics.counter(
            "storage.retries", "routed-operation retries by operation kind", labels=("op",)
        )
        self._backoff = metrics.histogram(
            "storage.backoff_ms", "scheduled backoff delays in milliseconds"
        )

    def schedule_for(self, key: object) -> tuple[float, ...]:
        """Backoff delays (ms) for the operation identified by ``key``.

        A pure function of ``(seed, key)``: the jitter draws come from a
        forked sub-stream salted with the key, independent of any other
        operation's draws and of thread interleaving.
        """
        base = self.options.backoff_base_ms
        cap = max(base, BACKOFF_CAP_MS)
        rng = SeededRng(self.seed).fork(("storage-retry", repr(key)))
        delays = []
        for attempt in range(self.options.max_retries):
            delay = min(cap, base * BACKOFF_MULTIPLIER**attempt)
            delay *= 1.0 - JITTER * rng.random()
            delays.append(delay)
        return tuple(delays)

    def run(self, operation: str, key: object, attempt: Callable[[], T]) -> T:
        """Run ``attempt`` under the policy; returns its result.

        Fatal errors propagate immediately (never retried); retryable errors
        consume the budget with the scheduled backoff between attempts, and
        exhaustion raises :class:`RetryBudgetExhausted` wrapping the last
        error.  The schedule is derived only once an attempt has failed
        retryably: the common first-attempt success pays no rng fork.
        """
        attempts = self.options.max_retries + 1
        schedule: tuple[float, ...] | None = None
        last_error: BaseException | None = None
        for index in range(attempts):
            try:
                return attempt()
            except BaseException as error:
                if classify_error(error) != RETRYABLE:
                    raise
                last_error = error
                if index < attempts - 1:
                    if schedule is None:
                        schedule = self.schedule_for(key)
                    self._retries.inc(op=operation)
                    delay_ms = schedule[index]
                    self._backoff.observe(delay_ms)
                    if delay_ms > 0.0:
                        self._sleep(delay_ms / 1000.0)
        assert last_error is not None
        raise RetryBudgetExhausted(operation, attempts, last_error)
