"""Retry/timeout/backoff policy in isolation (no worker processes).

The contract under test: schedules are a pure function of ``(seed, key)``
— byte-identical across instances, reruns, and array backends — the budget
is bounded, the cap binds, and fatal errors never consume it.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage import retry
from repro.storage.retry import (
    FATAL,
    RETRYABLE,
    RetryBudgetExhausted,
    RetryOptions,
    RetryPolicy,
    classify_error,
)
from repro.storage.sqlite_store import StoreConstraintError
from repro.storage.worker import RemoteStoreError, WorkerTimeout, WorkerUnavailable


# -- options hygiene (mirrors PartitionerOptions clamping) --------------------------


def test_options_clamp_count_and_duration_knobs():
    options = RetryOptions(timeout_ms=0.0, max_retries=-3, backoff_base_ms=-10.0)
    assert options.timeout_ms == 1.0
    assert options.max_retries == 0
    assert options.backoff_base_ms == 0.0


def test_timeout_s_converts_milliseconds():
    assert RetryOptions(timeout_ms=250.0).timeout_s == 0.25


# -- schedule determinism -----------------------------------------------------------


def test_schedule_is_pure_function_of_seed_and_key():
    options = RetryOptions(max_retries=5)
    first = RetryPolicy(options, seed=7).schedule_for(("apply", 3))
    second = RetryPolicy(options, seed=7).schedule_for(("apply", 3))
    assert first == second
    # a different key draws from an independent sub-stream...
    assert RetryPolicy(options, seed=7).schedule_for(("apply", 4)) != first
    # ...and so does a different seed.
    assert RetryPolicy(options, seed=8).schedule_for(("apply", 3)) != first


def test_schedule_unaffected_by_prior_draws():
    """Interleaving other operations' schedules must not shift this key's."""
    options = RetryOptions(max_retries=4)
    policy = RetryPolicy(options, seed=0)
    baseline = policy.schedule_for(("apply", ("txn-1", 0)))
    for other in range(10):
        policy.schedule_for(("read", other))
    assert policy.schedule_for(("apply", ("txn-1", 0))) == baseline


_SCHEDULE_SNIPPET = """
from repro.storage.retry import RetryOptions, RetryPolicy
policy = RetryPolicy(RetryOptions(max_retries=6), seed=3)
print(repr(policy.schedule_for(("apply", ("txn-9", 2)))))
"""


def _schedule_via_subprocess(backend: str) -> bytes:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_ARRAY_BACKEND"] = backend
    result = subprocess.run(
        [sys.executable, "-c", _SCHEDULE_SNIPPET],
        capture_output=True,
        env=env,
        cwd=str(root),
        check=True,
    )
    return result.stdout


def test_schedule_byte_identical_across_array_backends():
    """The forked rng stream must not depend on the numpy/list backend choice."""
    pytest.importorskip("numpy")
    list_backend = _schedule_via_subprocess("list")
    numpy_backend = _schedule_via_subprocess("numpy")
    assert list_backend == numpy_backend
    # and across reruns of the same backend (fresh interpreters).
    assert _schedule_via_subprocess("list") == list_backend


def test_schedule_respects_cap_and_jitter_band(monkeypatch):
    monkeypatch.setattr(retry, "BACKOFF_MULTIPLIER", 10.0)
    monkeypatch.setattr(retry, "BACKOFF_CAP_MS", 250.0)
    options = RetryOptions(backoff_base_ms=100.0, max_retries=4)
    caps = (100.0, 250.0, 250.0, 250.0)
    monkeypatch.setattr(retry, "JITTER", 0.0)
    assert RetryPolicy(options, seed=0).schedule_for("k") == caps
    monkeypatch.setattr(retry, "JITTER", 0.5)
    jittered = RetryPolicy(options, seed=0).schedule_for("k")
    for delay, cap in zip(jittered, caps):
        assert cap * 0.5 <= delay <= cap


def test_options_cap_clamped_to_base():
    """The cap never falls below the base delay (clamped where the schedule is drawn)."""
    options = RetryOptions(backoff_base_ms=2 * retry.BACKOFF_CAP_MS, max_retries=3)
    schedule = RetryPolicy(options, seed=0).schedule_for("k")
    assert max(schedule) > retry.BACKOFF_CAP_MS
    for delay in schedule:
        assert options.backoff_base_ms * (1.0 - retry.JITTER) <= delay <= options.backoff_base_ms


# -- classification -----------------------------------------------------------------


def test_transport_errors_are_retryable():
    for error in (
        WorkerUnavailable(0, "worker process died"),
        WorkerTimeout(0, "apply", 0.5),
        BrokenPipeError(),
        EOFError(),
        OSError("pipe"),
        RemoteStoreError(0, RETRYABLE, "disk hiccup"),
    ):
        assert classify_error(error) == RETRYABLE


def test_constraint_violations_are_fatal():
    assert classify_error(StoreConstraintError("UNIQUE constraint failed")) == FATAL
    assert classify_error(RemoteStoreError(0, FATAL, "UNIQUE constraint failed")) == FATAL
    assert classify_error(ValueError("malformed statement")) == FATAL


# -- run() semantics ----------------------------------------------------------------


def _recording_policy(options: RetryOptions, seed: int = 0):
    slept: list[float] = []
    policy = RetryPolicy(options, seed=seed, sleep=slept.append)
    return policy, slept


def test_budget_exhaustion_raises_after_max_retries_plus_one_attempts():
    options = RetryOptions(max_retries=3, backoff_base_ms=10.0)
    policy, slept = _recording_policy(options)
    calls = []

    def attempt():
        calls.append(1)
        raise WorkerTimeout(0, "apply", 0.5)

    with pytest.raises(RetryBudgetExhausted) as info:
        policy.run("apply", "k", attempt)
    assert len(calls) == options.max_retries + 1
    assert info.value.attempts == options.max_retries + 1
    assert isinstance(info.value.last_error, WorkerTimeout)
    # every scheduled delay was actually slept, in order.
    assert tuple(s * 1000.0 for s in slept) == pytest.approx(policy.schedule_for("k"))


def test_success_after_transient_failures_consumes_partial_budget():
    policy, slept = _recording_policy(RetryOptions(max_retries=4, backoff_base_ms=5.0))
    attempts = iter(
        [WorkerUnavailable(0, "restarting"), WorkerUnavailable(0, "restarting"), None]
    )

    def attempt():
        error = next(attempts)
        if error is not None:
            raise error
        return "applied"

    assert policy.run("apply", "k", attempt) == "applied"
    assert len(slept) == 2


def test_first_attempt_success_never_derives_a_schedule(monkeypatch):
    policy, slept = _recording_policy(RetryOptions(max_retries=4))
    monkeypatch.setattr(
        policy, "schedule_for", lambda key: pytest.fail("schedule derived on the hot path")
    )
    assert policy.run("read", ("txn-1", "read", 0), lambda: "rows") == "rows"
    assert slept == []


def test_failure_then_success_sleeps_exactly_the_first_scheduled_delay():
    policy, slept = _recording_policy(RetryOptions(max_retries=4, backoff_base_ms=5.0), seed=3)
    attempts = iter([WorkerUnavailable(0, "restarting"), None])

    def attempt():
        error = next(attempts)
        if error is not None:
            raise error
        return "rows"

    key = ("txn-1", "read", 0)
    assert policy.run("read", key, attempt) == "rows"
    assert [s * 1000.0 for s in slept] == pytest.approx([policy.schedule_for(key)[0]])


def test_non_retryable_error_never_retries_and_never_sleeps():
    policy, slept = _recording_policy(RetryOptions(max_retries=5, backoff_base_ms=10.0))
    calls = []

    def attempt():
        calls.append(1)
        raise StoreConstraintError("UNIQUE constraint failed: account.id")

    with pytest.raises(StoreConstraintError):
        policy.run("apply", "k", attempt)
    assert calls == [1]
    assert slept == []


def test_zero_retries_budget_fails_on_first_retryable_error():
    policy, slept = _recording_policy(RetryOptions(max_retries=0))
    with pytest.raises(RetryBudgetExhausted) as info:
        policy.run("read", "k", lambda: (_ for _ in ()).throw(WorkerTimeout(0, "read", 0.5)))
    assert info.value.attempts == 1
    assert slept == []


# -- the classification table (audited by the exception-classification pass) --------


def test_every_storage_exception_type_is_registered():
    """The table is total over the layer's own exception types, by name."""
    from repro.storage.coordinator import InDoubtError
    from repro.storage.retry import EXCEPTION_CLASSIFICATION
    from repro.storage.sql import UnsupportedStatementError

    for klass in (
        WorkerUnavailable,
        WorkerTimeout,
        RemoteStoreError,
        StoreConstraintError,
        UnsupportedStatementError,
        RetryBudgetExhausted,
        InDoubtError,
    ):
        assert klass.__name__ in EXCEPTION_CLASSIFICATION, klass.__name__


def test_classification_walks_the_mro():
    # ConnectionResetError is unregistered itself; it inherits
    # ConnectionError's RETRYABLE through the MRO walk.
    assert classify_error(ConnectionResetError("peer reset")) == RETRYABLE
    # StoreConstraintError registers itself FATAL ahead of its ValueError base.
    assert classify_error(StoreConstraintError("UNIQUE constraint failed")) == FATAL
    # A missing name (the storage package's lazy export hook raises
    # AttributeError) is a defect: registered FATAL, and its subclasses with it.
    assert retry.EXCEPTION_CLASSIFICATION["AttributeError"] == FATAL
    assert classify_error(dataclasses.FrozenInstanceError("frozen")) == FATAL


def test_remote_store_error_carries_its_own_kind():
    assert classify_error(RemoteStoreError(0, RETRYABLE, "disk io")) == RETRYABLE
    assert classify_error(RemoteStoreError(0, FATAL, "duplicate key")) == FATAL


def test_unregistered_exception_defaults_to_fatal():
    class NovelError(Exception):
        pass

    assert classify_error(NovelError("brand new")) == FATAL


def test_terminal_policy_outcomes_are_fatal():
    from repro.storage.coordinator import InDoubtError

    exhausted = RetryBudgetExhausted("apply", 3, WorkerTimeout(0, "apply", 0.5))
    assert classify_error(exhausted) == FATAL
    assert classify_error(InDoubtError("txn-1 outcome unknown")) == FATAL
