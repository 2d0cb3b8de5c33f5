"""Unit tests for the SLO-aware migration pacer."""

from __future__ import annotations

import pytest

from repro.online import policy
from repro.online.policy import MigrationPacer, PacingOptions


@pytest.fixture(autouse=True)
def small_windows(monkeypatch):
    """A pacer that decides after 8 samples and backs off to at most 8 ticks."""
    monkeypatch.setattr(policy, "MIN_SAMPLES", 8)
    monkeypatch.setattr(policy, "BACKOFF_MAX", 8)


def _pacer():
    return MigrationPacer(
        PacingOptions(
            abort_rate_budget=0.10,
            p99_latency_budget=100.0,
            max_steps=16,
            throttled_steps=4,
        )
    )


def _feed(pacer, latency=10.0, aborted=False, count=1):
    for _ in range(count):
        pacer.record(latency, aborted=aborted)


def test_options_validation():
    with pytest.raises(ValueError):
        PacingOptions(abort_rate_budget=1.5)
    with pytest.raises(ValueError):
        PacingOptions(max_steps=0)


def test_full_budget_before_min_samples():
    pacer = _pacer()
    # Even all-aborted traffic is ignored until min_samples accumulate:
    # a couple of early failures must not stall the migration.
    _feed(pacer, aborted=True, count=4)
    assert pacer.plan_steps() == 16
    assert pacer.pauses == 0


def test_healthy_traffic_gets_max_steps():
    pacer = _pacer()
    _feed(pacer, latency=10.0, count=32)
    assert pacer.plan_steps() == 16
    assert pacer.proceeds == 1


def test_abort_rate_over_budget_pauses_with_backoff(monkeypatch):
    monkeypatch.setattr(policy, "BACKOFF_INITIAL", 2)
    pacer = _pacer()
    _feed(pacer, latency=10.0, count=20)
    _feed(pacer, aborted=True, count=10)  # 10/30 >> 0.10
    # First over-budget tick pauses and schedules a 2-tick backoff window.
    assert pacer.plan_steps() == 0
    assert pacer.plan_steps() == 0
    assert pacer.plan_steps() == 0
    assert pacer.pauses == 3
    # Pressure persisted through the backoff, so the window doubled: the
    # re-evaluation paused again for 4 ticks (2 -> 4 -> 8, capped at 8).
    for _ in range(4):
        assert pacer.plan_steps() == 0


def test_resume_after_pressure_clears():
    pacer = _pacer()
    _feed(pacer, latency=10.0, count=20)
    _feed(pacer, aborted=True, count=10)
    assert pacer.plan_steps() == 0  # paused
    assert pacer.plan_steps() == 0  # backoff tick
    # Healthy traffic slides the aborts out of the window.
    _feed(pacer, latency=10.0, count=300)
    assert pacer.plan_steps() == 16
    assert pacer.resumes == 1
    # Backoff reset: a fresh pause starts back at the initial window.
    _feed(pacer, aborted=True, count=40)
    assert pacer.plan_steps() == 0
    assert pacer.pauses >= 2


def test_latency_over_budget_pauses():
    pacer = _pacer()
    _feed(pacer, latency=500.0, count=32)  # p99 500 > budget 100
    assert pacer.plan_steps() == 0
    assert pacer.p99_latency() == 500.0


def test_latency_near_budget_throttles():
    pacer = _pacer()  # PRESSURE_RATIO 0.75 -> near zone (75, 100]
    _feed(pacer, latency=90.0, count=32)
    assert pacer.plan_steps() == 4
    assert pacer.throttles == 1
    assert pacer.pauses == 0


def test_idle_tick_releases_a_stuck_pause():
    pacer = _pacer()
    _feed(pacer, aborted=True, count=32)
    assert pacer.plan_steps() == 0
    # Traffic ended with the window frozen over budget: without the idle
    # escape every future tick would pause forever.
    assert pacer.plan_steps(idle=True) == 16
    assert pacer.resumes == 1
    # Not sticky: live ticks against the still-bad window pause again.
    assert pacer.plan_steps() == 0


def test_no_budgets_means_no_pressure():
    pacer = MigrationPacer(PacingOptions())  # both budgets None
    _feed(pacer, latency=10_000.0, count=32)
    _feed(pacer, aborted=True, count=32)
    assert pacer.plan_steps() == PacingOptions().max_steps
    assert pacer.pauses == 0


def test_abort_rate_window_is_bounded(monkeypatch):
    monkeypatch.setattr(policy, "ABORT_WINDOW", 16)
    pacer = _pacer()
    _feed(pacer, aborted=True, count=16)
    assert pacer.abort_rate() == 1.0
    _feed(pacer, latency=10.0, count=16)
    # The old aborts aged out of the 16-sample window entirely.
    assert pacer.abort_rate() == 0.0


def test_snapshot_reflects_window_and_decisions():
    pacer = _pacer()
    window = pacer.snapshot()
    # Before any traffic or planning: empty window, no budget decided yet.
    assert window.latency_samples == 0 and window.abort_samples == 0
    assert window.last_budget is None
    assert window.p99_latency_budget == 100.0
    assert window.abort_rate_budget == 0.10
    assert not window.paused

    _feed(pacer, latency=10.0, count=32)
    assert pacer.plan_steps() == 16
    window = pacer.snapshot()
    assert window.latency_samples == 32 and window.abort_samples == 32
    assert window.p99_latency == 10.0
    assert window.abort_rate == 0.0
    assert window.last_budget == 16
    assert (window.proceeds, window.throttles, window.pauses, window.resumes) == (1, 0, 0, 0)


def test_snapshot_tracks_pause_and_backoff(monkeypatch):
    monkeypatch.setattr(policy, "BACKOFF_INITIAL", 2)
    pacer = _pacer()
    _feed(pacer, aborted=True, count=32)
    assert pacer.plan_steps() == 0
    window = pacer.snapshot()
    assert window.paused
    assert window.pause_remaining == 2
    # the stored backoff already doubled for the *next* pause
    assert window.backoff == 4
    assert window.pauses == 1
    assert window.last_budget == 0


def test_snapshot_is_read_only():
    import dataclasses

    import pytest

    pacer = _pacer()
    window = pacer.snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        window.paused = True
