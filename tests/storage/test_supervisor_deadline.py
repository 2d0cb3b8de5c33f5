"""The supervisor's startup-probe deadline is a constructor knob.

A spawned worker answers its first ping ~0.17 s after it is started on an
idle 2-core host (it imports only its SQLite store); the 30 s default
covers loaded CI machines where that stretches by orders of magnitude, and
tests and latency-sensitive callers can shrink it.  Probed with a fake
clock and stubbed pings — no worker process is ever spawned.
"""

from __future__ import annotations

import pytest

from repro.storage.supervisor import WorkerSupervisor
from repro.storage.worker import WorkerUnavailable

pytestmark = pytest.mark.storage


class _AliveProcess:
    def is_alive(self) -> bool:
        return True


class _AliveHandle:
    process = _AliveProcess()


def _supervisor(bank_schema, clock, deadline_s):
    return WorkerSupervisor(
        {0: "unused.sqlite"},
        bank_schema,
        startup_deadline_s=deadline_s,
        clock=lambda: clock["now"],
    )


def test_probe_gives_up_at_the_configured_deadline(bank_schema, monkeypatch):
    clock = {"now": 0.0}
    supervisor = _supervisor(bank_schema, clock, deadline_s=2.5)
    monkeypatch.setattr(supervisor, "handle", lambda partition: _AliveHandle())
    probes = []

    def silent_ping(partition):
        clock["now"] += 1.0
        probes.append(partition)
        return False

    monkeypatch.setattr(supervisor, "ping", silent_ping)
    with pytest.raises(WorkerUnavailable) as excinfo:
        supervisor._probe_all()
    assert "startup ping" in str(excinfo.value)
    # Deadline 2.5 with 1 s probes: attempts at t=1, 2, 3 — the third crosses.
    assert probes == [0, 0, 0]


def test_probe_succeeds_before_the_deadline(bank_schema, monkeypatch):
    clock = {"now": 0.0}
    supervisor = _supervisor(bank_schema, clock, deadline_s=5.0)
    monkeypatch.setattr(supervisor, "handle", lambda partition: _AliveHandle())
    answers = iter([False, False, True])

    def slow_ping(partition):
        clock["now"] += 1.0
        return next(answers)

    monkeypatch.setattr(supervisor, "ping", slow_ping)
    supervisor._probe_all()  # returns without raising


def test_explicit_deadline_overrides_the_knob(bank_schema, monkeypatch):
    clock = {"now": 0.0}
    supervisor = _supervisor(bank_schema, clock, deadline_s=1000.0)
    monkeypatch.setattr(supervisor, "handle", lambda partition: _AliveHandle())

    def silent_ping(partition):
        clock["now"] += 1.0
        return False

    monkeypatch.setattr(supervisor, "ping", silent_ping)
    with pytest.raises(WorkerUnavailable):
        supervisor._probe_all(deadline_s=2.0)
    assert clock["now"] < 10.0  # gave up at the override, not the knob
