"""Tests for the `repro status` / `repro journal inspect` rendering."""

from __future__ import annotations

from repro.catalog.tuples import TupleId
from repro.obs.status import inspect_journal, render_pacer, render_status
from repro.online.policy import MigrationPacer, PacingOptions
from repro.online.migration import MigrationJournal, MigrationPlan, MigrationStep


def _journal(copies: int = 3, drops: int = 2) -> MigrationJournal:
    plan = MigrationPlan(4)
    plan.previous = [(TupleId("t", (i,)), frozenset({0})) for i in range(copies)]
    plan.changes = [(TupleId("t", (i,)), frozenset({1})) for i in range(copies)]
    plan.copies = [MigrationStep("copy", TupleId("t", (i,)), 0, 1) for i in range(copies)]
    plan.drops = [MigrationStep("drop", TupleId("t", (i,)), 0) for i in range(drops)]
    plan.tuples_changed = copies
    return MigrationJournal(
        plan=plan, kind="resize", flip_mode="delta",
        old_num_partitions=2, new_num_partitions=4,
    )


def test_render_status_forward_progress():
    journal = _journal()
    journal.state = "copying"
    journal.copies_done = 2
    journal.records = 5
    text = render_status(journal)
    assert "migration resize (2 -> 4 partitions, flip=delta)" in text
    assert "state: copying" in text
    assert "journal records: 5" in text
    assert "[x] planned" in text
    assert "[>] copying" in text and "2/3 copies" in text
    assert "[ ] completed" in text
    assert "pacer window" not in text  # no pacer at hand
    assert "rollback" not in text


def test_render_status_terminal_and_rollback_branch():
    journal = _journal()
    journal.state = "cancelling"
    journal.copies_done = 3
    journal.drops_done = 1
    journal.rollback_restored = 1
    text = render_status(journal)
    assert "rollback progress:" in text
    assert "1/1 replicas restored" in text
    assert "0/3 added replicas removed" in text
    journal.state = "cancelled"
    journal.rollback_removed = 3
    assert "[terminal]" in render_status(journal)


def test_render_status_with_session_duck_typing():
    class FakeSession:
        journal = _journal()
        ticks = 7
        steps_executed = 12
        pacer = None

    FakeSession.journal.state = "completed"
    FakeSession.journal.copies_done = 3
    FakeSession.journal.drops_done = 2
    FakeSession.journal.flip_done = True
    text = render_status(FakeSession())
    assert "session: 7 ticks, 12 steps executed" in text
    assert "[x] dropping" in text


def test_render_pacer_window():
    pacer = MigrationPacer(PacingOptions(abort_rate_budget=0.10, p99_latency_budget=100.0))
    for _ in range(8):
        pacer.record(10.0)
    pacer.plan_steps()
    lines = render_pacer(pacer)
    text = "\n".join(lines)
    assert "p99 latency   10  (budget 100)" in text
    assert "abort rate    0.000  (budget 0.100)" in text
    assert "samples       8 latency / 8 outcomes" in text
    assert "step budget   " in text and "not yet planned" not in text
    assert "paused        no" in text
    assert "1 proceed / 0 throttle / 0 pause / 0 resume" in text


def test_render_status_includes_pacer_when_given():
    journal = _journal()
    pacer = MigrationPacer(PacingOptions())
    text = render_status(journal, pacer=pacer)
    assert "pacer window:" in text
    assert "step budget   not yet planned" in text
    assert "(no budget)" in text  # both budgets unset


def test_inspect_journal_forward_timeline():
    journal = _journal()
    journal.state = "dropping"
    journal.copies_done = 3
    journal.drops_done = 1
    journal.flip_done = True
    journal.records = 9
    text = inspect_journal(journal)
    assert "journal: resize migration, 2 -> 4 partitions" in text
    assert "records persisted: 9" in text
    assert "1. planned: journal opened" in text
    assert "copying: dual-write window opened, 3/3 copies executed" in text
    assert "dual-window: every tuple dually resident" in text
    assert "flipped: routing updated" in text
    assert "dropping: 1/2 stale replicas dropped" in text
    assert text.rstrip().endswith("current state: dropping")


def test_inspect_journal_rollback_timeline():
    journal = _journal()
    journal.state = "cancelled"
    journal.copies_done = 3
    journal.drops_done = 0
    journal.rollback_restored = 0
    journal.rollback_removed = 3
    text = inspect_journal(journal)
    assert "cancelling: rollback branch taken" in text
    assert "rollback remove: 3/3 added replicas removed" in text
    assert "cancelled: placement restored" in text
    assert "flip-back" not in text  # flip never happened
