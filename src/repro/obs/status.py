"""Human-readable rendering of migration state for the CLI.

Two surfaces:

* :func:`render_status` — the ``repro status`` view of a migration: the
  journal's state machine with progress cursors, plus — when a live
  :class:`~repro.online.migration.MigrationSession` (or its pacer) is at
  hand — the pacer's window snapshot (p99, abort rate, step budget,
  pause/backoff).
* :func:`inspect_journal` — the ``repro journal inspect`` view: a journal
  file replayed into a phase-by-phase timeline.

Both work from duck-typed journal/pacer objects so this module stays
import-light (no cycle back into :mod:`repro.online`).
"""

from __future__ import annotations


def _journal_of(target):
    """Accept a journal or anything carrying one (a ``MigrationSession``)."""
    return getattr(target, "journal", target)


def _is_storage(journal) -> bool:
    """Whether the journal records a real-storage (SQLite) migration."""
    return getattr(journal, "backend", "simulated") == "storage"


def _forward_phase_rows(journal) -> list[tuple[str, str, str]]:
    """(marker, state, detail) rows for the forward half of the state machine."""
    total_copies = len(journal.plan.copies)
    total_drops = len(journal.plan.drops)
    storage = _is_storage(journal)
    order = ["planned", "copying", "dual-window", "flipped", "dropping", "completed"]
    if journal.state in order:
        position = order.index(journal.state)
    else:
        # On the rollback branch every forward phase up to the journalled
        # cursors had run; render how far forward progress got.
        position = len(order)
    rows = []
    for index, state in enumerate(order):
        if index < position:
            marker = "done"
        elif index == position:
            marker = "now"
        else:
            marker = "todo"
        if state == "copying":
            unit = "rows copied across partitions" if storage else "copies"
            detail = f"{journal.copies_done}/{total_copies} {unit}"
        elif state == "dropping":
            unit = "stale rows dropped" if storage else "drops"
            detail = f"{journal.drops_done}/{total_drops} {unit}"
        elif state == "dual-window":
            detail = "all tuples dually resident"
        elif state == "flipped":
            detail = "routing flip " + ("done" if journal.flip_done else "pending")
        else:
            detail = ""
        rows.append((marker, state, detail))
    return rows


def _rollback_phase_rows(journal) -> list[tuple[str, str, str]]:
    """(marker, phase, detail) rows for the rollback branch."""
    restore_total = journal.drops_done
    remove_total = journal.copies_done
    rows = []
    restore_done = journal.rollback_restored >= restore_total
    rows.append((
        "done" if restore_done else "now",
        "restore",
        f"{journal.rollback_restored}/{restore_total} replicas restored",
    ))
    flip_needed = journal.flip_done
    if flip_needed:
        flip_done = journal.rollback_flip_done
        rows.append((
            "done" if flip_done else ("now" if restore_done else "todo"),
            "flip-back",
            "routing reverted" if flip_done else "routing flip-back pending",
        ))
    else:
        flip_done = True
    remove_done = journal.rollback_removed >= remove_total
    rows.append((
        "done" if remove_done and journal.state == "cancelled"
        else ("now" if restore_done and flip_done else "todo"),
        "remove",
        f"{journal.rollback_removed}/{remove_total} added replicas removed",
    ))
    return rows


_MARKERS = {"done": "[x]", "now": "[>]", "todo": "[ ]"}


def _render_rows(rows: list[tuple[str, str, str]]) -> list[str]:
    width = max(len(state) for _, state, _ in rows)
    lines = []
    for marker, state, detail in rows:
        line = f"  {_MARKERS[marker]} {state.ljust(width)}"
        if detail:
            line += f"  {detail}"
        lines.append(line.rstrip())
    return lines


def render_pacer(pacer) -> list[str]:
    """The pacer window section of ``repro status`` (list of lines)."""
    window = pacer.snapshot()
    lines = [
        "pacer window:",
        f"  p99 latency   {window.p99_latency:g}"
        + (
            f"  (budget {window.p99_latency_budget:g})"
            if window.p99_latency_budget is not None
            else "  (no budget)"
        ),
        f"  abort rate    {window.abort_rate:.3f}"
        + (
            f"  (budget {window.abort_rate_budget:.3f})"
            if window.abort_rate_budget is not None
            else "  (no budget)"
        ),
        f"  samples       {window.latency_samples} latency / {window.abort_samples} outcomes",
        f"  step budget   {window.last_budget if window.last_budget is not None else 'not yet planned'}",
    ]
    if window.paused:
        lines.append(
            f"  paused        yes ({window.pause_remaining} ticks remaining, "
            f"backoff {window.backoff})"
        )
    else:
        lines.append(f"  paused        no (backoff {window.backoff})")
    lines.append(
        "  decisions     "
        f"{window.proceeds} proceed / {window.throttles} throttle / "
        f"{window.pauses} pause / {window.resumes} resume"
    )
    return lines


def render_status(target, pacer=None) -> str:
    """Render a migration session or journal as the ``repro status`` text.

    ``target`` is a :class:`~repro.online.migration.MigrationSession` or a
    bare :class:`~repro.online.migration.MigrationJournal` (e.g. loaded from
    a journal file).  A pacer window section appears when ``target`` carries
    a pacer (live session) or one is passed explicitly.
    """
    journal = _journal_of(target)
    if pacer is None:
        pacer = getattr(target, "pacer", None)
    direction = f"{journal.old_num_partitions} -> {journal.new_num_partitions} partitions"
    lines = [
        f"migration {journal.kind} ({direction}, flip={journal.flip_mode})",
    ]
    if _is_storage(journal):
        # A storage-backed journal drives real SQLite partition workers, so
        # the counters below are durable rows moved under the exactly-once
        # transaction-id namespace — not simulated-cluster bookkeeping.
        lines.append(
            "backend: storage (SQLite partition workers), "
            f"migration id {journal.migration_id}"
        )
    lines.extend([
        f"state: {journal.state}"
        + ("  [terminal]" if journal.is_terminal else ""),
        f"journal records: {journal.records}",
    ])
    if journal.tuples_pinned:
        lines.append(f"tuples pinned: {journal.tuples_pinned}")
    lines.append("forward progress:")
    lines.extend(_render_rows(_forward_phase_rows(journal)))
    if journal.state in ("cancelling", "cancelled"):
        lines.append("rollback progress:")
        lines.extend(_render_rows(_rollback_phase_rows(journal)))
    ticks = getattr(target, "ticks", None)
    if ticks is not None:
        lines.append(
            f"session: {ticks} ticks, {getattr(target, 'steps_executed', 0)} steps executed"
        )
    if pacer is not None:
        lines.extend(render_pacer(pacer))
    return "\n".join(lines) + "\n"


def inspect_journal(journal) -> str:
    """Replay a journal snapshot into a human-readable timeline.

    A journal file holds the *latest* snapshot, not an event log; the
    timeline is reconstructed from the cursors: every phase the state
    machine must have passed through to reach the journalled state, with
    the per-phase progress counts.
    """
    plan = journal.plan
    header = [
        f"journal: {journal.kind} migration, "
        f"{journal.old_num_partitions} -> {journal.new_num_partitions} partitions",
        f"flip mode: {journal.flip_mode} (default policy {journal.default_policy})",
        f"plan: {len(plan.copies)} copies, {len(plan.drops)} drops, "
        f"{plan.tuples_changed} tuples changed "
        f"({plan.tuples_replicated} replicated, {plan.tuples_moved} moved)",
        f"records persisted: {journal.records}",
        "",
        "timeline:",
    ]
    events: list[str] = []

    def phase(description: str) -> None:
        events.append(f"  {len(events) + 1:2d}. {description}")

    phase("planned: journal opened")
    forward = ("copying", "dual-window", "flipped", "dropping", "completed")
    state = journal.state
    on_rollback = state in ("cancelling", "cancelled")
    reached = len(forward) if on_rollback else (
        forward.index(state) + 1 if state in forward else 0
    )
    if reached >= 1 or journal.copies_done:
        phase(
            f"copying: dual-write window opened, "
            f"{journal.copies_done}/{len(plan.copies)} copies executed"
        )
    if on_rollback:
        # How far forward progress got before the cancel is implied by the
        # cursors, not the state (which already moved to the branch).
        if journal.flip_done:
            phase("dual-window: every tuple dually resident")
            phase("flipped: routing updated to the new placement")
        if journal.drops_done:
            phase(f"dropping: {journal.drops_done}/{len(plan.drops)} stale replicas dropped")
        phase("cancelling: rollback branch taken")
        phase(
            f"rollback restore: {journal.rollback_restored}/{journal.drops_done} "
            f"dropped replicas restored"
        )
        if journal.flip_done:
            phase(
                "rollback flip-back: routing "
                + ("reverted" if journal.rollback_flip_done else "revert pending")
            )
        phase(
            f"rollback remove: {journal.rollback_removed}/{journal.copies_done} "
            f"added replicas removed"
        )
        if state == "cancelled":
            phase("cancelled: placement restored to the pre-migration state")
    else:
        if reached >= 2:
            phase("dual-window: every tuple dually resident")
        if reached >= 3:
            flip = "routing updated to the new placement"
            if journal.tuples_pinned:
                flip += f" ({journal.tuples_pinned} implicit placements pinned)"
            phase(f"flipped: {flip}")
        if reached >= 4 or journal.drops_done:
            phase(
                f"dropping: {journal.drops_done}/{len(plan.drops)} stale replicas dropped"
            )
        if state == "completed":
            phase("completed: migration fully applied")
    footer = ["", f"current state: {state}" + ("  [terminal]" if journal.is_terminal else "")]
    return "\n".join(header + events + footer) + "\n"
