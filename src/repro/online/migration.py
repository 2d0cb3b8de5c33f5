"""Live migration: turning an assignment delta into ordered data movement.

Given the deployed placement and the re-partitioner's new one, the planner
emits per-tuple steps in a **copy-before-drop** order: every tuple is first
copied to each newly-assigned partition (reading from one of its current
replicas), and only once all copies exist are the stale replicas dropped.
At no point is a tuple stored on zero of its old-or-new partitions, so reads
routed under either the old or the new placement always find a replica —
the downtime-free property the executor reports progress on.

The one executor, :class:`JournaledMigrator`, applies the plan to any
:class:`MigrationBackend` — the simulated
:class:`~repro.distributed.cluster.Cluster` or the real SQLite worker
cluster via :class:`~repro.storage.migrator.SqliteMigrationBackend` — with
message accounting consistent with the 2PC coordinator (one
request/response pair per remote read, write, or delete).  It sequences the
journal as copies -> routing flip -> drops, so the routing state is only
ever consulted while every affected tuple exists at both its old and its
new location.  The routing state is the deployed
:class:`~repro.core.strategies.LookupTablePartitioning`'s assignment, and the
flip has two modes (``MigrationJournal.flip_mode``, set by the journal's kind):

* ``"delta"`` — every ``adapt``: only the changed entries are re-written in
  place through ``strategy.place``: O(moved tuples), each entry flip atomic;
* ``"swap"`` — every ``resize``: the replacement strategy is fully built off
  to the side at the new partition count and published with
  :meth:`Router.replace_strategy`.

:class:`MigrationSession` paces a migrator's batches between live
transactions, whichever backend it runs against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Protocol, runtime_checkable

from repro.catalog.tuples import TupleId
from repro.core.strategies import LookupTablePartitioning, placement_at
from repro.distributed.faults import FaultInjector, MessageDropped
from repro.graph.assignment import PartitionAssignment
from repro.obs import get_telemetry
from repro.online.policy import MigrationPacer
from repro.routing.router import Router
from repro.utils.canonical_json import dumps_canonical


@runtime_checkable
class MigrationBackend(Protocol):
    """What a migration executor needs from the thing holding the data.

    The simulated :class:`~repro.distributed.cluster.Cluster` satisfies this
    natively; :class:`~repro.storage.migrator.SqliteMigrationBackend` adapts
    the real worker-process cluster to the same contract, so the journaled
    state machine is backend-agnostic.  The semantics the executor relies on:

    * :meth:`copy_tuple` returns ``None`` when the tuple no longer exists at
      ``source`` (vanished under live traffic — skip), ``0`` when the target
      already held the replica (idempotent replay — skip), and the copied
      byte count otherwise;
    * :meth:`drop_tuple` returns ``False`` when the replica was already gone;
    * both must be atomic with respect to concurrent client writes;
    * :meth:`grow_to` / :meth:`shrink_to` are idempotent on re-attach.
    """

    @property
    def num_partitions(self) -> int: ...

    def grow_to(self, num_partitions: int) -> None: ...

    def shrink_to(self, num_partitions: int) -> None: ...

    def copy_tuple(self, tuple_id: TupleId, source: int, target: int) -> int | None: ...

    def drop_tuple(self, tuple_id: TupleId, partition: int) -> bool: ...

    def tuple_locations_map(self) -> dict[TupleId, frozenset[int]]: ...


@dataclass(frozen=True)
class MigrationStep:
    """One unit of data movement.

    ``action`` is ``"copy"`` (read the tuple from ``source``, write it to
    ``target``) or ``"drop"`` (delete the replica on ``source``; ``target``
    is -1).
    """

    action: str
    tuple_id: TupleId
    source: int
    target: int = -1


@dataclass
class MigrationPlan:
    """Ordered migration steps plus summary statistics."""

    num_partitions: int
    #: all copy steps, ordered before every drop step.
    copies: list[MigrationStep] = field(default_factory=list)
    drops: list[MigrationStep] = field(default_factory=list)
    #: the routing delta: new placement per changed tuple, for the flip.
    changes: list[tuple[TupleId, frozenset[int]]] = field(default_factory=list)
    #: the *old* placement per changed tuple (parallel to ``changes``) — what
    #: a cancelled migration rolls the routing state back to.
    previous: list[tuple[TupleId, frozenset[int]]] = field(default_factory=list)
    #: tuples whose placement changed at all.
    tuples_changed: int = 0
    #: tuples that gained at least one replica (replication widened).
    tuples_replicated: int = 0
    #: tuples that moved (new placement disjoint additions + drops).
    tuples_moved: int = 0
    #: per-replica accounting: partitions added / removed across all tuples
    #: (each added replica is one copy to execute, each removed one a drop).
    replicas_added: int = 0
    replicas_dropped: int = 0

    @property
    def steps(self) -> list[MigrationStep]:
        """All steps in execution order (copies first, then drops)."""
        return self.copies + self.drops


def plan_migration(
    old_placement: Callable[[TupleId], frozenset[int]],
    new_assignment: PartitionAssignment,
) -> MigrationPlan:
    """Diff the deployed placement against ``new_assignment``.

    Parameters
    ----------
    old_placement:
        Resolver for the *current* physical location of a tuple.  Passing
        the deployed strategy's ``partitions_for_tuple`` (rather than a bare
        assignment lookup) means tuples that were routed by the default
        policy — e.g. hash-placed tuples the training trace never saw — are
        migrated from where they actually live.
    new_assignment:
        The target placement for every tuple the re-partitioner assigned.
        Tuples absent from it keep their current placement (no steps).
    """
    plan = MigrationPlan(new_assignment.num_partitions)
    for tuple_id in sorted(new_assignment):
        new_parts = new_assignment.partitions_of(tuple_id)
        assert new_parts is not None
        old_parts = old_placement(tuple_id)
        if not old_parts:
            raise ValueError(f"tuple {tuple_id} has no current placement to migrate from")
        if new_parts == old_parts:
            continue
        plan.tuples_changed += 1
        plan.changes.append((tuple_id, new_parts))
        plan.previous.append((tuple_id, old_parts))
        added = new_parts - old_parts
        removed = old_parts - new_parts
        plan.replicas_added += len(added)
        plan.replicas_dropped += len(removed)
        if added and not removed:
            plan.tuples_replicated += 1
        if removed:
            plan.tuples_moved += 1
        # Copy from a deterministic existing replica.
        source = min(old_parts)
        for target in sorted(added):
            plan.copies.append(MigrationStep("copy", tuple_id, source, target))
        for stale in sorted(removed):
            plan.drops.append(MigrationStep("drop", tuple_id, stale))
    return plan


@dataclass
class MigrationReport:
    """Execution record of one migration."""

    copies: int = 0
    drops: int = 0
    skipped: int = 0
    messages: int = 0
    bytes_copied: int = 0
    #: steps deferred because an injected fault (node down, message lost)
    #: made them fail transiently; each was retried on a later batch.
    faults_deferred: int = 0
    #: cumulative (copies done, drops done) after each executed batch — the
    #: "downtime-free progress" trail: copies always complete before drops
    #: begin, so every prefix leaves all tuples reachable.
    progress: list[tuple[int, int]] = field(default_factory=list)
    lookup_swapped: bool = False

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        return (
            f"migration: {self.copies} copies, {self.drops} drops "
            f"({self.skipped} skipped), {self.messages} messages, "
            f"{self.bytes_copied} bytes"
        )


#: unit steps per migration batch when the caller does not choose one.
MIGRATION_BATCH_SIZE = 64


def migration_steps_counter():
    """The ``migration.steps`` counter family (declared on first call)."""
    return get_telemetry().metrics.counter(
        "migration.steps",
        "migration unit steps by action and result",
        labels=("action", "result"),
    )


# ---------------------------------------------------------------------------
# Journaled (crash-safe) migration
# ---------------------------------------------------------------------------

#: on-disk format marker and version of the journal; bump on breaking changes.
JOURNAL_FORMAT = "repro-migration-journal"
JOURNAL_FORMAT_VERSION = 1

#: forward states, in order.  ``cancelling``/``cancelled`` form the rollback
#: branch reachable from any non-terminal forward state.
JOURNAL_FORWARD_STATES = (
    "planned",
    "copying",
    "dual-window",
    "flipped",
    "dropping",
    "completed",
)
JOURNAL_CANCEL_STATES = ("cancelling", "cancelled")
JOURNAL_TERMINAL_STATES = ("completed", "cancelled")


class JournalFormatError(ValueError):
    """A journal payload is not something this version can read."""


def _placement_rows(entries: list[tuple[TupleId, frozenset[int]]]) -> list[list]:
    return [
        [tuple_id.table, list(tuple_id.key), sorted(partitions)]
        for tuple_id, partitions in entries
    ]


def _non_negative(value: object, name: str) -> int:
    """A journalled partition id or cursor: a non-negative int, never a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise JournalFormatError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _tuple_id(table: object, key: object) -> TupleId:
    if not isinstance(table, str) or not isinstance(key, list):
        raise JournalFormatError(f"not a tuple id: table {table!r}, key {key!r}")
    return TupleId(table, tuple(key))


def _placement_entries(rows: list) -> list[tuple[TupleId, frozenset[int]]]:
    return [
        (
            _tuple_id(table, key),
            frozenset(_non_negative(part, "partition") for part in partitions),
        )
        for table, key, partitions in rows
    ]


@dataclass
class MigrationJournal:
    """The durable state machine of one in-flight migration.

    Serialised alongside the :class:`~repro.pipeline.plan.PartitionPlan`
    artifact, the journal captures everything needed to *resume* a
    half-applied migration (or *cancel* it back to the pre-migration
    placement) after a coordinator crash: the full step list, the routing
    delta and its inverse, and cursors over every phase.  Serialisation is
    canonical JSON, so the byte sequence of journal snapshots is a pure
    function of (plan, progress) — the resume path is byte-deterministic.

    Forward lifecycle::

        planned -> copying -> dual-window -> flipped -> dropping -> completed

    The dual-write window opens at ``planned -> copying`` and closes at the
    routing flip (``dual-window -> flipped``).  :meth:`JournaledMigrator.cancel`
    branches any non-terminal state to ``cancelling``, whose rollback runs
    restore-copies (undoing executed drops), a routing flip-back (when the
    flip had happened), and removal of the added replicas, ending in
    ``cancelled``.
    """

    plan: MigrationPlan
    #: "adapt" (placement delta at fixed k) or "resize" (k changes).
    kind: str = "adapt"
    #: "delta" (in-place entry updates) or "swap" (wholesale rebuild);
    #: :meth:`for_plan` picks it from ``kind``.
    flip_mode: str = "delta"
    old_num_partitions: int = 0
    new_num_partitions: int = 0
    #: kept in the format so journals stay byte-identical; nothing reads it.
    lookup_backend: str = "dict"
    default_policy: str = "hash"
    #: stable identifier of this migration, journalled so resumed executors
    #: regenerate the *same* per-step transaction ids.  Real-storage backends
    #: namespace their exactly-once dedup markers with it: dedup rows persist
    #: in the SQLite files across successive migrations, so a later migration
    #: touching the same tuple must not collide with an earlier one's markers.
    migration_id: str = "mig"
    #: which executor family owns this journal: "simulated" (in-memory
    #: cluster) or "storage" (SQLite worker processes).  Status rendering and
    #: resume tooling use it to pick the right session counters.
    backend: str = "simulated"
    state: str = "planned"
    copies_done: int = 0
    drops_done: int = 0
    flip_done: bool = False
    #: rollback cursors (meaningful from ``cancelling`` on).
    rollback_restored: int = 0
    rollback_flip_done: bool = False
    rollback_removed: int = 0
    #: implicitly-routed tuples pinned explicit at the flip (resize only).
    tuples_pinned: int = 0
    #: journal records persisted so far (the crash-point index fault plans
    #: target); incremented by every :meth:`JournaledMigrator` persist.
    records: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("adapt", "resize"):
            raise ValueError("kind must be 'adapt' or 'resize'")
        if self.flip_mode not in ("delta", "swap"):
            raise ValueError("flip_mode must be 'delta' or 'swap'")
        if self.backend not in ("simulated", "storage"):
            raise ValueError("backend must be 'simulated' or 'storage'")
        if self.state not in JOURNAL_FORWARD_STATES + JOURNAL_CANCEL_STATES:
            raise ValueError(f"unknown journal state {self.state!r}")

    @classmethod
    def for_plan(
        cls,
        plan: MigrationPlan,
        *,
        kind: str,
        old_num_partitions: int,
        new_num_partitions: int | None = None,
        default_policy: str = "hash",
        migration_id: str = "mig",
        backend: str = "simulated",
    ) -> "MigrationJournal":
        """Open a fresh journal for ``plan``: an ``adapt`` flips entry by
        entry (``"delta"``), a ``resize`` swaps the whole strategy (``"swap"``)."""
        return cls(
            plan=plan,
            kind=kind,
            flip_mode="swap" if kind == "resize" else "delta",
            old_num_partitions=old_num_partitions,
            new_num_partitions=(
                plan.num_partitions if new_num_partitions is None else new_num_partitions
            ),
            default_policy=default_policy,
            migration_id=migration_id,
            backend=backend,
        )

    @property
    def is_terminal(self) -> bool:
        """Whether the migration has fully completed or fully rolled back."""
        return self.state in JOURNAL_TERMINAL_STATES

    @property
    def is_cancelling(self) -> bool:
        """Whether the journal is on the rollback branch (not yet cancelled)."""
        return self.state == "cancelling"

    def progress_summary(self) -> str:
        """One-line progress description for logs."""
        total_copies = len(self.plan.copies)
        total_drops = len(self.plan.drops)
        return (
            f"journal[{self.kind}/{self.flip_mode}] {self.state}: "
            f"copies {self.copies_done}/{total_copies}, "
            f"drops {self.drops_done}/{total_drops}, "
            f"flip {'done' if self.flip_done else 'pending'}, "
            f"{self.records} records"
        )

    # -- serialisation ----------------------------------------------------------------
    def to_payload(self) -> dict:
        """Canonical JSON-serialisable payload."""
        return {
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_FORMAT_VERSION,
            "kind": self.kind,
            "flip_mode": self.flip_mode,
            "old_num_partitions": self.old_num_partitions,
            "new_num_partitions": self.new_num_partitions,
            "lookup_backend": self.lookup_backend,
            "default_policy": self.default_policy,
            "migration_id": self.migration_id,
            "backend": self.backend,
            "copies": [
                [step.tuple_id.table, list(step.tuple_id.key), step.source, step.target]
                for step in self.plan.copies
            ],
            "drops": [
                [step.tuple_id.table, list(step.tuple_id.key), step.source]
                for step in self.plan.drops
            ],
            "changes": _placement_rows(self.plan.changes),
            "previous": _placement_rows(self.plan.previous),
            "cursor": {
                "state": self.state,
                "copies_done": self.copies_done,
                "drops_done": self.drops_done,
                "flip_done": self.flip_done,
                "rollback_restored": self.rollback_restored,
                "rollback_flip_done": self.rollback_flip_done,
                "rollback_removed": self.rollback_removed,
                "tuples_pinned": self.tuples_pinned,
                "records": self.records,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "MigrationJournal":
        """Rebuild a journal from a parsed payload (inverse of :meth:`to_payload`).

        Every way a payload can be malformed — wrong format or version, a
        missing key, a row of the wrong shape, a cursor past its step list —
        raises :class:`JournalFormatError`, so a damaged journal is refused
        before any step of it runs.
        """
        if not isinstance(payload, Mapping):
            raise JournalFormatError(
                f"not a migration journal (a JSON {type(payload).__name__}, not an object)"
            )
        if payload.get("format") != JOURNAL_FORMAT:
            raise JournalFormatError(
                f"not a migration journal (format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if isinstance(version, bool) or not isinstance(version, int) or version < 1:
            raise JournalFormatError(f"journal version {version!r} is not a positive integer")
        if version > JOURNAL_FORMAT_VERSION:
            raise JournalFormatError(
                f"journal version {version!r} is newer than supported "
                f"({JOURNAL_FORMAT_VERSION}); upgrade repro to read it"
            )
        try:
            return cls._from_checked_payload(payload)
        except JournalFormatError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise JournalFormatError(f"malformed migration journal: {error!r}") from error

    @classmethod
    def _from_checked_payload(cls, payload: Mapping) -> "MigrationJournal":
        plan = MigrationPlan(_non_negative(payload["new_num_partitions"], "new_num_partitions"))
        plan.copies = [
            MigrationStep(
                "copy",
                _tuple_id(table, key),
                _non_negative(source, "copy source"),
                _non_negative(target, "copy target"),
            )
            for table, key, source, target in payload["copies"]
        ]
        plan.drops = [
            MigrationStep("drop", _tuple_id(table, key), _non_negative(source, "drop source"))
            for table, key, source in payload["drops"]
        ]
        plan.changes = _placement_entries(payload["changes"])
        plan.previous = _placement_entries(payload["previous"])
        # Recompute the summary statistics from the step lists.
        plan.tuples_changed = len(plan.changes)
        plan.replicas_added = len(plan.copies)
        plan.replicas_dropped = len(plan.drops)
        old_of = dict(plan.previous)
        for tuple_id, new_parts in plan.changes:
            old_parts = old_of[tuple_id]
            if new_parts - old_parts and not (old_parts - new_parts):
                plan.tuples_replicated += 1
            if old_parts - new_parts:
                plan.tuples_moved += 1
        cursor = payload.get("cursor", {})

        def counter(name: str) -> int:
            return _non_negative(cursor.get(name, 0), name)

        journal = cls(
            plan=plan,
            kind=payload["kind"],
            flip_mode=payload["flip_mode"],
            old_num_partitions=_non_negative(payload["old_num_partitions"], "old_num_partitions"),
            new_num_partitions=plan.num_partitions,
            lookup_backend=payload.get("lookup_backend", "dict"),
            default_policy=payload.get("default_policy", "hash"),
            migration_id=payload.get("migration_id", "mig"),
            backend=payload.get("backend", "simulated"),
            state=cursor.get("state", "planned"),
            copies_done=counter("copies_done"),
            drops_done=counter("drops_done"),
            flip_done=bool(cursor.get("flip_done", False)),
            rollback_restored=counter("rollback_restored"),
            rollback_flip_done=bool(cursor.get("rollback_flip_done", False)),
            rollback_removed=counter("rollback_removed"),
            tuples_pinned=counter("tuples_pinned"),
            records=counter("records"),
        )
        if not (
            journal.copies_done <= len(plan.copies)
            and journal.drops_done <= len(plan.drops)
            and journal.rollback_restored <= journal.drops_done
            and journal.rollback_removed <= journal.copies_done
        ):
            raise JournalFormatError(f"journal cursor past its step lists: {cursor!r}")
        return journal

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline) of the journal."""
        return dumps_canonical(self.to_payload()) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MigrationJournal":
        """Parse a journal from JSON text (:class:`JournalFormatError` if it is not one)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise JournalFormatError(f"not JSON: {error}") from error
        return cls.from_payload(payload)


def default_journal_path(plan_path: str | Path) -> Path:
    """Where the journal of a migration of ``plan_path`` lives by convention."""
    plan_path = Path(plan_path)
    return plan_path.with_name(plan_path.name + ".journal")


class MemoryJournalSink:
    """Keeps the latest journal snapshot in memory (tests, experiments)."""

    def __init__(self) -> None:
        self.text: str | None = None
        self.writes = 0

    def write(self, text: str) -> None:
        """Replace the durable snapshot with ``text``."""
        self.text = text
        self.writes += 1

    def load(self) -> MigrationJournal:
        """The journal parsed back from the last snapshot."""
        if self.text is None:
            raise ValueError("no journal snapshot has been written yet")
        return MigrationJournal.loads(self.text)


class FileJournalSink:
    """Persists each journal snapshot to a file (alongside the plan artifact).

    Crash-durable, not just atomic: the tmp file is fsync'd before the
    rename and the containing directory is fsync'd after it.  Without the
    first fsync a rename can land while the *contents* are still only in
    the page cache (a power cut leaves a truncated or empty journal at the
    final path); without the second the rename itself may not survive.  The
    previous snapshot stays intact at every instant in between.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.writes = 0

    def write(self, text: str) -> None:
        """Durably replace the journal file with ``text`` (write-fsync-rename-fsync)."""
        temp = self.path.with_name(self.path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        temp.replace(self.path)
        directory_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        except OSError:  # pragma: no cover - directory fsync unsupported here
            pass
        finally:
            os.close(directory_fd)
        self.writes += 1

    def load(self) -> MigrationJournal:
        """The journal parsed back from the file."""
        return MigrationJournal.loads(self.path.read_text(encoding="utf-8"))


class JournaledMigrator:
    """Crash-safe executor of a :class:`MigrationJournal`.

    A journal-first protocol around the per-step copy/drop operations:
    progress is applied in bounded batches, the journal snapshot is
    persisted to ``sink`` (when given) after every batch, and every
    operation is idempotent — so a migrator resumed from the last persisted
    snapshot replays at most one batch (copies find their replica already
    present, drops find it already gone) and continues to the same final
    state.

    The router's dual-write window is opened before the first copy and
    closed at the routing flip, so live writes interleaved with batches
    reach both the old and the new replicas of every in-flight tuple.  With
    a :class:`~repro.distributed.faults.FaultInjector` attached, steps whose
    participants are crashed (or whose messages drop) are *deferred* — the
    batch ends early and the step retries on a later tick — and persisting a
    record can raise
    :class:`~repro.distributed.faults.CoordinatorDeath`, after which a new
    migrator attached to the same journal carries on.
    """

    def __init__(
        self,
        cluster: MigrationBackend,
        router: Router,
        journal: MigrationJournal,
        sink: MemoryJournalSink | FileJournalSink | None = None,
        batch_size: int = MIGRATION_BATCH_SIZE,
        injector: FaultInjector | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if journal.flip_mode == "delta" and not router.strategy.per_tuple:
            # A delta flip rewrites per-tuple entries; a strategy without
            # them would serve the old placement after the drops ran.
            raise ValueError(
                f"a delta-flip journal needs a per-tuple routing strategy, "
                f"not {router.strategy.name}"
            )
        self.cluster = cluster
        self.router = router
        self.journal = journal
        self.sink = sink
        self.injector = injector
        self.batch_size = batch_size
        self.report = MigrationReport()
        #: placement each changed tuple migrates to (for restore sources).
        self._new_placement = dict(journal.plan.changes)
        telemetry = get_telemetry()
        self._tracer = telemetry.tracer
        self._steps_counter = migration_steps_counter()
        self._transitions = telemetry.metrics.counter(
            "migration.state_transitions",
            "journal state machine transitions",
            labels=("from_state", "to_state"),
        )
        self._records_counter = telemetry.metrics.counter(
            "migration.journal_records", "journal records persisted"
        )
        self._attach()

    def _transition(self, new_state: str) -> None:
        """Move the journal to ``new_state``, recording the transition."""
        old_state = self.journal.state
        self.journal.state = new_state
        self._transitions.inc(from_state=old_state, to_state=new_state)
        self._tracer.event(
            "migration.transition", from_state=old_state, to_state=new_state
        )

    # -- attachment (fresh or resumed) -------------------------------------------------
    def _attach(self) -> None:
        journal = self.journal
        if journal.new_num_partitions > self.cluster.num_partitions and not journal.is_terminal:
            # A growing resize adds the empty partitions before any copy so
            # data can land on them; re-attaching after a crash finds them
            # already present (grow_to is guarded below).
            self.cluster.grow_to(journal.new_num_partitions)
        if journal.plan.num_partitions > self.cluster.num_partitions:
            raise ValueError("plan and cluster disagree on the number of partitions")
        window = self.router.migration_window
        window.close()
        if journal.state in ("copying", "dual-window"):
            window.open(self._forward_window_entries())
        elif journal.is_cancelling and journal.flip_done and not journal.rollback_flip_done:
            window.open(self._rollback_window_entries())

    def _forward_window_entries(self):
        for (tuple_id, new_parts), (_, old_parts) in zip(
            self.journal.plan.changes, self.journal.plan.previous
        ):
            yield tuple_id, new_parts - old_parts

    def _rollback_window_entries(self):
        for (tuple_id, new_parts), (_, old_parts) in zip(
            self.journal.plan.changes, self.journal.plan.previous
        ):
            yield tuple_id, old_parts - new_parts

    # -- public surface ----------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the journal reached a terminal state."""
        return self.journal.is_terminal

    def cancel(self) -> None:
        """Switch to the rollback branch (idempotent on ``cancelling``).

        Subsequent :meth:`step` calls undo the migration: executed drops are
        restored by copying back from a live replica, the routing flip (if
        it happened) is reverted to the journalled previous placements, and
        the added replicas are removed.
        """
        journal = self.journal
        if journal.is_terminal:
            raise ValueError(f"cannot cancel a {journal.state} migration")
        if journal.is_cancelling:
            return
        window = self.router.migration_window
        window.close()
        if journal.flip_done:
            # Routing currently points at the *new* placement while rollback
            # re-creates the old replicas: writes must reach both, or an
            # update landing after a restore-copy would be lost at the
            # restored location once the flip-back happens.
            window.open(self._rollback_window_entries())
        self._transition("cancelling")
        self._persist()

    def step(self, max_steps: int | None = None) -> int:
        """Advance the state machine by up to ``max_steps`` unit steps.

        One call works on exactly one phase (a batch of copies/drops, or a
        single transition like the routing flip), persists the journal when
        progress was made, and returns the number of executed steps (0 when
        terminal, paused by faults, or stalled on unavailable nodes).
        """
        budget = self.batch_size if max_steps is None else max_steps
        if budget <= 0 or self.journal.is_terminal:
            return 0
        if self.injector is not None:
            # Each migration tick advances the fault clock too, so node-crash
            # windows expire even when no transactions are flowing (e.g. the
            # drain phase after live traffic ends).
            self.injector.advance()
        # The span closes with status="error" when an injected coordinator
        # death unwinds out of a mid-batch persist.
        with self._tracer.span(
            "migration.step", state=self.journal.state, budget=budget
        ) as span:
            if self.journal.is_cancelling:
                executed = self._step_rollback(budget)
            else:
                executed = self._step_forward(budget)
            span.set_attribute("executed", executed)
            return executed

    def run(self, max_ticks: int = 1_000_000) -> MigrationReport:
        """Drive :meth:`step` to a terminal state (no pacing).

        Raises ``RuntimeError`` when the state machine stops making progress
        for many consecutive ticks (e.g. a permanently crashed node).
        """
        _drive_to_terminal(self.journal, self.step, max_ticks)
        return self.report

    # -- forward path ------------------------------------------------------------------
    def _step_forward(self, budget: int) -> int:
        journal = self.journal
        if journal.state == "planned":
            self.router.migration_window.open(self._forward_window_entries())
            self._transition("copying")
            self._persist()
            return 1
        if journal.state == "copying":
            executed = self._run_batch(journal.plan.copies, "copies_done", budget)
            if journal.copies_done == len(journal.plan.copies):
                self._transition("dual-window")
                self._persist()
                return max(executed, 1)
            if executed:
                self._persist()
            return executed
        if journal.state == "dual-window":
            # Every tuple is resident at both placements: flip the routing
            # and close the dual-write window in the same step.
            self._flip_forward()
            journal.flip_done = True
            self._transition("flipped")
            self._persist()
            return 1
        if journal.state == "flipped":
            self._transition("dropping")
            self._persist()
            return 1
        if journal.state == "dropping":
            executed = self._run_batch(journal.plan.drops, "drops_done", budget)
            if journal.drops_done == len(journal.plan.drops):
                self._complete_forward()
                return max(executed, 1)
            if executed:
                self._persist()
            return executed
        raise AssertionError(f"unexpected forward state {journal.state!r}")

    def _complete_forward(self) -> None:
        journal = self.journal
        if journal.new_num_partitions < self.cluster.num_partitions:
            # Shrink: the evacuated partitions are empty now that the drops
            # ran; removing them is the last act before "completed".
            self.cluster.shrink_to(journal.new_num_partitions)
        self._transition("completed")
        self._persist()

    def _flip_forward(self) -> None:
        journal = self.journal
        if journal.flip_mode == "delta":
            # Re-write only the changed entries: each entry write flips one
            # tuple from its old to its new placement — individually atomic,
            # and safe at any interleaving because the copies already ran
            # (both placements are physically valid until the drops execute).
            self._publish_entries(journal.plan.changes)
        else:
            pinned = self._publish_swap(journal.new_num_partitions, journal.plan.changes)
            if not journal.tuples_pinned:
                # The controller counts pins at planning time (and stores
                # the count in the journal); keep that figure when present.
                journal.tuples_pinned = pinned
        self.report.lookup_swapped = True
        self.router.migration_window.close()

    def _publish_entries(self, entries: list[tuple[TupleId, frozenset[int]]]) -> None:
        """In-place routing update: O(len(entries)) strategy entry writes."""
        self.router.strategy.place(entries)

    def _publish_swap(
        self, num_partitions: int, overrides: list[tuple[TupleId, frozenset[int]]]
    ) -> int:
        """Wholesale swap: a full explicit strategy at ``num_partitions``.

        ``overrides`` (the routing delta, or its inverse during rollback)
        wins; every other *stored* tuple is pinned to its physical location
        — which also captures tuples inserted by live traffic while the
        migration was in flight, whose implicit placement (a hash modulus, a
        rule naming a removed partition) would change meaning with the
        partition count.  The deployed strategy's base rules and default
        carry over for tuples inserted afterwards.  Returns the number of
        tuples pinned that had no explicit entry before.
        """
        merged = PartitionAssignment(num_partitions)
        for tuple_id, partitions in overrides:
            merged.assign(tuple_id, partitions)
        strategy = self.router.strategy
        deployed = (
            strategy.assignment if isinstance(strategy, LookupTablePartitioning) else None
        )
        pinned = 0
        for tuple_id, locations in sorted(self.cluster.tuple_locations_map().items()):
            if tuple_id in merged:
                continue
            merged.assign(tuple_id, placement_at(tuple_id, locations, num_partitions))
            if deployed is None or tuple_id not in deployed:
                pinned += 1
        self.router.replace_strategy(
            strategy.with_assignment(num_partitions, merged)
            if isinstance(strategy, LookupTablePartitioning)
            else LookupTablePartitioning(num_partitions, merged, self.journal.default_policy)
        )
        return pinned

    # -- rollback path -----------------------------------------------------------------
    def _step_rollback(self, budget: int) -> int:
        journal = self.journal
        plan = journal.plan
        # Phase 1: restore the old replicas the forward drops removed.
        if journal.rollback_restored < journal.drops_done:
            executed = self._run_restore_batch(budget)
            if executed or journal.rollback_restored == journal.drops_done:
                self._persist()
            if journal.rollback_restored < journal.drops_done or executed:
                return executed
        # Phase 2: revert the routing flip (once, if it had happened).
        if journal.flip_done and not journal.rollback_flip_done:
            self._flip_back()
            journal.rollback_flip_done = True
            self._persist()
            return 1
        # Phase 3: remove the replicas the forward copies added.
        if journal.rollback_removed < journal.copies_done:
            executed = self._run_remove_batch(budget)
            if journal.rollback_removed == journal.copies_done:
                self._complete_rollback()
                return max(executed, 1)
            if executed:
                self._persist()
            return executed
        self._complete_rollback()
        return 1

    def _complete_rollback(self) -> None:
        journal = self.journal
        self.router.migration_window.close()
        if (
            journal.new_num_partitions > journal.old_num_partitions
            and self.cluster.num_partitions > journal.old_num_partitions
        ):
            # A cancelled grow removes the partitions it added; rollback just
            # emptied them (every added replica was dropped).
            self.cluster.shrink_to(journal.old_num_partitions)
        self._transition("cancelled")
        self._persist()

    def _flip_back(self) -> None:
        journal = self.journal
        if journal.flip_mode == "delta":
            self._publish_entries(journal.plan.previous)
        else:
            self._publish_swap(journal.old_num_partitions, journal.plan.previous)
        self.router.migration_window.close()

    def _run_restore_batch(self, budget: int) -> int:
        journal = self.journal
        drops = journal.plan.drops
        executed = 0
        while journal.rollback_restored < journal.drops_done and executed < budget:
            step = drops[journal.rollback_restored]
            source = min(self._new_placement[step.tuple_id])
            restore = MigrationStep("copy", step.tuple_id, source, step.source)
            if not self._fault_gate(restore):
                break
            self._copy(restore)
            journal.rollback_restored += 1
            executed += 1
        return executed

    def _run_remove_batch(self, budget: int) -> int:
        journal = self.journal
        copies = journal.plan.copies
        executed = 0
        while journal.rollback_removed < journal.copies_done and executed < budget:
            step = copies[journal.rollback_removed]
            remove = MigrationStep("drop", step.tuple_id, step.target)
            if not self._fault_gate(remove):
                break
            self._drop(remove)
            journal.rollback_removed += 1
            executed += 1
        return executed

    # -- shared machinery --------------------------------------------------------------
    def _run_batch(self, steps: list[MigrationStep], cursor: str, budget: int) -> int:
        journal = self.journal
        done = getattr(journal, cursor)
        executed = 0
        while done < len(steps) and executed < budget:
            step = steps[done]
            if not self._fault_gate(step):
                break
            if step.action == "copy":
                self._copy(step)
            else:
                self._drop(step)
            done += 1
            executed += 1
        setattr(journal, cursor, done)
        if executed:
            self.report.progress.append((self.report.copies, self.report.drops))
        return executed

    def _copy(self, step: MigrationStep) -> None:
        report = self.report
        # Read from source: one request/response pair.
        report.messages += 2
        copied_bytes = self.cluster.copy_tuple(step.tuple_id, step.source, step.target)
        if not copied_bytes:
            # None: the tuple vanished (e.g. deleted by live traffic between
            # planning and execution) — nothing to copy, routing will miss
            # it everywhere, which is consistent.  0: the target already
            # held the replica (a batch replayed after a crash) — nothing
            # was written, so no write messages and no copy is recorded,
            # mirroring how dropping an absent replica reports a skip.
            report.skipped += 1
            self._steps_counter.inc(action="copy", result="skipped")
            return
        # Write to target: one request/response pair.
        report.messages += 2
        report.bytes_copied += copied_bytes
        report.copies += 1
        self._steps_counter.inc(action="copy", result="applied")

    def _drop(self, step: MigrationStep) -> None:
        report = self.report
        report.messages += 2
        if self.cluster.drop_tuple(step.tuple_id, step.source):
            report.drops += 1
            self._steps_counter.inc(action="drop", result="applied")
        else:
            report.skipped += 1
            self._steps_counter.inc(action="drop", result="skipped")

    def _fault_gate(self, step: MigrationStep) -> bool:
        """Draw this step's fault outcomes; False defers it to a later tick.

        All draws happen before the operation touches storage, so a deferred
        step has no side effects and its retry is a clean replay.
        """
        injector = self.injector
        if injector is None:
            return True
        nodes = (
            (step.source,)
            if step.action == "drop"
            else (step.source, step.target)
        )
        for node in nodes:
            if not injector.node_available(node):
                injector.statistics.unavailability_hits += 1
                self.report.faults_deferred += 1
                return False
        try:
            # Worst-case message complement of the step: read + write pairs
            # for a copy, one delete pair for a drop.
            for _ in range(4 if step.action == "copy" else 2):
                injector.deliver()
        except MessageDropped:
            self.report.faults_deferred += 1
            return False
        return True

    def _persist(self) -> None:
        """Write one journal record; may raise an injected coordinator death.

        The record is durable in the sink *before* the injector gets to kill
        the coordinator, which is the crash model the resume tests exercise:
        everything journalled has been applied, everything applied since the
        last record replays idempotently.
        """
        journal = self.journal
        journal.records += 1
        self._records_counter.inc()
        if self.sink is not None:
            self.sink.write(journal.dumps())
        if self.injector is not None:
            self.injector.on_journal_record(journal.state, journal.records)


#: consecutive zero-progress ticks after which a drive loop gives up: fault
#: windows are a few hundred ticks at most, so this only trips on a node
#: that never comes back.
STALL_TICKS = 10_000


def _drive_to_terminal(
    journal: MigrationJournal, advance: Callable[[], int], max_ticks: int
) -> None:
    """Call ``advance`` until ``journal`` is terminal; raise when it stalls."""
    stalled = 0
    for _ in range(max_ticks):
        if journal.is_terminal:
            return
        if advance() == 0 and not journal.is_terminal:
            stalled += 1
            if stalled > STALL_TICKS:
                raise RuntimeError(
                    f"migration stalled at {journal.progress_summary()}"
                )
        else:
            stalled = 0
    raise RuntimeError("migration did not terminate within max_ticks")


class MigrationSession:
    """Paced ticks of a :class:`JournaledMigrator` between live transactions.

    A traffic loop (or the storage driver's commit hook) calls :meth:`tick`
    between transactions, so migration work and live load share one thread
    deterministically.  When a
    :class:`~repro.online.policy.MigrationPacer` is attached — fed the
    live latency/abort stream — its step budget gates every tick (0 = the
    migration holds still while the SLO recovers).
    """

    def __init__(
        self,
        migrator: JournaledMigrator,
        *,
        pacer: MigrationPacer | None = None,
    ) -> None:
        if migrator.journal.kind != "resize":
            raise ValueError("MigrationSession drives resize journals")
        self.migrator = migrator
        self.journal = migrator.journal
        self.pacer = pacer
        self.ticks = 0
        self.steps_executed = 0

    @property
    def report(self) -> MigrationReport:
        """Execution report of (this attempt at) the migration."""
        return self.migrator.report

    @property
    def done(self) -> bool:
        """Whether the journal reached a terminal state."""
        return self.journal.is_terminal

    def tick(self, idle: bool = False) -> int:
        """Advance the migration by one paced batch; returns steps executed.

        ``idle=True`` tells the pacer no live traffic is flowing (drain
        phase), which releases any pause — see
        :meth:`MigrationPacer.plan_steps`.
        """
        if self.journal.is_terminal:
            return 0
        self.ticks += 1
        budget: int | None = None
        if self.pacer is not None:
            budget = self.pacer.plan_steps(idle=idle)
            if budget == 0:
                return 0
        with get_telemetry().tracer.span(
            "migration.tick", state=self.journal.state, budget=budget
        ) as span:
            executed = self.migrator.step(budget)
            span.set_attribute("executed", executed)
        self.steps_executed += executed
        return executed

    def cancel(self) -> None:
        """Switch the migration onto the rollback branch (see the journal)."""
        self.migrator.cancel()

    def run_to_completion(self, max_ticks: int = 1_000_000) -> MigrationReport:
        """Idle-tick the migration to a terminal state (the drain phase).

        There is no interleaved traffic here, so every tick is an *idle*
        tick: the pacer has nothing to protect and opens the full budget.
        Raises ``RuntimeError`` naming the journal's progress when the
        migration stalls (a fault injector keeping a required node down).
        """
        _drive_to_terminal(self.journal, lambda: self.tick(idle=True), max_ticks)
        return self.migrator.report
