"""Process isolation: one workload per child session, nothing left behind.

The child is started with ``start_new_session=True`` — its pid is the id of a
fresh session and process group that every process it starts (partition
workers, the multiprocessing resource tracker) inherits.  Whatever happens —
success, a failed check, a timeout, ``SIGTERM``/``SIGINT`` to the parent — the
parent waits for the child, then scans ``/proc`` for survivors of that
session, kills them and reports how many there were.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: how long survivors get to exit on their own after the child is gone (the
#: multiprocessing resource tracker leaves when it reads EOF on its pipe).
GRACE_S = 5.0


class Terminated(Exception):
    """The parent received SIGTERM or SIGINT."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


def _raise_terminated(signum: int, _frame: object) -> None:
    raise Terminated(signum)


def install_signal_handlers() -> None:
    """Turn SIGTERM/SIGINT into :class:`Terminated` in the main thread."""
    signal.signal(signal.SIGTERM, _raise_terminated)
    signal.signal(signal.SIGINT, _raise_terminated)


def session_members(session: int) -> list[int]:
    """Pids of the live (non-zombie) processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid pgrp session ...; comm may contain spaces.
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def _kill_session(session: int) -> None:
    try:
        os.killpg(session, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_session(session: int, grace_s: float = GRACE_S) -> int:
    """Wait up to ``grace_s`` for the session to empty; kill and count stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        members = session_members(session)
        if not members or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if members:
        _kill_session(session)
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        deadline = time.monotonic() + grace_s
        while session_members(session) and time.monotonic() < deadline:
            time.sleep(0.05)
    return len(members)


def run_child(argv: list[str], timeout_s: float) -> tuple[int | None, int, int | None]:
    """Run ``argv`` in the foreground in its own session.

    Returns ``(returncode, leftover_processes, signum)``.  The return code is
    ``None`` when the child was killed — for exceeding ``timeout_s``, or
    because the parent received ``signum`` (SIGTERM/SIGINT; needs
    :func:`install_signal_handlers`).  The child's standard output goes to
    our standard error, keeping ours for results.
    """
    child = subprocess.Popen(argv, start_new_session=True, stdout=sys.stderr.fileno())
    returncode: int | None = None
    signum: int | None = None
    try:
        returncode = child.wait(timeout_s)
    except subprocess.TimeoutExpired:
        print(f"child exceeded {timeout_s:.0f}s; killing its session", file=sys.stderr)
    except Terminated as stop:
        signum = stop.signum
    finally:
        if child.poll() is None:
            _kill_session(child.pid)
            child.wait()
        leftover = reap_session(child.pid)
    return returncode, leftover, signum


def die_with_parent(workdir: Path) -> None:
    """In the child: if the parent disappears (a SIGKILLed parent cannot clean
    up), remove ``workdir`` and kill our whole process group, workers included."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        shutil.rmtree(workdir, ignore_errors=True)
        os.killpg(0, signal.SIGKILL)

    threading.Thread(target=watch, name="schism-bench-parent-watch", daemon=True).start()
