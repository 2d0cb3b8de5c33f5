"""Determinism lint: each banned construct is caught, sanctioned ones are not."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.core import Project, run_passes
from repro.analysis.determinism import DeterminismPass


def _findings(tmp_path, source: str):
    path = tmp_path / "pkg" / "mod.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    project = Project(tmp_path, relative_roots=("pkg",))
    active, suppressed = run_passes(project, [DeterminismPass()])
    return active, suppressed


@pytest.mark.parametrize(
    "snippet, needle",
    [
        ("import random\nx = random.random()\n", "bare random.random()"),
        ("import random\nx = random.shuffle(items)\n", "bare random.shuffle()"),
        ("import time\nx = time.time()\n", "time.time()"),
        ("import time\nx = time.time_ns()\n", "time.time_ns()"),
        ("import os\nx = os.urandom(8)\n", "os.urandom"),
        ("import uuid\nx = uuid.uuid4()\n", "uuid.uuid4"),
        ("import uuid\nx = uuid.uuid1()\n", "uuid.uuid1"),
        ("import secrets\nx = secrets.token_hex()\n", "secrets.*"),
        (
            "from datetime import datetime\nx = datetime.now()\n",
            "wall-clock datetime.now()",
        ),
        ("import datetime\nx = datetime.date.today()\n", "wall-clock date.today()"),
        ("x = list(set(items))\n", "materialises set iteration order"),
        ("x = tuple({1, 2} | {3})\n", "materialises set iteration order"),
        ("x = ', '.join(set(names))\n", "str.join over a set expression"),
        ("import json\nx = json.dumps(payload)\n", "without sort_keys=True"),
        (
            "import json\nx = json.dumps(payload, sort_keys=False)\n",
            "without sort_keys=True",
        ),
        ("for item in set(items):\n    pass\n", "for-loop over a set expression"),
        ("x = [item for item in set(items)]\n", "comprehension over a set expression"),
        (
            "x = {key: 1 for key in set(keys)}\n",
            "dict comprehension over a set expression",
        ),
        ("y = rng.fork(table)\n", "fork salt is fully dynamic"),
        ("y = rng.fork((table, other))\n", "fork salt is fully dynamic"),
        ("y = rng.fork('a', 'b')\n", "exactly one positional salt"),
    ],
)
def test_flags_banned_construct(tmp_path, snippet, needle):
    active, _ = _findings(tmp_path, snippet)
    assert len(active) == 1, [f.format() for f in active]
    assert needle in active[0].message
    assert active[0].rule == "determinism"


@pytest.mark.parametrize(
    "snippet",
    [
        # Seeded construction is the sanctioned entry point.
        "import random\nx = random.Random(0)\n",
        # Volatile-telemetry primitives (Stopwatch, deadlines) are exempt.
        "import time\nx = time.perf_counter()\ny = time.monotonic()\n",
        # Order-insensitive consumption of sets is fine...
        "x = sorted(set(a) | set(b))\n",
        "x = max(set(items))\nn = len(set(items))\n",
        # ...including a generator fed straight into one.
        "x = sorted(item for item in set(a) | set(b))\n",
        "ok = any(item > 0 for item in items)\n",
        # A set comprehension stays a set — no order fixed yet.
        "x = {item.key for item in items}\n",
        # Canonical serialization pattern.
        "import json\nx = json.dumps(payload, sort_keys=True)\n",
        # Tagged fork salts: literal, or tuple carrying a static tag.
        "y = rng.fork('partitioner')\nz = rng.fork(('retry', key))\n",
        "y = rng.fork(17)\n",
        # Iterating an ordinary list is no finding.
        "for item in items:\n    pass\n",
    ],
)
def test_sanctioned_construct_is_clean(tmp_path, snippet):
    active, _ = _findings(tmp_path, snippet)
    assert active == [], [f.format() for f in active]


def test_import_aliases_are_resolved(tmp_path):
    active, _ = _findings(
        tmp_path,
        """
        import time as clock
        from os import urandom
        a = clock.time()
        b = urandom(4)
        """,
    )
    messages = sorted(f.message for f in active)
    assert len(active) == 2
    assert any("time.time()" in m for m in messages)
    assert any("os.urandom" in m for m in messages)


def test_line_pragma_waives_the_finding(tmp_path):
    active, suppressed = _findings(
        tmp_path,
        "y = rng.fork(table)  # repro: allow(determinism) parent already tagged\n",
    )
    assert active == []
    assert len(suppressed) == 1
    assert suppressed[0].rule == "determinism"


def test_volatile_field_may_not_be_read_in_to_payload(tmp_path):
    """PR 21's finding: wall-clock timings written into every plan file."""
    source = """
        from dataclasses import dataclass, field

        @dataclass
        class PlanProvenance:
            options: dict = field(default_factory=dict)
            timings: dict = field(default_factory=dict, metadata={"volatile": True})

            def describe(self):
                return f"timings: {self.timings}"

            def to_payload(self):
                return {"options": self.options%s}
        """
    active, _ = _findings(tmp_path, source % ', "timings": self.timings')
    assert len(active) == 1, [f.format() for f in active]
    assert "volatile field PlanProvenance.timings read in to_payload" in active[0].message
    active, _ = _findings(tmp_path, source % "")
    assert active == []
