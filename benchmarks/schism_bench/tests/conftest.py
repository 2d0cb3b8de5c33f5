"""Make ``schism_bench`` (and ``repro``) importable for the self-tests."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent.parent
for entry in (str(ROOT / "src"), str(BENCH_DIR.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
