"""Docs can't rot silently: the CI docs checks also run under tier-1."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = _load_checker()
    assert checker.check_links() == []


def test_doctested_modules_pass():
    checker = _load_checker()
    assert checker.check_doctests() == []


def test_readme_option_tables_name_live_fields():
    checker = _load_checker()
    assert checker.check_option_tables() == []


def test_option_table_check_flags_a_stale_row():
    checker = _load_checker()
    fixture = "\n".join(
        [
            "All of `repro.online.OnlineOptions`:",
            "",
            "| Knob | Default | Meaning |",
            "|---|---|---|",
            "| `replication_enabled` | `True` | removed with its off branch |",
            "| `elastic.grow_hysteresis` / `shrink_hysteresis` | `1.3` / `0.6` | live |",
            "| `pacing.max_steps` | `64` | live, through an optional field |",
            "",
            "| Name | Note |",
            "|---|---|",
            "| `not_a_knob` | a table not headed Knob is not an option table |",
            "",
            "Planning goes through `SchismOptions`:",
            "",
            "| Knob | Default | Meaning |",
            "|---|---|---|",
            "| `graph.relevance_filter` | `1` | not a field |",
            "| `explainer.max_samples_per_table` | `2000` | live, one level down |",
            "| `elastic.enabled` | `False` | live, but on the other class |",
        ]
    )
    problems = checker.check_option_tables(fixture)
    assert [problem.split("`")[1] for problem in problems] == [
        "replication_enabled",
        "graph.relevance_filter",
        "elastic.enabled",
    ]
    assert "OnlineOptions" in problems[0] and "SchismOptions" in problems[2]
    assert "before any" in checker.check_option_tables("| Knob |\n|---|\n| `seed` |")[0]


def test_architecture_doc_exists_and_linked():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert architecture.exists()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
