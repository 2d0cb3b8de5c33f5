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
            "| `elastic.min_partitions` / `max_partitions` | `1` / `64` | live |",
            "| `pacing.max_steps` | `64` | live, through an optional field |",
            "| `monitor.window_size` / `decay` | `1000` / `0.95` | a constant now |",
            "| `pacing.backoff_max` | `16` | a constant now |",
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
        "monitor.decay",
        "pacing.backoff_max",
        "graph.relevance_filter",
        "elastic.enabled",
    ]
    assert "OnlineOptions" in problems[0] and "SchismOptions" in problems[4]
    assert "before any" in checker.check_option_tables("| Knob |\n|---|\n| `seed` |")[0]


def test_readme_online_table_documents_monitor_and_pacing_knobs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    online = readme[readme.index("## Online knobs") :]
    online = online[: online.index("\n## ")]
    for knob in ("monitor.window_size", "monitor.min_window_fill", "pacing.max_steps"):
        assert f"| `{knob}`" in online, knob
    assert "| Knob | Default | Meaning | Turned by |" in online


def test_architecture_doc_exists_and_linked():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert architecture.exists()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
