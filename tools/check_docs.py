#!/usr/bin/env python
"""Docs health check: markdown link validation + doctests + option tables.

Three passes, all dependency-free:

1. **Link check** — every relative markdown link in README.md, ROADMAP.md,
   PAPER.md, PAPERS.md and docs/*.md must point at an existing file
   (anchors are checked against the target file's headings, GitHub-slug
   style).  External (http/https/mailto) links are not fetched.
2. **Doctests** — ``doctest.testmod`` over the modules that carry doctested
   examples (listed in ``DOCTEST_MODULES``), so the examples shown in
   ``help()`` output cannot rot silently.
3. **Option tables** — every back-ticked name in the first column of a
   README table headed ``Knob`` must be a dataclass field reachable from
   the options class its section names (``SchismOptions``,
   ``OnlineOptions`` or ``RetryOptions``; ``elastic.enabled`` walks into
   ``ElasticOptions``, ``pacing.max_steps`` through the optional
   ``PacingOptions``), so a documented knob cannot outlive its field.

Exit status 0 when everything passes; 1 with a per-problem report
otherwise.  Run from the repository root (CI docs job, or locally):

    python tools/check_docs.py
"""

from __future__ import annotations

import dataclasses
import doctest
import importlib
import re
import sys
import typing
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from _common import report_problems  # noqa: E402

#: markdown files whose links must stay valid.
MARKDOWN_FILES = ("README.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "CHANGES.md")
MARKDOWN_GLOBS = ("docs/*.md",)

#: modules with doctested examples (keep in sync with the CI docs job).
DOCTEST_MODULES = (
    "repro.graph.assignment",
    "repro.routing.lookup",
    "repro.online.policy",
    "repro.pipeline.plan",
)

#: options classes a README ``Knob`` table may document -> defining module.
OPTION_TABLE_CLASSES = {
    "SchismOptions": "repro.pipeline.config",
    "OnlineOptions": "repro.online.controller",
    "RetryOptions": "repro.storage.retry",
}

#: [text](target) — excluding images; target split from an optional title.
_LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def _heading_anchors(markdown: str) -> set[str]:
    """GitHub-style anchor slugs of every heading in ``markdown``."""
    anchors: set[str] = set()
    for line in markdown.splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if not match:
            continue
        heading = re.sub(r"[`*_]", "", match.group(1).strip())
        slug = re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        anchors.add(slug)
    return anchors


def check_links() -> list[str]:
    """Validate every relative link; returns a list of problem strings."""
    problems: list[str] = []
    files = [REPO_ROOT / name for name in MARKDOWN_FILES]
    for pattern in MARKDOWN_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    for path in files:
        if not path.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: file listed but missing")
            continue
        text = path.read_text(encoding="utf-8")
        for match in _LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target_path, _, anchor = target.partition("#")
            if not target_path:
                # Same-file anchor.
                resolved = path
            else:
                resolved = (path.parent / target_path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: broken link -> {target}"
                    )
                    continue
            if anchor and resolved.suffix == ".md":
                anchors = _heading_anchors(resolved.read_text(encoding="utf-8"))
                if anchor.lower() not in anchors:
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}"
                    )
    return problems


def _import_from_src(module_name: str):
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module(module_name)


def check_doctests() -> list[str]:
    """Run the doctests of ``DOCTEST_MODULES``; returns problem strings."""
    problems: list[str] = []
    for module_name in DOCTEST_MODULES:
        module = _import_from_src(module_name)
        result = doctest.testmod(module, verbose=False)
        if result.attempted == 0:
            problems.append(f"{module_name}: no doctests found (stale DOCTEST_MODULES?)")
        elif result.failed:
            problems.append(f"{module_name}: {result.failed} doctest failure(s)")
    return problems


def _is_field_path(dotted: str, options_class: type) -> bool:
    """Whether ``a.b`` names field ``b`` of the dataclass typed at field ``a``."""
    current: type | None = options_class
    for part in dotted.split("."):
        if current is None or part not in {f.name for f in dataclasses.fields(current)}:
            return False
        annotation = typing.get_type_hints(current)[part]
        nested = [
            candidate
            for candidate in typing.get_args(annotation) or (annotation,)
            if dataclasses.is_dataclass(candidate)
        ]
        current = nested[0] if nested else None
    return True


def check_option_tables(readme: str | None = None) -> list[str]:
    """Resolve every knob README's option tables name against its options class.

    A table's class is the one of ``OPTION_TABLE_CLASSES`` named last in the
    text above it.  A name without a dot inherits the prefix of the name
    before it in the same cell (``elastic.min_partitions`` /
    ``max_partitions``).
    """
    classes = {
        name: getattr(_import_from_src(module), name)
        for name, module in OPTION_TABLE_CLASSES.items()
    }
    if readme is None:
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    problems: list[str] = []
    options_class: type | None = None
    in_option_table = False
    for line in readme.splitlines():
        if not line.startswith("|"):
            in_option_table = False
            named = re.findall("|".join(classes), line)
            if named:
                options_class = classes[named[-1]]
            continue
        first_cell = line.strip("|").split("|")[0].strip()
        if first_cell == "Knob":
            in_option_table = True
            if options_class is None:
                problems.append(
                    "README.md: a Knob table appears before any of "
                    f"{sorted(classes)} is named"
                )
        if not in_option_table or options_class is None:
            continue
        prefix = ""
        for name in re.findall(r"`([^`]+)`", first_cell):
            if "." in name:
                prefix = name.rsplit(".", 1)[0] + "."
            else:
                name = prefix + name
            if not _is_field_path(name, options_class):
                problems.append(
                    f"README.md: option table documents `{name}`, which is not a "
                    f"field reachable from {options_class.__name__}"
                )
    return problems


def main() -> int:
    problems = check_links() + check_doctests() + check_option_tables()
    return report_problems(problems, "docs check: links, doctests and option tables ok")


if __name__ == "__main__":
    raise SystemExit(main())
