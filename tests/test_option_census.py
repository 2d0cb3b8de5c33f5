"""The option census: every ``*Options`` field is one some caller turns.

Walks the AST of everything that ships or drives the library — ``src/``,
``examples/``, ``benchmarks/`` and ``tools/`` (tests do not count: a knob
only a test turns is a constant a test patches) — and collects, per field,
every value a caller gives it: a keyword or positional argument of a call
to the class, or an attribute assignment ``<anything but self>.<field> = …``
(which counts for every options class with a field of that name).  A field is
*turned* when at least one of those values is not a literal equal to its
default.  Anything untouched becomes a module constant beside its one use,
unless it is one of the paper-mechanism switches listed below.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "tools")

#: the only fields no caller turns that stay options, on purpose: tier-1
#: switches each one to look underneath a mechanism of the paper.
PAPER_MECHANISM_SWITCHES = {
    ("GraphBuildOptions", "replication"): "§4.1 star-shaped replication expansion; off = one node per tuple",
    ("GraphBuildOptions", "node_weighting"): "§4.1 balance by accesses or by data size",
    ("GraphBuildOptions", "coalesce_tuples"): "§5.1 tuple coalescing of always-co-accessed tuples",
    ("ExplainerOptions", "min_attribute_frequency"): "§5.2 frequent-attribute filter of the explainer",
}

_NOT_A_LITERAL = object()


def _python_files() -> list[Path]:
    return [
        path for directory in SCANNED for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]


def options_classes() -> dict[str, type]:
    """Every ``*Options`` dataclass defined under ``src/repro``, by name."""
    classes: dict[str, type] = {}
    src = REPO_ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Options")
        ]
        if names:
            module_name = ".".join(path.relative_to(src).with_suffix("").parts)
            module = importlib.import_module(module_name)
            for name in names:
                klass = getattr(module, name)
                assert dataclasses.is_dataclass(klass), f"{name} is not a dataclass"
                classes[name] = klass
    return classes


def _default(field: dataclasses.Field) -> object:
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return _NOT_A_LITERAL  # required: every value a caller passes is a choice


def _is_default(value: ast.expr, default: object) -> bool:
    if isinstance(value, ast.Call) and not value.args and not value.keywords:
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == type(default).__name__
    try:
        literal = ast.literal_eval(value)
    except ValueError:
        return False
    return type(literal) is type(default) and literal == default or (
        literal is None and default is None
    )


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def settings(
    classes: dict[str, type], paths: list[Path]
) -> dict[tuple[str, str], list[ast.expr]]:
    """Every value given to every field, keyed by (class name, field name)."""
    field_names = {
        name: [field.name for field in dataclasses.fields(klass)]
        for name, klass in classes.items()
    }
    found: dict[tuple[str, str], list[ast.expr]] = {
        (name, field): [] for name, fields in field_names.items() for field in fields
    }
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _called_name(node) in classes:
                name = _called_name(node)
                for field, value in zip(field_names[name], node.args):
                    found[(name, field)].append(value)
                for keyword in node.keywords:
                    if (name, keyword.arg) in found:
                        found[(name, keyword.arg)].append(keyword.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    # ``self.<name> = …`` is a class minding its own state
                    # (``__post_init__`` clamps included), not a caller.
                    if isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name) and target.value.id == "self"
                    ):
                        for name, fields in field_names.items():
                            if target.attr in fields:
                                found[(name, target.attr)].append(node.value)
    return found


def untouched_fields() -> list[str]:
    """``Class.field`` of every field no caller sets to a non-default value."""
    classes = options_classes()
    defaults = {
        (name, field.name): _default(field)
        for name, klass in classes.items()
        for field in dataclasses.fields(klass)
    }
    return sorted(
        f"{name}.{field}"
        for (name, field), values in settings(classes, _python_files()).items()
        if all(_is_default(value, defaults[(name, field)]) for value in values)
    )


def test_every_option_field_is_turned_by_some_caller():
    """Only the listed switches go untouched — and a listed one that gains a
    caller (or loses its field) must leave the list."""
    assert untouched_fields() == sorted(
        f"{name}.{field}" for name, field in PAPER_MECHANISM_SWITCHES
    )


def test_a_default_valued_setting_does_not_count(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "OnlineOptions(replication_min_read_fraction=0.9)\n"
        "options.elastic = ElasticOptions()\n"
        "MonitorOptions(window_size=400, min_window_fill=50)\n"
        "repro.storage.RetryOptions(args.timeout_ms)\n",
        encoding="utf-8",
    )
    classes = options_classes()
    found = settings(classes, [probe])

    def defaulted(name, field):
        default = _default(next(f for f in dataclasses.fields(classes[name]) if f.name == field))
        return [_is_default(value, default) for value in found[(name, field)]]

    assert defaulted("OnlineOptions", "replication_min_read_fraction") == [True]
    assert defaulted("OnlineOptions", "elastic") == [True]
    assert defaulted("MonitorOptions", "window_size") == [False]
    assert defaulted("MonitorOptions", "min_window_fill") == [True]
    assert defaulted("RetryOptions", "timeout_ms") == [False]
    assert defaulted("RetryOptions", "max_retries") == []
