"""Determinism lint: unseeded entropy, wall-clock, and set-order escapes.

The repo's byte-determinism contract (snapshots, plan fingerprints, metric
exports identical across processes and array backends) survives only if no
code path consults ambient entropy or lets unordered-container iteration
order escape into a sequence.  This pass flags:

* **Unseeded entropy** — ``random.*`` module functions (``random.Random``
  with an explicit seed is the sanctioned construction and stays legal),
  ``os.urandom``, ``uuid.uuid1``/``uuid4``, anything from ``secrets``.
* **Wall clock as data** — ``time.time``/``time_ns`` and
  ``datetime.now``/``utcnow``/``today``.  ``time.perf_counter`` and
  ``time.monotonic`` are *not* flagged: they are the sanctioned primitives
  of the volatile telemetry side (``Stopwatch``, worker deadlines), whose
  readings never reach deterministic payloads — that split is enforced at
  the metrics layer by ``volatile=True`` families, and test files are not
  scanned at all.
* **Volatile field in a payload** — a dataclass field declared
  ``field(metadata={"volatile": True})`` (the mark of a field that holds a
  wall-clock reading) read as ``self.<field>`` inside that class's
  ``to_payload``.
* **Set-order escapes** — a syntactic ``set``/``frozenset`` expression
  iterated into an *ordered* artifact: ``list(...)``/``tuple(...)``/
  ``enumerate(...)`` over it, ``str.join`` of it, a ``for`` statement or a
  list/dict comprehension drawing from it.  Consuming the set through an
  order-insensitive callee (``sorted``, ``min``, ``max``, ``sum``, ``any``,
  ``all``, ``len``, ``set``, ``frozenset``) is fine, as is a generator
  expression fed directly to one.
* **Unsorted serialization** — ``json.dumps`` without ``sort_keys=True``
  (use :mod:`repro.utils.canonical_json` for payloads).
* **Dynamic fork salts** — ``SeededRng.fork(salt)`` where ``salt`` is
  neither a literal constant nor a tuple carrying at least one static
  string tag.  An untagged dynamic salt (say, a bare table name) can
  collide with another component forking the same parent under the same
  value, silently entangling two "independent" streams.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, InvariantPass, ModuleSource, Project, dotted_name

#: dotted call origins that are never allowed in library code.
_BANNED_CALLS = {
    "time.time": "wall-clock time.time() as data; use Stopwatch / volatile telemetry",
    "time.time_ns": "wall-clock time.time_ns() as data; use Stopwatch / volatile telemetry",
    "os.urandom": "os.urandom is unseedable; draw from SeededRng",
    "uuid.uuid1": "uuid.uuid1 is host/time-dependent; derive ids from SeededRng",
    "uuid.uuid4": "uuid.uuid4 is unseedable; derive ids from SeededRng",
}
#: ``datetime``-flavoured wall-clock constructors (matched on the last two
#: segments so both ``datetime.now()`` and ``datetime.datetime.now()`` hit).
_BANNED_DATETIME = {"now", "utcnow", "today"}
#: callees whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE = {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}
#: callees that materialise their argument's iteration order.
_ORDER_MATERIALISING = {"list", "tuple", "enumerate"}


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` is syntactically a set/frozenset-valued expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _volatile_fields(node: ast.ClassDef) -> set[str]:
    """Names the class body declares as ``field(metadata={"volatile": True})``."""
    names: set[str] = set()
    for statement in node.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and isinstance(statement.value, ast.Call)
        ):
            continue
        for keyword in statement.value.keywords:
            if keyword.arg != "metadata":
                continue
            try:
                metadata = ast.literal_eval(keyword.value)
            except ValueError:
                continue
            if isinstance(metadata, dict) and metadata.get("volatile") is True:
                names.add(statement.target.id)
    return names


def _salt_is_tagged(salt: ast.AST) -> bool:
    """A fork salt is static enough: a literal, or a tuple with a str tag."""
    if isinstance(salt, ast.Constant):
        return True
    if isinstance(salt, ast.Tuple):
        return any(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in salt.elts
        )
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, lint: "DeterminismPass", module: ModuleSource) -> None:
        self.lint = lint
        self.module = module
        self.findings: list[Finding] = []
        #: local name -> dotted origin, from import statements.
        self.aliases: dict[str, str] = {}
        #: comprehension nodes consumed by an order-insensitive callee.
        self.blessed: set[int] = set()

    # -- import tracking ---------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _origin(self, func: ast.AST) -> str | None:
        """The dotted origin of a callee, import aliases resolved."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, tail = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{tail}" if tail else resolved

    # -- volatile fields ---------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        volatile = _volatile_fields(node)
        for statement in node.body:
            if not (isinstance(statement, ast.FunctionDef) and statement.name == "to_payload"):
                continue
            for read in ast.walk(statement):
                if (
                    isinstance(read, ast.Attribute)
                    and read.attr in volatile
                    and isinstance(read.value, ast.Name)
                    and read.value.id == "self"
                ):
                    self._emit(
                        read,
                        f"volatile field {node.name}.{read.attr} read in to_payload; "
                        "a persisted payload carries no wall clock",
                    )
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        origin = self._origin(node.func)
        if origin is not None:
            self._check_banned(node, origin)
            self._check_set_escape_call(node, origin)
            self._bless_comprehensions(node, origin)
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "fork":
                self._check_fork_salt(node)
            if node.func.attr == "join" and node.args and _is_set_expr(node.args[0]):
                self._emit(node, "str.join over a set expression; sort it first")
        self.generic_visit(node)

    def _check_banned(self, node: ast.Call, origin: str) -> None:
        if origin in _BANNED_CALLS:
            self._emit(node, _BANNED_CALLS[origin])
            return
        parts = origin.split(".")
        if parts[0] == "secrets":
            self._emit(node, "secrets.* is unseedable; draw from SeededRng")
        elif parts[0] == "random" and len(parts) == 2 and parts[1] != "Random":
            self._emit(
                node,
                f"bare random.{parts[1]}() uses the shared unseeded generator; "
                "draw from SeededRng",
            )
        elif (
            len(parts) >= 2
            and parts[-1] in _BANNED_DATETIME
            and parts[-2] in ("datetime", "date")
        ):
            self._emit(node, f"wall-clock {parts[-2]}.{parts[-1]}() as data")

    def _check_set_escape_call(self, node: ast.Call, origin: str) -> None:
        if origin in _ORDER_MATERIALISING and node.args and _is_set_expr(node.args[0]):
            self._emit(
                node,
                f"{origin}() materialises set iteration order; wrap in sorted()",
            )
        if origin == "json.dumps":
            sort_keys = next(
                (kw for kw in node.keywords if kw.arg == "sort_keys"), None
            )
            if (
                sort_keys is None
                or not isinstance(sort_keys.value, ast.Constant)
                or sort_keys.value.value is not True
            ):
                self._emit(
                    node,
                    "json.dumps without sort_keys=True; use repro.utils.canonical_json",
                )

    def _bless_comprehensions(self, node: ast.Call, origin: str) -> None:
        if origin.split(".")[-1] in _ORDER_INSENSITIVE:
            for argument in node.args:
                if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
                    self.blessed.add(id(argument))

    def _check_fork_salt(self, node: ast.Call) -> None:
        if len(node.args) != 1 or node.keywords:
            self._emit(node, "SeededRng.fork takes exactly one positional salt")
            return
        if not _salt_is_tagged(node.args[0]):
            self._emit(
                node,
                "fork salt is fully dynamic; tag it with a static string "
                '(e.g. fork(("component", value)))',
            )

    # -- iteration contexts ------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._emit(node.iter, "for-loop over a set expression; iterate sorted(...)")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if _is_set_expr(node.generators[0].iter):
            self._emit(
                node,
                "dict comprehension over a set expression fixes its insertion "
                "order; iterate sorted(...)",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.ListComp | ast.GeneratorExp) -> None:
        if id(node) in self.blessed:
            return
        if _is_set_expr(node.generators[0].iter):
            self._emit(
                node,
                "comprehension over a set expression materialises its order; "
                "iterate sorted(...) or consume order-insensitively",
            )

    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.lint.finding(self.module, node, message))


class DeterminismPass(InvariantPass):
    """Flags ambient entropy, wall-clock-as-data, and set-order escapes."""

    name = "determinism"
    description = (
        "unseeded random/time/uuid sources, unsorted set iteration escaping "
        "into sequences or serialized output, untagged SeededRng.fork salts, "
        "and volatile dataclass fields read in to_payload"
    )

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules():
            if not self.applies_to(module):
                continue
            # The call blessing in _bless_comprehensions must see a consumer
            # call before its argument comprehension; a pre-order walk
            # guarantees that (parents visit before children).
            visitor = _Visitor(self, module)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        return findings
