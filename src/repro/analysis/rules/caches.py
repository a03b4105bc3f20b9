"""Cache contracts: REP003 (bounded, locked caches) and REP104 (no aliasing).

REP003: the memoisation caches share one bounded, locked LRU after unbounded
ad-hoc dicts leaked memory across sweeps.  A new module- or class-level
``_SOMETHING_CACHE = {}`` silently reopens that hole: it is unbounded,
unlocked, and — at class level — shared across every instance.

REP104: the batched engines evolve their state buffers (``_amplitudes``,
``_matrices`` and the ping-pong ``_spare``) in place, so a cache entry that
aliases one is corrupted by the next sweep.  The rule is per function: a
buffer read (or a local name bound to one) must not reach ``.put(key,
value)`` or a subscript store into a ``*cache*``/``*memo*`` name; a
``.copy()`` breaks the taint.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import LintContext, Rule

_CACHE_NAME = re.compile(r"cache|memo", re.IGNORECASE)

#: Constructors that build an ad-hoc shared mapping.
_DICT_CONSTRUCTORS = {
    "dict",
    "OrderedDict",
    "defaultdict",
    "WeakKeyDictionary",
    "WeakValueDictionary",
}


def _is_adhoc_mapping(value: Optional[ast.AST]) -> Optional[str]:
    """The constructor name if ``value`` builds a bare mapping, else ``None``."""
    if isinstance(value, ast.Dict):
        return "{}" if not value.keys else None  # a populated literal is a table
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _DICT_CONSTRUCTORS:
            return f"{name}()"
    return None


def _target_names(statement) -> Iterable[str]:
    if isinstance(statement, ast.AnnAssign):
        if isinstance(statement.target, ast.Name):
            yield statement.target.id
        return
    for target in statement.targets:
        if isinstance(target, ast.Name):
            yield target.id


class AdHocCacheRule(Rule):
    """REP003 — no module- or class-level dict caches in library code.

    Flags module-level and class-level assignments of ``{}`` (or
    ``dict()``/``OrderedDict()``/``defaultdict()``/weak dicts) to names
    containing ``cache``/``memo``.  Instance-level caches created in
    ``__init__`` are out of scope — per-instance state is bounded by the
    instance's lifetime — and populated dict literals are lookup tables, not
    caches.  ``repro/utils/cache.py`` itself is exempt (it *implements* the
    sanctioned cache).
    """

    code = "REP003"
    name = "shared-caches-use-lru"
    description = "shared caches must be bounded + locked (utils.cache.LRUCache)"

    def applies(self, context: LintContext) -> bool:
        return context.is_library and not context.path.endswith("utils/cache.py")

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        scopes = [("module", self._statements(context.tree))]
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                scopes.append((f"class {node.name}", self._statements(node)))
        for scope, statements in scopes:
            for statement in statements:
                constructor = _is_adhoc_mapping(statement.value)
                if constructor is None:
                    continue
                for name in _target_names(statement):
                    if _CACHE_NAME.search(name):
                        out.append(
                            self.diagnostic(
                                context,
                                statement,
                                f"{scope}-level cache '{name} = {constructor}' "
                                "is unbounded, unlocked, and shared across "
                                "threads/instances",
                                hint="use repro.utils.cache.LRUCache (bounded, "
                                "thread-safe)",
                            )
                        )
        return out

    @staticmethod
    def _statements(node) -> List:
        return [
            statement
            for statement in node.body
            if isinstance(statement, (ast.Assign, ast.AnnAssign))
        ]


#: Engine buffers that later evolve in place.
ENGINE_BUFFER_ATTRIBUTES = frozenset({"_amplitudes", "_matrices", "_spare"})


def _is_buffer_read(node: ast.AST) -> bool:
    """Whether an expression reads a raw engine buffer without copying."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in ENGINE_BUFFER_ATTRIBUTES


def _cached_value(node: ast.AST) -> Optional[ast.AST]:
    """The value ``node`` stores into a cache, or ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and len(node.args) >= 2
    ):
        return node.args[1]
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Subscript)
    ):
        base = node.targets[0].value
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        if _CACHE_NAME.search(name):
            return node.value
    return None


class BufferEscapeRule(Rule):
    """REP104 — no raw engine buffer stored into a cache without ``.copy()``."""

    code = "REP104"
    name = "engine-buffers-stay-out-of-caches"
    description = "raw engine buffer escapes into a cached value without .copy()"

    def applies(self, context: LintContext) -> bool:
        return True

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        # Nested functions are walked twice; a finding is keyed by its anchor.
        out = {}
        for function in ast.walk(context.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tainted = set()
            for node in ast.walk(function):
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_buffer_read(
                    node.value
                ):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    tainted.update(t.id for t in targets if isinstance(t, ast.Name))
            for node in ast.walk(function):
                value = _cached_value(node)
                if value is None or not (
                    _is_buffer_read(value)
                    or (isinstance(value, ast.Name) and value.id in tainted)
                ):
                    continue
                out[(value.lineno, value.col_offset)] = self.diagnostic(
                    context,
                    value,
                    f"raw engine buffer '{ast.unparse(value)}' escapes into a "
                    "cached value — the cache entry aliases mutable engine "
                    "state and corrupts on the next sweep",
                    hint="store a .copy() (the engines' public "
                    ".amplitudes/.matrices properties already copy)",
                )
        return list(out.values())
