"""REP003 — shared caches must route through ``repro.utils.cache.LRUCache``.

PR 2 unified the memoisation caches behind one bounded, locked LRU after
unbounded ad-hoc dicts leaked memory across sweeps, and PR 4 made it
thread-safe because thread-strategy shard workers share builder/estimator
caches.  A new module- or class-level ``_SOMETHING_CACHE = {}`` silently
reopens both holes: it is unbounded, unlocked, and — at class level —
shared across every instance and thread.
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
