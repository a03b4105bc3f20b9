"""Project model and call graph of the flow analyzers.

The flow pass needs a *whole-program* view that the per-file linter rules do
not have: which functions exist, which module each lives in, and which
functions a given function can call.  :class:`Project` parses every file once
(AST only — nothing is imported or executed) and indexes top-level functions,
classes, and methods by qualified name; :class:`CallGraph` resolves call
sites with a deliberately cheap strategy:

* bare names resolve through module-local definitions and ``from``-import
  aliases;
* ``module.func(...)`` resolves through ``import``-as aliases;
* ``self.method(...)`` prefers a method of the enclosing class;
* any other ``obj.method(...)`` falls back to **every** project function or
  method of that name (class-hierarchy-analysis style), except for a
  denylist of ubiquitous container/ndarray method names whose fan-out would
  drown the graph.

The resolution is an *over*-approximation by construction — the analyzers
built on top (REP101, REP102, REP104) may reach more code than any concrete
run, and false positives are handled with justified ``# repro: noqa``
suppressions — but it is never an under-approximation for the
attribute-call patterns the sharded stack actually uses (``executor.map``,
``estimator.fidelity_matrix``, ``backend.sweep_grid_zero_probabilities``,
...), which is what makes the race findings trustworthy.  See
``docs/static_analysis.md`` for what the detector does and does not prove.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Attribute/method names never fanned out on: ubiquitous container, string,
#: ndarray, and executor-internal methods whose global resolution would link
#: every function to every other.  Project methods sharing one of these
#: names are reached through their other (resolvable) callers instead.
ATTRIBUTE_FANOUT_SKIP = frozenset(
    {
        # containers / builtins
        "append", "extend", "insert", "remove", "pop", "popitem", "setdefault",
        "update", "keys", "values", "items", "copy", "sort", "reverse",
        "count", "index", "add", "discard", "union", "intersection",
        # strings
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
        "startswith", "endswith", "lower", "upper", "replace", "encode",
        "decode", "title", "capitalize",
        # ndarray / numpy scalars
        "reshape", "astype", "flatten", "ravel", "tolist", "item", "mean",
        "sum", "dot", "std", "var", "squeeze", "transpose", "conj", "fill",
        "argmax", "argmin", "clip", "round", "take", "view",
        # RNG draws (never definitions in this codebase)
        "shuffle", "choice", "normal", "uniform", "standard_normal",
        "permutation", "integers", "multinomial", "random", "spawn",
        # io / misc plumbing
        "read", "write", "readline", "close", "flush", "get", "put",
        "result", "cancel", "shutdown", "done", "add_note",
    }
)


def module_name_for(path: str) -> str:
    """Dotted module name of a normalised ``/``-separated file path.

    ``src/repro/core/trainer.py`` maps to ``repro.core.trainer`` (everything
    up to and including the ``src`` segment is a root, ``__init__`` is
    elided); paths without a ``src`` segment keep their directories, so
    ``benchmarks/bench_x.py`` maps to ``benchmarks.bench_x``.
    """
    parts = path.split("/")
    if "src" in parts[:-1]:
        parts = parts[parts.index("src") + 1 :]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclasses.dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str  #: normalised ``/``-separated path
    name: str  #: dotted module name
    tree: ast.Module
    source: str
    #: bare name -> dotted target (``from x import y [as z]`` bindings)
    import_from: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: alias -> dotted module (``import x.y [as z]`` bindings)
    import_module: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: names of module-level mutable containers (dict/list/set literals)
    mutable_globals: Set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class FunctionInfo:
    """One top-level function or method (nested defs stay inside their parent)."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    name: str
    node: ast.AST  #: FunctionDef | AsyncFunctionDef
    module: ModuleInfo
    class_name: Optional[str] = None

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclasses.dataclass
class ClassInfo:
    """One class definition with the thread-safety fact REP101 reads."""

    qualname: str
    name: str
    node: ast.ClassDef
    module: ModuleInfo
    #: whether the class opts in as thread-safe (``__thread_safe__ = True``)
    thread_safe: bool = False


def _class_info(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    info = ClassInfo(
        qualname=f"{module.name}.{node.name}" if module.name else node.name,
        name=node.name,
        node=node,
        module=module,
    )
    for statement in node.body:
        if (
            isinstance(statement, ast.Assign)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is True
            and any(
                isinstance(target, ast.Name) and target.id == "__thread_safe__"
                for target in statement.targets
            )
        ):
            info.thread_safe = True
    return info


def _index_module(module: ModuleInfo) -> Tuple[List[FunctionInfo], List[ClassInfo]]:
    functions: List[FunctionInfo] = []
    classes: List[ClassInfo] = []
    prefix = f"{module.name}." if module.name else ""
    for statement in module.tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    module.import_module[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif statement.module is not None and statement.level == 0:
                for alias in statement.names:
                    module.import_from[alias.asname or alias.name] = (
                        f"{statement.module}.{alias.name}"
                    )
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                FunctionInfo(
                    qualname=f"{prefix}{statement.name}",
                    name=statement.name,
                    node=statement,
                    module=module,
                )
            )
        elif isinstance(statement, ast.ClassDef):
            info = _class_info(statement, module)
            classes.append(info)
            for member in statement.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        FunctionInfo(
                            qualname=f"{prefix}{statement.name}.{member.name}",
                            name=member.name,
                            node=member,
                            module=module,
                            class_name=statement.name,
                        )
                    )
        elif isinstance(statement, ast.Assign):
            if isinstance(statement.value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(statement.value, ast.Call)
                and isinstance(statement.value.func, ast.Name)
                and statement.value.func.id in {"dict", "list", "set", "OrderedDict"}
            ):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        module.mutable_globals.add(target.id)
    return functions, classes


class Project:
    """Every parsed module of one analysis run, with cross-module indexes."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # by path
        self.functions: Dict[str, FunctionInfo] = {}  # by qualname
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes: Dict[str, ClassInfo] = {}  # by qualname

    @classmethod
    def from_sources(cls, sources: Sequence[Tuple[str, str]]) -> "Project":
        """Build a project from ``(normalised_path, source)`` pairs.

        Files that fail to parse are skipped — the linter already reports
        them as ``REP000`` — so one broken file cannot blind the whole pass.
        """
        project = cls()
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            module = ModuleInfo(
                path=path, name=module_name_for(path), tree=tree, source=source
            )
            project.modules[path] = module
            functions, classes = _index_module(module)
            for function in functions:
                project.functions[function.qualname] = function
                project.functions_by_name.setdefault(function.name, []).append(
                    function
                )
            for info in classes:
                project.classes[info.qualname] = info
        return project

    # ------------------------------------------------------------------ #
    def resolve_name(self, module: ModuleInfo, name: str) -> List[str]:
        """Qualnames a bare ``name(...)`` call in ``module`` may reach."""
        local = f"{module.name}.{name}" if module.name else name
        if local in self.functions:
            return [local]
        target = module.import_from.get(name)
        if target is not None:
            if target in self.functions:
                return [target]
            # ``from pkg import helper`` where the definition lives in
            # ``pkg.module`` — fall back to the simple-name index, filtered
            # to the imported package prefix.
            tail = target.rsplit(".", 1)[-1]
            prefix = target.rsplit(".", 1)[0]
            return [
                fn.qualname
                for fn in self.functions_by_name.get(tail, [])
                if fn.qualname.startswith(prefix.split(".")[0])
            ]
        return []

    def resolve_attribute(
        self, module: ModuleInfo, call: ast.Call, class_name: Optional[str]
    ) -> List[str]:
        """Qualnames an ``obj.method(...)`` call may reach."""
        func = call.func
        assert isinstance(func, ast.Attribute)
        method = func.attr
        base = func.value
        # module alias: ``np.foo`` / ``harness.run_cells``
        if isinstance(base, ast.Name):
            target_module = module.import_module.get(base.id)
            if target_module is not None:
                qualname = f"{target_module}.{method}"
                return [qualname] if qualname in self.functions else []
            if base.id == "self" and class_name is not None:
                own = (
                    f"{module.name}.{class_name}.{method}"
                    if module.name
                    else f"{class_name}.{method}"
                )
                if own in self.functions:
                    return [own]
        if method in ATTRIBUTE_FANOUT_SKIP:
            return []
        return [
            fn.qualname
            for fn in self.functions_by_name.get(method, [])
            if fn.class_name is not None
        ]

    def resolve_call(self, function: FunctionInfo, call: ast.Call) -> List[str]:
        """Every project function a call site may dispatch to."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(function.module, func.id)
        if isinstance(func, ast.Attribute):
            return self.resolve_attribute(function.module, call, function.class_name)
        return []

    def resolve_function_reference(
        self, module: ModuleInfo, node: ast.AST
    ) -> List[str]:
        """Project functions a *reference* (not a call) may denote.

        Used for fan-out first arguments: ``executor.map(_run_cell, plan)``
        passes ``_run_cell`` as a value.  Bare names resolve like calls;
        ``module.func`` attribute references resolve through import aliases.
        """
        if isinstance(node, ast.Name):
            return self.resolve_name(module, node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target_module = module.import_module.get(node.value.id)
            if target_module is not None:
                qualname = f"{target_module}.{node.attr}"
                if qualname in self.functions:
                    return [qualname]
        return []


class CallGraph:
    """Resolved call edges over a :class:`Project`, plus BFS reachability."""

    def __init__(self, edges: Dict[str, Set[str]]) -> None:
        self.edges = edges

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        edges: Dict[str, Set[str]] = {}
        for qualname, function in project.functions.items():
            callees: Set[str] = set()
            for node in ast.walk(function.node):
                if isinstance(node, ast.Call):
                    callees.update(project.resolve_call(function, node))
            callees.discard(qualname)
            edges[qualname] = callees
        return cls(edges)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function transitively callable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.edges]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()) - seen)
        return seen
