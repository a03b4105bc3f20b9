"""The cross-module flow analyzers: REP101, REP102 and REP104.

All three ride on the same :class:`~repro.analysis.flow.graph.Project` /
:class:`~repro.analysis.flow.graph.CallGraph` pair and report through the
shared :class:`~repro.analysis.diagnostics.Diagnostic` record:

====== =====================================================================
code   contract
====== =====================================================================
REP101 shard-reachable code never mutates shared state (attribute
       read-modify-writes, ``global`` writes, module-level container
       stores) outside a ``with <lock>:`` region or a class annotated
       ``__thread_safe__ = True`` (``repro.utils.cache.LRUCache``)
REP102 one ``numpy.random.Generator`` never flows into more than one shard
       submission — per-shard streams come from ``SeedSequence.spawn``
       (``spawn_rngs``/``spawn_seed_sequences``)
REP104 raw engine buffers (``BatchedStatevector._amplitudes``,
       ``BatchedDensityMatrix._matrices``) never escape into cached values
       without a ``.copy()``
====== =====================================================================

REP101 findings are *worker-shared-state candidates*: the analyzer cannot
see object lifetimes, so writes to objects that are provably worker-local
(built inside the shard body) are skipped, and remaining false positives are
suppressed with justified ``# repro: noqa`` comments at the write site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.flow.dataflow import (
    ENGINE_BUFFER_ATTRIBUTES,
    RNG_ATTRIBUTES,
    SPAWN_SINKS,
    FunctionFacts,
    _is_buffer_read,
    function_facts,
    render,
)
from repro.analysis.flow.entrypoints import EntryPoint, find_entry_points
from repro.analysis.flow.graph import CallGraph, FunctionInfo, Project

#: The flow-analyzer rule catalogue (code -> one-line description).
FLOW_CODES = {
    "REP101": (
        "shard-reachable write to shared mutable state without a lock "
        "(race under the thread strategy)"
    ),
    "REP102": (
        "one numpy Generator flows into multiple shard submissions instead "
        "of per-shard SeedSequence.spawn streams"
    ),
    "REP104": (
        "raw engine buffer escapes into a cached value without .copy()"
    ),
}

def _diag(
    code: str,
    message: str,
    *,
    file: str,
    line: int,
    column: int = 1,
    obj: Optional[str] = None,
    hint: Optional[str] = None,
    severity: Severity = Severity.ERROR,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        location=Location(file=file, line=line, column=column, obj=obj),
        message=message,
        hint=hint,
    )


def _node_diag(
    code: str,
    message: str,
    function: FunctionInfo,
    node: ast.AST,
    hint: Optional[str] = None,
) -> Diagnostic:
    return _diag(
        code,
        message,
        file=function.module.path,
        line=getattr(node, "lineno", function.line),
        column=getattr(node, "col_offset", 0) + 1,
        obj=function.qualname,
        hint=hint,
    )


def _class_is_thread_safe(project: Project, function: FunctionInfo) -> bool:
    if function.class_name is None:
        return False
    module_name = function.module.name
    qualname = (
        f"{module_name}.{function.class_name}" if module_name else function.class_name
    )
    info = project.classes.get(qualname)
    return bool(info is not None and info.thread_safe)


# --------------------------------------------------------------------------- #
# REP101 — shard-reachable shared-state writes
# --------------------------------------------------------------------------- #


def check_shared_state(
    project: Project,
    graph: CallGraph,
    entry_points: Sequence[EntryPoint],
    facts_of: Dict[str, FunctionFacts],
) -> List[Diagnostic]:
    """REP101: unlocked writes to shared mutable state in shard-reachable code."""
    out: List[Diagnostic] = []
    reachable = graph.reachable(ep.qualname for ep in entry_points)
    for qualname in sorted(reachable):
        function = project.functions[qualname]
        if _class_is_thread_safe(project, function):
            continue
        facts = facts_of[qualname]
        for write in facts.shared_writes:
            if write.lock_guarded:
                continue
            out.append(
                _node_diag(
                    "REP101",
                    f"'{write.target}' is written from shard-reachable code "
                    f"({qualname}) without a lock — a race under the thread "
                    "strategy",
                    function,
                    write.node,
                    hint=(
                        "guard the read-modify-write with threading.Lock, route "
                        "the state through repro.utils.cache.LRUCache "
                        "(__thread_safe__), or suppress with a justified noqa "
                        "if the object is provably worker-local"
                    ),
                )
            )
    return out


# --------------------------------------------------------------------------- #
# REP102 — shared Generator across shard submissions
# --------------------------------------------------------------------------- #


def _loop_target_names(target: ast.AST) -> Set[str]:
    return {
        node.id for node in ast.walk(target) if isinstance(node, ast.Name)
    }


def _names_in(node: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _rng_valued(node: ast.AST, facts: FunctionFacts) -> bool:
    if isinstance(node, ast.Name):
        return node.id in facts.rng_names
    if isinstance(node, ast.Attribute):
        return node.attr in RNG_ATTRIBUTES
    return False


def _contains_fanout_call(function: FunctionInfo, project: Project) -> bool:
    from repro.analysis.flow.entrypoints import _is_fanout_call

    for node in ast.walk(function.node):
        if isinstance(node, ast.Call) and _is_fanout_call(
            node, project, function.module
        ):
            return True
    return False


def _flag_rng_args_in_loops(
    function: FunctionInfo, facts: FunctionFacts, out: List[Diagnostic]
) -> None:
    """Flag loop-invariant generator expressions used while building payloads."""

    def scan_body(body: Iterable[ast.AST], loop_names: Set[str]) -> None:
        for statement in body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                call_name = None
                if isinstance(node.func, ast.Name):
                    call_name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    call_name = node.func.attr
                if call_name in SPAWN_SINKS:
                    continue  # spawning from a parent stream is the fix
                arguments = list(node.args) + [kw.value for kw in node.keywords]
                for argument in arguments:
                    if not _rng_valued(argument, facts):
                        continue
                    if _names_in(argument) & loop_names:
                        continue  # derived from the loop index: per-shard
                    out.append(
                        _node_diag(
                            "REP102",
                            f"generator '{render(argument)}' is loop-invariant "
                            "but flows into per-shard payloads — every shard "
                            "would share one stream, making results depend on "
                            "execution order",
                            function,
                            argument,
                            hint=(
                                "spawn per-shard streams first: "
                                "rngs = spawn_rngs(parent, n); pass "
                                "rngs[index] inside the loop"
                            ),
                        )
                    )

    for node in ast.walk(function.node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            scan_body(node.body, _loop_target_names(node.target))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            loop_names: Set[str] = set()
            for generator in node.generators:
                loop_names |= _loop_target_names(generator.target)
            scan_body([node.elt], loop_names)


def _flag_rng_across_submissions(
    function: FunctionInfo,
    facts: FunctionFacts,
    project: Project,
    out: List[Diagnostic],
) -> None:
    """Flag the same generator name passed to two or more ``.submit`` calls."""
    from repro.analysis.flow.entrypoints import _is_fanout_call

    submissions: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Call):
            continue
        if not _is_fanout_call(node, project, function.module):
            continue
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for argument in arguments:
            if _rng_valued(argument, facts):
                submissions.setdefault(render(argument), []).append(argument)
    for name, nodes in submissions.items():
        if len(nodes) < 2:
            continue
        for node in nodes[1:]:
            out.append(
                _node_diag(
                    "REP102",
                    f"generator '{name}' flows into more than one shard "
                    "submission — shards would share one stream",
                    function,
                    node,
                    hint="spawn one child stream per submission with "
                    "spawn_rngs/spawn_seed_sequences",
                )
            )


def check_seed_aliasing(
    project: Project, facts_of: Dict[str, FunctionFacts]
) -> List[Diagnostic]:
    """REP102: one Generator object flowing into multiple shard submissions."""
    out: List[Diagnostic] = []
    for qualname in sorted(project.functions):
        function = project.functions[qualname]
        if not _contains_fanout_call(function, project):
            continue
        facts = facts_of[qualname]
        _flag_rng_args_in_loops(function, facts, out)
        _flag_rng_across_submissions(function, facts, project, out)
    return out


# --------------------------------------------------------------------------- #
# REP104 — engine buffers escaping into caches
# --------------------------------------------------------------------------- #


def _buffer_tainted(node: ast.AST, facts: FunctionFacts) -> bool:
    if _is_buffer_read(node):
        return True
    return isinstance(node, ast.Name) and node.id in facts.buffer_names


def check_buffer_escape(
    project: Project, facts_of: Dict[str, FunctionFacts]
) -> List[Diagnostic]:
    """REP104: raw ``_amplitudes``/``_matrices`` stored into cached values."""
    out: List[Diagnostic] = []
    for qualname in sorted(project.functions):
        function = project.functions[qualname]
        facts = facts_of[qualname]
        for node in ast.walk(function.node):
            value: Optional[ast.AST] = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "put"
                and len(node.args) >= 2
            ):
                value = node.args[1]
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, (ast.Name, ast.Attribute))
                ):
                    base = target.value
                    base_name = (
                        base.id if isinstance(base, ast.Name) else base.attr
                    )
                    if "cache" in base_name.lower() or "memo" in base_name.lower():
                        value = node.value
            if value is not None and _buffer_tainted(value, facts):
                out.append(
                    _node_diag(
                        "REP104",
                        f"raw engine buffer '{render(value)}' escapes into a "
                        "cached value — the cache entry aliases mutable engine "
                        "state and corrupts on the next sweep",
                        function,
                        value,
                        hint="store a .copy() (the engines' public "
                        ".amplitudes/.matrices properties already copy)",
                    )
                )
    return out


# --------------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------------- #


def run_flow_analyzers(
    project: Project, codes: Optional[Sequence[str]] = None
) -> Tuple[List[Diagnostic], List[EntryPoint]]:
    """Run the selected flow analyzers over one project.

    Returns ``(diagnostics, entry_points)``; ``codes=None`` runs all three.
    """
    wanted = set(codes) if codes is not None else set(FLOW_CODES)
    facts_of = {
        qualname: function_facts(
            function.node, function.module.mutable_globals
        )
        for qualname, function in project.functions.items()
    }
    entry_points = find_entry_points(project)
    out: List[Diagnostic] = []
    if "REP101" in wanted:
        graph = CallGraph.build(project)
        out.extend(check_shared_state(project, graph, entry_points, facts_of))
    if "REP102" in wanted:
        out.extend(check_seed_aliasing(project, facts_of))
    if "REP104" in wanted:
        out.extend(check_buffer_escape(project, facts_of))
    # Nested loops and overlapping walks can visit one site twice; a finding
    # is identified by (code, anchor, message).
    unique: Dict[tuple, Diagnostic] = {}
    for diagnostic in out:
        key = (
            diagnostic.code,
            diagnostic.location.file,
            diagnostic.location.line,
            diagnostic.location.column,
            diagnostic.message,
        )
        unique.setdefault(key, diagnostic)
    return list(unique.values()), entry_points
