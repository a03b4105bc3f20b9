"""Shard entry-point detection: which callables cross the fan-out boundary.

A *shard entry point* is a function that executes on a worker — the first
argument of a fan-out call.  Everything such a function can reach (per the
:class:`~repro.analysis.flow.graph.CallGraph`) runs concurrently under the
``thread`` strategy, which is the region the REP101/REP104 analyzers patrol.

Recognised fan-out shapes, matching the stack's real submission seams:

* ``<obj>.map(fn, ...)`` — :meth:`repro.parallel.ShardExecutor.map`
  (``Trainer._fit_sharded`` submits ``_run_class_shard`` this way, and
  ``experiments.harness.run_cells`` submits ``_run_sweep_cell``);
* ``<obj>.submit(fn, ...)`` — raw executor submission;
* ``run_cells(cell_fn, ...)`` — the harness helper: the cell function runs
  on workers via the ``_run_sweep_cell`` trampoline, so the *cell function
  itself* is the entry point.

The first argument must statically resolve to a project function (a bare
name or a ``module.func`` attribute).  Lambdas and parameter-valued
callables are invisible here — a documented precision limit (see the
caveats section of ``docs/static_analysis.md``).  This is why sweep cells
and shard bodies are module-level functions, never lambdas.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import List

from repro.analysis.flow.graph import FunctionInfo, Project

#: Attribute names that submit their first argument to a worker pool.
FANOUT_METHODS = frozenset({"map", "submit"})

#: Bare-name helpers whose first argument runs on workers.
FANOUT_HELPERS = frozenset({"run_cells"})


@dataclasses.dataclass(frozen=True)
class EntryPoint:
    """One callable that crosses the shard boundary."""

    qualname: str  #: the worker-side function
    submitted_at: str  #: qualname of the function containing the fan-out call
    file: str
    line: int
    reason: str  #: the recognised fan-out shape, e.g. ``executor.map``


def _fanout_reason(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else "<expr>"
        return f"{base_name}.{func.attr}"
    if isinstance(func, ast.Name):
        return func.id
    return "<call>"


def _is_fanout_call(call: ast.Call, project: Project, module) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in FANOUT_METHODS:
        # ``.map``/``.submit`` on anything — the first-argument resolution
        # below filters out builtins like ``concurrent.futures`` internals
        # whose submitted callables are parameters, not project functions.
        return True
    if isinstance(func, ast.Name):
        if func.id in FANOUT_HELPERS:
            return True
        # ``from repro.experiments.harness import run_cells as rc``
        target = module.import_from.get(func.id, "")
        return target.rsplit(".", 1)[-1] in FANOUT_HELPERS
    return False


def find_entry_points(project: Project) -> List[EntryPoint]:
    """Every statically visible shard entry point in the project."""
    out: List[EntryPoint] = []
    seen = set()
    for function in project.functions.values():
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not _is_fanout_call(node, project, function.module):
                continue
            for qualname in project.resolve_function_reference(
                function.module, node.args[0]
            ):
                key = (qualname, function.qualname, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    EntryPoint(
                        qualname=qualname,
                        submitted_at=function.qualname,
                        file=function.module.path,
                        line=node.lineno,
                        reason=_fanout_reason(node),
                    )
                )
    return sorted(out, key=lambda e: (e.file, e.line, e.qualname))
