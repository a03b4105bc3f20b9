"""Cross-module flow analysis: call graph + dataflow behind REP101/102/104.

The third pass family of :mod:`repro.analysis` (after the per-file AST
linter and the IR verifier).  Where the linter judges one file at a time,
the flow pass builds a whole-program view — which callables cross the
:class:`~repro.parallel.ShardExecutor` fan-out boundary, and what they can
reach — and checks the concurrency/determinism contracts that only exist
*between* modules:

* :func:`~repro.analysis.flow.analyzers.check_shared_state` — REP101, the
  race detector over shard-reachable writes;
* :func:`~repro.analysis.flow.analyzers.check_seed_aliasing` — REP102, one
  Generator flowing into many shard submissions (the defect class of the
  PR 4 trainer bug, caught statically);
* :func:`~repro.analysis.flow.analyzers.check_buffer_escape` — REP104,
  raw engine buffers escaping into cached values.

The engine modules are reusable on their own: :mod:`.graph` (project model,
call graph, reachability), :mod:`.entrypoints` (shard entry-point
detection), :mod:`.dataflow` (per-function facts).  Later rules build on
the same three primitives.

Findings honour the linter's ``# repro: noqa CODE -- why`` suppressions at
the flagged line, with the same required-justification contract.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.flow.analyzers import (
    FLOW_CODES,
    check_buffer_escape,
    check_seed_aliasing,
    check_shared_state,
    run_flow_analyzers,
)
from repro.analysis.flow.entrypoints import EntryPoint, find_entry_points
from repro.analysis.flow.graph import CallGraph, Project
from repro.analysis.lint import (
    apply_suppressions,
    iter_python_files,
    justified_suppression_index,
    merge_suppression_counts,
    normalize_path,
)

__all__ = [
    "FLOW_CODES",
    "FlowResult",
    "CallGraph",
    "EntryPoint",
    "Project",
    "analyze_paths",
    "analyze_sources",
    "check_buffer_escape",
    "check_seed_aliasing",
    "check_shared_state",
    "find_entry_points",
    "run_flow_analyzers",
]


@dataclasses.dataclass
class FlowResult:
    """Outcome of one flow-analysis run."""

    diagnostics: List[Diagnostic]
    files_checked: int
    suppressed: int
    suppressed_by_code: Dict[str, int]
    entry_points: List[EntryPoint]


def analyze_sources(
    sources: Sequence[Tuple[str, str]], codes: Optional[Sequence[str]] = None
) -> FlowResult:
    """Run the flow analyzers over ``(normalised_path, source)`` pairs."""
    project = Project.from_sources(sources)
    diagnostics, entry_points = run_flow_analyzers(project, codes)
    suppression_index_by_file = {
        path: justified_suppression_index(source) for path, source in sources
    }
    kept: List[Diagnostic] = []
    suppressed_by_code: Dict[str, int] = {}
    by_file: Dict[str, List[Diagnostic]] = {}
    for diagnostic in diagnostics:
        by_file.setdefault(diagnostic.location.file or "", []).append(diagnostic)
    for path, file_diagnostics in by_file.items():
        survivors, counts = apply_suppressions(
            file_diagnostics, suppression_index_by_file.get(path, {})
        )
        kept.extend(survivors)
        merge_suppression_counts(suppressed_by_code, counts)
    return FlowResult(
        diagnostics=sort_diagnostics(kept),
        files_checked=len(sources),
        suppressed=sum(suppressed_by_code.values()),
        suppressed_by_code=suppressed_by_code,
        entry_points=entry_points,
    )


def analyze_paths(
    paths: Sequence[str],
    codes: Optional[Sequence[str]] = None,
    *,
    root: Optional[str] = None,
) -> FlowResult:
    """Run the flow analyzers over every Python file under ``paths``."""
    sources: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            sources.append((normalize_path(path, root), handle.read()))
    return analyze_sources(sources, codes)
