"""Command-line entry point: ``python -m repro.analysis``.

Runs the AST contract linter over source trees (and, with ``--verify``,
the IR and cost-model verifiers and the equivalence certificates over the
figure suite's representative compiled programs) and reports every finding
through the shared diagnostic pipeline::

    python -m repro.analysis src benchmarks            # lint
    python -m repro.analysis --format json             # default paths, JSON
    python -m repro.analysis src --select REP001,REP104
    python -m repro.analysis --verify                  # + IR/cost/equiv checks

Exit codes: ``0`` when no error-severity findings survive suppression,
``1`` when at least one does, ``2`` on usage errors (unknown path or
code).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, has_errors, sort_diagnostics
from repro.analysis.lint import lint_paths
from repro.analysis.report import findings_payload, format_text_report
from repro.analysis.rules import select_rules

#: Paths tried (if they exist) when the CLI is invoked without any.
DEFAULT_PATHS = ("src", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis for the repro stack: AST contract linter "
            "(REP0xx/REP104/REP106/REP2xx), SweepProgram IR + cost-model "
            "verifiers (VER1xx/VER2xx), and execution-plan equivalence "
            "certificates (VER403-VER407)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src benchmarks, "
        "whichever exist under the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated codes to run: lint rule and/or "
        "equivalence-certificate codes (default: all); VER1xx/VER2xx "
        "always run under --verify and cannot be selected",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="additionally compile the figure suite's representative "
        "SweepPrograms and run the full IR verifier, the static cost-model "
        "verifier, and the VER4xx equivalence certificates (shared "
        "prefixes, kernel classes, composed density schedules) over them "
        "(JSON output gains a 'cost' section)",
    )
    return parser


def _resolve_paths(requested: Sequence[str]) -> List[str]:
    if requested:
        return list(requested)
    present = [path for path in DEFAULT_PATHS if os.path.isdir(path)]
    if not present:
        raise FileNotFoundError(
            "no paths given and none of the default paths "
            f"{list(DEFAULT_PATHS)} exist under {os.getcwd()}"
        )
    return present


def _split_select(selected: Optional[str]):
    """Partition ``--select`` into (lint, equiv) code families.

    ``None`` in a slot means "run everything in that family"; an empty
    tuple means "run nothing".  A code no family knows is a usage error
    whose message lists every selectable code.
    """
    from repro.analysis.equiv import EQUIV_CODES
    from repro.analysis.rules import all_rules

    if selected is None:
        return None, None
    lint_codes = {rule.code for rule in all_rules()}
    codes = [code.strip().upper() for code in selected.split(",") if code.strip()]
    known = lint_codes | set(EQUIV_CODES)
    unknown = sorted(set(codes) - known)
    if unknown:
        raise ValueError(
            f"unknown code(s) {unknown}; selectable: {', '.join(sorted(known))} "
            "(VER1xx/VER2xx run under --verify and cannot be selected)"
        )
    lint = tuple(code for code in codes if code in lint_codes)
    equiv = tuple(code for code in codes if code in EQUIV_CODES)
    return lint, equiv


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = _resolve_paths(args.paths)
        lint_codes, equiv_codes = _split_select(args.select)
        run_lint = lint_codes is None or bool(lint_codes)
        run_equiv = equiv_codes is None or bool(equiv_codes)

        diagnostics: List[Diagnostic] = []
        files_checked = 0
        suppressed_by_code: Dict[str, int] = {}
        timings: Dict[str, float] = {}
        if run_lint:
            started = time.perf_counter()
            lint_result = lint_paths(paths, select_rules(lint_codes))
            timings["lint_seconds"] = time.perf_counter() - started
            diagnostics.extend(lint_result.diagnostics)
            files_checked = lint_result.files_checked
            suppressed_by_code = dict(lint_result.suppressed_by_code)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    cost_reports: Optional[List[dict]] = None
    if args.verify:
        from repro.analysis.cost import reference_cost_reports, verify_reference_costs
        from repro.analysis.verify import verify_reference_suite

        started = time.perf_counter()
        diagnostics.extend(verify_reference_suite())
        diagnostics.extend(verify_reference_costs())
        if run_equiv:
            from repro.analysis.equiv import verify_reference_equivalence

            equiv_diagnostics = verify_reference_equivalence()
            if equiv_codes:
                equiv_diagnostics = [
                    diagnostic
                    for diagnostic in equiv_diagnostics
                    if diagnostic.code in equiv_codes
                ]
            diagnostics.extend(equiv_diagnostics)
        timings["verify_seconds"] = time.perf_counter() - started
        cost_reports = [report.to_dict() for report in reference_cost_reports()]

    diagnostics = sort_diagnostics(diagnostics)
    suppressed = sum(suppressed_by_code.values())
    if args.format == "json":
        payload = findings_payload(
            diagnostics,
            paths=paths,
            files_checked=files_checked,
            suppressed=suppressed,
            suppressed_by_code=suppressed_by_code,
            cost=cost_reports,
            timings=timings,
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            format_text_report(
                diagnostics, files_checked=files_checked, suppressed=suppressed
            )
        )
    return 1 if has_errors(diagnostics) else 0
