"""Output formats of the analysis CLI: text report and JSON payload.

The JSON payload is the machine-readable twin of the text report — the
bench-smoke suite schema-checks it with :func:`validate_findings_payload`
the same way ``BENCH_*.json`` perf points are checked by
:func:`repro.experiments.reporting.validate_perf_payload`, so the CLI's
output contract cannot rot unnoticed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity, sort_diagnostics

#: Schema version of the JSON payload.  Version 2 added the per-rule-code
#: ``summary.suppressed_by_code`` accounting and the optional machine-readable
#: ``cost`` section (static cost-model reports, emitted under ``--verify``).
#: Version 3 added the optional ``timings`` section of per-analyzer
#: wall-clock seconds; version 4 dropped its ``jobs`` fan-out width along
#: with the ``--jobs`` flag.
PAYLOAD_VERSION = 4

_REQUIRED_FINDING_KEYS = ("code", "severity", "message")
_SEVERITIES = {severity.value for severity in Severity}
#: Integer fields every ``cost`` entry must carry.
_COST_INT_KEYS = (
    "num_qubits",
    "element_amplitudes",
    "tile_elements",
    "peak_amplitudes",
    "peak_bytes",
    "num_tiles",
    "contractions",
    "bytes_moved",
)


def summarize(
    diagnostics: Sequence[Diagnostic],
    suppressed: int = 0,
    suppressed_by_code: Optional[Dict[str, int]] = None,
) -> dict:
    """Severity tallies of a finding list."""
    return {
        "errors": sum(1 for d in diagnostics if d.severity is Severity.ERROR),
        "warnings": sum(1 for d in diagnostics if d.severity is Severity.WARNING),
        "infos": sum(1 for d in diagnostics if d.severity is Severity.INFO),
        "suppressed": int(suppressed),
        "suppressed_by_code": dict(sorted((suppressed_by_code or {}).items())),
    }


def findings_payload(
    diagnostics: Sequence[Diagnostic],
    *,
    paths: Sequence[str],
    files_checked: int,
    suppressed: int = 0,
    suppressed_by_code: Optional[Dict[str, int]] = None,
    cost: Optional[Sequence[dict]] = None,
    timings: Optional[Dict[str, float]] = None,
) -> dict:
    """The ``--format json`` payload."""
    ordered = sort_diagnostics(diagnostics)
    payload = {
        "version": PAYLOAD_VERSION,
        "tool": "repro.analysis",
        "paths": list(paths),
        "files_checked": int(files_checked),
        "findings": [d.to_dict() for d in ordered],
        "summary": summarize(ordered, suppressed, suppressed_by_code),
    }
    if cost is not None:
        payload["cost"] = [dict(report) for report in cost]
    if timings is not None:
        payload["timings"] = {key: float(value) for key, value in timings.items()}
    return payload


def validate_findings_payload(payload: dict) -> List[str]:
    """Schema-check one JSON payload; returns problems (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("version") != PAYLOAD_VERSION:
        problems.append(f"version must be {PAYLOAD_VERSION}, got {payload.get('version')!r}")
    if payload.get("tool") != "repro.analysis":
        problems.append(f"tool must be 'repro.analysis', got {payload.get('tool')!r}")
    if not isinstance(payload.get("paths"), list):
        problems.append("paths must be a list")
    if not isinstance(payload.get("files_checked"), int) or isinstance(
        payload.get("files_checked"), bool
    ):
        problems.append("files_checked must be an integer")
    findings = payload.get("findings")
    if not isinstance(findings, list):
        problems.append("findings must be a list")
        findings = []
    for index, finding in enumerate(findings):
        if not isinstance(finding, dict):
            problems.append(f"findings[{index}] must be an object")
            continue
        for key in _REQUIRED_FINDING_KEYS:
            value = finding.get(key)
            if not isinstance(value, str) or not value:
                problems.append(f"findings[{index}].{key} must be a non-empty string")
        severity = finding.get("severity")
        if isinstance(severity, str) and severity not in _SEVERITIES:
            problems.append(
                f"findings[{index}].severity must be one of {sorted(_SEVERITIES)}"
            )
        line = finding.get("line")
        if line is not None and (not isinstance(line, int) or isinstance(line, bool)):
            problems.append(f"findings[{index}].line must be an integer or null")
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        problems.append("summary must be an object")
    else:
        for key in ("errors", "warnings", "infos", "suppressed"):
            value = summary.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"summary.{key} must be a non-negative integer")
        by_code = summary.get("suppressed_by_code")
        if not isinstance(by_code, dict):
            problems.append("summary.suppressed_by_code must be an object")
        else:
            for code, count in by_code.items():
                if (
                    not isinstance(code, str)
                    or not isinstance(count, int)
                    or isinstance(count, bool)
                    or count <= 0
                ):
                    problems.append(
                        "summary.suppressed_by_code entries must map rule codes "
                        "to positive integers"
                    )
                    break
            if isinstance(summary.get("suppressed"), int) and sum(
                count for count in by_code.values() if isinstance(count, int)
            ) != summary.get("suppressed"):
                problems.append(
                    "summary.suppressed_by_code totals must equal summary.suppressed"
                )
        if isinstance(findings, list) and all(
            isinstance(f, dict) for f in findings
        ):
            counted = sum(
                1 for f in findings if f.get("severity") == Severity.ERROR.value
            )
            if isinstance(summary.get("errors"), int) and summary["errors"] != counted:
                problems.append(
                    f"summary.errors is {summary['errors']} but findings contain "
                    f"{counted} error(s)"
                )
    cost = payload.get("cost")
    if cost is not None:
        if not isinstance(cost, list):
            problems.append("cost must be a list when present")
        else:
            for index, report in enumerate(cost):
                if not isinstance(report, dict):
                    problems.append(f"cost[{index}] must be an object")
                    continue
                for key in ("program", "engine", "mode"):
                    if not isinstance(report.get(key), str) or not report.get(key):
                        problems.append(
                            f"cost[{index}].{key} must be a non-empty string"
                        )
                for key in _COST_INT_KEYS:
                    value = report.get(key)
                    if (
                        not isinstance(value, int)
                        or isinstance(value, bool)
                        or value < 0
                    ):
                        problems.append(
                            f"cost[{index}].{key} must be a non-negative integer"
                        )
    timings = payload.get("timings")
    if timings is not None:
        if not isinstance(timings, dict):
            problems.append("timings must be an object when present")
        else:
            for key, value in timings.items():
                if not key.endswith("_seconds"):
                    problems.append(f"timings.{key} must end with '_seconds'")
                elif (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or value < 0
                ):
                    problems.append(
                        f"timings.{key} must be a non-negative number"
                    )
    return problems


def format_text_report(
    diagnostics: Sequence[Diagnostic], *, files_checked: int, suppressed: int = 0
) -> str:
    """Human-readable report: one finding per line plus a summary tail."""
    ordered = sort_diagnostics(diagnostics)
    lines = [d.format() for d in ordered]
    tallies = summarize(ordered, suppressed)
    lines.append(
        f"checked {files_checked} file(s): {tallies['errors']} error(s), "
        f"{tallies['warnings']} warning(s), {tallies['suppressed']} suppressed"
    )
    return "\n".join(lines)
