"""AST contract linter: parse files, run rules, honour suppressions.

The linter walks Python files, parses them once, and hands the tree to every
:class:`~repro.analysis.rules.Rule` whose :meth:`applies` accepts the file.
Findings can be suppressed *per line* with a justified comment::

    risky_call()  # repro: noqa REP001 -- seeding handled by caller, see #42

The justification (everything after ``--``) is **required**: a bare
``# repro: noqa REP001`` does not suppress anything and instead raises a
``REP000`` finding, so every suppression in the tree documents why the
contract does not apply.  Suppressed findings are counted (never silently
dropped) and surface in the CLI summary and JSON payload.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    sort_diagnostics,
)
from repro.analysis.rules import LintContext, Rule, select_rules

#: matches ``repro: noqa <CODE>[, <CODE>...] [-- justification]`` comments
_NOQA = re.compile(
    r"#\s*repro:\s*noqa\s+(?P<codes>(?:(?:REP|VER)\d{3})(?:\s*,\s*(?:REP|VER)\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*))?",
)


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One ``# repro: noqa`` comment."""

    line: int
    codes: Tuple[str, ...]
    justification: Optional[str]


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run: surviving findings plus accounting."""

    diagnostics: List[Diagnostic]
    files_checked: int
    suppressed: int
    #: per-rule-code tallies of the suppressed findings (accounting, so a
    #: suppression wave against one rule family is visible in the payload)
    suppressed_by_code: Dict[str, int] = dataclasses.field(default_factory=dict)


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) for each comment in ``source``; raw lines as a fallback."""
    import io
    import tokenize

    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return list(enumerate(source.splitlines(), start=1))


def find_suppressions(source: str) -> List[Suppression]:
    """Every ``repro: noqa`` comment in ``source`` (line numbers 1-based).

    Only genuine comment tokens are scanned — a noqa-shaped string inside a
    docstring or string literal is prose, not a suppression.  When the file
    cannot be tokenised the raw lines are scanned instead (such files already
    fail to parse and carry a ``REP000`` finding of their own).
    """
    out: List[Suppression] = []
    for lineno, comment in _comment_tokens(source):
        match = _NOQA.search(comment)
        if match is None:
            continue
        codes = tuple(
            code.strip().upper() for code in match.group("codes").split(",")
        )
        why = match.group("why")
        out.append(
            Suppression(
                line=lineno,
                codes=codes,
                justification=why.strip() if why else None,
            )
        )
    return out


def _statement_extents(source: str) -> List[Tuple[int, int]]:
    """``(lineno, end_lineno)`` of every *simple* statement spanning lines.

    Only simple (non-compound) statements are collected: a suppression
    comment anywhere inside a wrapped call or a parenthesised assignment
    should cover the whole statement, but a comment inside a function body
    must not blanket the enclosing ``def``.  Compound statements contribute
    their header extent instead (``if (...\\n...):`` up to the first body
    statement), so a noqa on a wrapped condition line still reaches the
    diagnostic anchored at the keyword.
    """
    compound = (
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.ClassDef,
        ast.If,
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.With,
        ast.AsyncWith,
        ast.Try,
    )
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return []
    extents: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if start is None or end is None:
            continue
        if isinstance(node, compound):
            first_body_line = min(
                (
                    child.lineno
                    for child in getattr(node, "body", [])
                    if hasattr(child, "lineno")
                ),
                default=None,
            )
            if first_body_line is not None:
                end = max(start, first_body_line - 1)
        if end > start:
            extents.append((start, end))
    return extents


def justified_suppression_index(source: str) -> Dict[int, set]:
    """line -> codes justifiably suppressed there (bare noqas excluded).

    Every lint rule honours the same ``# repro: noqa CODE -- why``
    comments.  Bare
    (unjustified) suppressions are not indexed — they suppress nothing and
    are reported as ``REP000`` by :func:`lint_source`.

    A suppression physically placed on *any* line of a multi-line simple
    statement (a wrapped call, a parenthesised expression) covers the whole
    statement's line extent, so the comment can sit at the end of the
    wrapped call while the diagnostic anchors at its first line.
    """
    index: Dict[int, set] = {}
    for suppression in find_suppressions(source):
        if suppression.justification is None:
            continue
        index.setdefault(suppression.line, set()).update(suppression.codes)
    if index:
        for start, end in _statement_extents(source):
            spanned = set()
            for line in range(start, end + 1):
                spanned.update(index.get(line, ()))
            if spanned:
                for line in range(start, end + 1):
                    index.setdefault(line, set()).update(spanned)
    return index


def apply_suppressions(
    diagnostics: Iterable[Diagnostic], index: Dict[int, set]
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Drop findings covered by ``index``; tally the drops per rule code."""
    kept: List[Diagnostic] = []
    suppressed_by_code: Dict[str, int] = {}
    for diagnostic in diagnostics:
        line = diagnostic.location.line
        if line is not None and diagnostic.code in index.get(line, ()):
            suppressed_by_code[diagnostic.code] = (
                suppressed_by_code.get(diagnostic.code, 0) + 1
            )
            continue
        kept.append(diagnostic)
    return kept, suppressed_by_code


def merge_suppression_counts(
    into: Dict[str, int], counts: Dict[str, int]
) -> Dict[str, int]:
    """Accumulate per-code suppression tallies (in place; returned for chaining)."""
    for code, count in counts.items():
        into[code] = into.get(code, 0) + count
    return into


def normalize_path(path: str, root: Optional[str] = None) -> str:
    """Root-relative, ``/``-separated rendering of ``path`` for locations."""
    root = root or os.getcwd()
    absolute = os.path.abspath(path)
    try:
        relative = os.path.relpath(absolute, root)
    except ValueError:  # pragma: no cover - different drive on Windows
        relative = absolute
    if relative.startswith(".."):
        relative = absolute
    return relative.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            ]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return sorted(dict.fromkeys(found))


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    *,
    root: Optional[str] = None,
) -> Tuple[List[Diagnostic], int]:
    """Lint one in-memory module; returns ``(findings, suppressed_count)``.

    Findings include a parse failure (reported as ``REP000``) and any
    malformed suppression comments; properly justified suppressions remove
    matching same-line findings and are tallied in the second element.
    """
    findings, suppressed_by_code = lint_source_accounted(
        source, path, rules, root=root
    )
    return findings, sum(suppressed_by_code.values())


def lint_source_accounted(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    *,
    root: Optional[str] = None,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """:func:`lint_source` with per-rule-code suppression accounting."""
    normalized = normalize_path(path, root)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                Diagnostic(
                    code="REP000",
                    severity=Severity.ERROR,
                    location=Location(
                        file=normalized, line=exc.lineno or 1, column=exc.offset or 1
                    ),
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            {},
        )
    context = LintContext(path=normalized, source=source, tree=tree)
    raw: List[Diagnostic] = []
    for rule in rules if rules is not None else select_rules():
        if rule.applies(context):
            raw.extend(rule.check(context))

    out: List[Diagnostic] = []
    for suppression in find_suppressions(source):
        if suppression.justification is None:
            out.append(
                Diagnostic(
                    code="REP000",
                    severity=Severity.ERROR,
                    location=Location(file=normalized, line=suppression.line, column=1),
                    message=(
                        "suppression without justification: "
                        f"noqa {', '.join(suppression.codes)}"
                    ),
                    hint="write '# repro: noqa REPxxx -- <why the contract does "
                    "not apply here>'",
                )
            )

    kept, suppressed_by_code = apply_suppressions(
        raw, justified_suppression_index(source)
    )
    out.extend(kept)
    return out, suppressed_by_code


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    *,
    root: Optional[str] = None,
) -> LintResult:
    """Lint every Python file under ``paths``."""
    rules = list(rules) if rules is not None else select_rules()
    diagnostics: List[Diagnostic] = []
    suppressed_by_code: Dict[str, int] = {}
    files = iter_python_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        found, hidden = lint_source_accounted(source, path, rules, root=root)
        diagnostics.extend(found)
        merge_suppression_counts(suppressed_by_code, hidden)
    return LintResult(
        diagnostics=sort_diagnostics(diagnostics),
        files_checked=len(files),
        suppressed=sum(suppressed_by_code.values()),
        suppressed_by_code=suppressed_by_code,
    )
