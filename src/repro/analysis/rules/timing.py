"""REP106: no ``time.sleep`` in library code.

The library computes; it never waits.  A stray ``time.sleep`` — left over
from debugging, or smuggled in as a cheap backoff — stalls every caller's
training loop.  Simulated hardware queue latency is book-kept in job
metadata and the ledger (``queue_latency_seconds``), never slept.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import LintContext, Rule


class SleepRule(Rule):
    """Library code must not block on ``time.sleep``."""

    code = "REP106"
    name = "no-sleep-in-library"
    description = "time.sleep stalls the caller; library code never sleeps"

    def applies(self, context: LintContext) -> bool:
        return context.is_library and not context.is_test

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        sleep_aliases: Set[str] = set()
        time_aliases: Set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name == "sleep":
                            sleep_aliases.add(alias.asname or "sleep")

        out: List[Diagnostic] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sleep = (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ) or (isinstance(func, ast.Name) and func.id in sleep_aliases)
            if not is_sleep:
                continue
            out.append(
                self.diagnostic(
                    context,
                    node,
                    "time.sleep in library code stalls the caller",
                    hint="book-keep the delay (e.g. in job metadata) instead "
                    "of waiting it out",
                )
            )
        return out
