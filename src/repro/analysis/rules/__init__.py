"""Rule registry of the AST contract linter.

Each rule encodes one contract the batched execution stack depends on (see
``docs/static_analysis.md`` for the full catalogue with rationale):

====== ====================================================================
code   contract
====== ====================================================================
REP001 library code never draws OS entropy: no seedless
       ``np.random.default_rng()`` and no global ``np.random.*`` calls
REP003 shared caches route through the locked ``repro.utils.cache.LRUCache``
       instead of ad-hoc module/class-level dicts
REP004 execution engines never construct RNGs internally — randomness is
       injected by callers
REP005 every ``bench_*.py`` records a perf point through the shared
       ``experiments.reporting`` writer
REP104 raw engine buffers (``_amplitudes``/``_matrices``/``_spare``) never
       reach a cache without a ``.copy()``
REP106 library code never blocks on ``time.sleep``
REP201 complex dtypes are named only inside the ``repro.arrays`` seam —
       literal ``dtype=complex``/``np.complex128`` bypasses the precision
       config
REP202 engine modules route dense kernels (einsum/matmul/kron/linalg/
       multinomial, ...) through ``repro.arrays``, never ``np.`` directly
====== ====================================================================

``REP000`` is reserved by the driver for malformed suppression comments.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Location, Severity


@dataclasses.dataclass(frozen=True)
class LintContext:
    """One parsed file handed to every applicable rule."""

    path: str  #: normalised, ``/``-separated path (relative when possible)
    source: str
    tree: ast.Module

    @property
    def parts(self) -> tuple:
        return tuple(self.path.split("/"))

    @property
    def basename(self) -> str:
        return self.parts[-1]

    @property
    def is_library(self) -> bool:
        """Whether the file is library code (lives under a ``src`` root)."""
        return "src" in self.parts[:-1]

    @property
    def is_bench(self) -> bool:
        """Whether the file is a benchmark entry point (``bench_*.py``)."""
        return self.basename.startswith("bench_") and self.basename.endswith(".py")

    @property
    def is_test(self) -> bool:
        return "tests" in self.parts[:-1] or self.basename.startswith("test_")


class Rule:
    """Base class: one contract, one stable code."""

    code: str = "REP999"
    name: str = "unnamed"
    description: str = ""
    severity: Severity = Severity.ERROR

    def applies(self, context: LintContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, context: LintContext) -> Iterable[Diagnostic]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def diagnostic(
        self,
        context: LintContext,
        node: Optional[ast.AST],
        message: str,
        hint: Optional[str] = None,
    ) -> Diagnostic:
        """Build a finding anchored at ``node`` (or the file head)."""
        return Diagnostic(
            code=self.code,
            severity=self.severity,
            location=Location(
                file=context.path,
                line=getattr(node, "lineno", 1) if node is not None else 1,
                column=(getattr(node, "col_offset", 0) + 1) if node is not None else 1,
            ),
            message=message,
            hint=hint,
        )


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    from repro.analysis.rules.arrays import ArraySeamRule, ComplexDtypeLiteralRule
    from repro.analysis.rules.caches import AdHocCacheRule, BufferEscapeRule
    from repro.analysis.rules.reporting import BenchReportingRule
    from repro.analysis.rules.rng import EngineRngRule, SeedlessRngRule
    from repro.analysis.rules.timing import SleepRule

    return [
        SeedlessRngRule(),
        AdHocCacheRule(),
        EngineRngRule(),
        BenchReportingRule(),
        BufferEscapeRule(),
        SleepRule(),
        ComplexDtypeLiteralRule(),
        ArraySeamRule(),
    ]


def select_rules(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """The registered rules, optionally filtered to ``codes``."""
    rules = all_rules()
    if codes is None:
        return rules
    wanted = {code.strip().upper() for code in codes if code.strip()}
    unknown = wanted - {rule.code for rule in rules}
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {sorted(unknown)}; "
            f"known: {sorted(rule.code for rule in rules)}"
        )
    return [rule for rule in rules if rule.code in wanted]
