"""Array-API seam rules: REP201 (dtype literals) and REP202 (kernel calls).

PR 8 landed the :mod:`repro.arrays` namespace seam (ROADMAP item 4): one
module owns the canonical ``COMPLEX_DTYPE``/``REAL_DTYPE`` constants, the
configured-precision accessors, and the thin kernel wrappers a CuPy/torch
backend would replace.  The seam only stays a seam if nothing routes around
it — a single literal ``dtype=complex`` allocates a ``complex128`` buffer
that ignores the precision knob, and a single direct ``np.einsum`` in an
engine is a kernel a swapped backend would silently not execute.  These two
rules make the contract machine-checked instead of grep-audited.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import LintContext, Rule
from repro.analysis.rules.rng import _NumpyAliasTracker

#: numpy attribute names that hard-code a complex width.
_COMPLEX_DTYPE_ATTRS = {"complex128", "complex64", "cdouble", "csingle"}

#: Dense kernels that must flow through the ``repro.arrays`` wrappers.
_KERNEL_ATTRS = {
    "einsum",
    "matmul",
    "kron",
    "tensordot",
    "outer",
    "vdot",
    "dot",
    "inner",
    "trace",
}


def _seam_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound to the ``repro.arrays`` module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.arrays":
                    names.add(alias.asname or "repro")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                for alias in node.names:
                    if alias.name == "arrays":
                        names.add(alias.asname or "arrays")
    return names


def _complex_literal(node: ast.AST, aliases: _NumpyAliasTracker) -> Optional[str]:
    """A source-level description if ``node`` names a literal complex dtype."""
    if isinstance(node, ast.Name) and node.id == "complex":
        return "complex"
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _COMPLEX_DTYPE_ATTRS
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases.numpy_names
    ):
        return f"{node.value.id}.{node.attr}"
    return None


class ComplexDtypeLiteralRule(Rule):
    """REP201 — complex dtypes are named only inside ``repro.arrays``.

    Flags, in library code outside the seam package:

    * ``dtype=complex`` / ``dtype=np.complex128`` / ``dtype=np.complex64``
      keyword arguments, and
    * ``.astype(complex)`` / ``.astype(np.complex64)`` casts.

    Every such literal pins a width the precision config cannot reach.
    Canonical-width operator constructors import
    :data:`repro.arrays.COMPLEX_DTYPE`; state buffers and application-time
    casts go through ``arrays.zeros``/``arrays.as_complex``.
    """

    code = "REP201"
    name = "no-literal-complex-dtype"
    description = (
        "literal complex dtypes outside repro.arrays bypass the precision "
        "config"
    )

    def applies(self, context: LintContext) -> bool:
        return context.is_library and "arrays" not in context.path.split("/")

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        aliases = _NumpyAliasTracker()
        aliases.visit(context.tree)
        out: List[Diagnostic] = []

        def flag(node: ast.AST, literal: str, via: str) -> None:
            out.append(
                self.diagnostic(
                    context,
                    node,
                    f"literal complex dtype {literal!r} in {via} pins a "
                    "width the repro.arrays precision config cannot change",
                    hint="import COMPLEX_DTYPE (canonical operators) or use "
                    "arrays.zeros/arrays.as_complex (configured state "
                    "buffers) from repro.arrays",
                )
            )

        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        literal = _complex_literal(keyword.value, aliases)
                        if literal is not None:
                            flag(keyword.value, literal, "a dtype= argument")
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                ):
                    literal = _complex_literal(node.args[0], aliases)
                    if literal is not None:
                        flag(node, literal, "an .astype() cast")
        return out


class ArraySeamRule(Rule):
    """REP202 — engine modules call kernels through ``repro.arrays`` only.

    In the engine modules (the batched/compiled executors plus the
    per-state simulators and the sampling boundary), flags:

    * direct ``np.<kernel>`` calls for the dense kernels the seam wraps
      (``einsum``, ``matmul``, ``kron``, ``tensordot``, ``outer``,
      ``vdot``, ``dot``, ``inner``, ``trace``),
    * any ``np.linalg.*`` call, and
    * ``.multinomial(...)`` drawn directly on a generator instead of
      through :func:`repro.arrays.multinomial` (which owns the float64
      upcast of the probability vector).

    Structural helpers (``np.asarray``, ``np.zeros``, ``np.moveaxis``,
    ``np.clip``, ...) are allowed: they shape and validate, they do not
    contract.
    """

    code = "REP202"
    name = "engines-use-array-seam"
    description = (
        "engine modules must route dense kernels through repro.arrays"
    )

    #: Path suffixes of the engine modules the seam contract covers.
    ENGINE_MODULES = (
        "quantum/batched.py",
        "quantum/batched_density.py",
        "quantum/kernels.py",
        "quantum/program.py",
        "quantum/statevector.py",
        "quantum/density_matrix.py",
        "quantum/measurement.py",
    )

    def applies(self, context: LintContext) -> bool:
        return context.is_library and context.path.endswith(self.ENGINE_MODULES)

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        aliases = _NumpyAliasTracker()
        aliases.visit(context.tree)
        seam = _seam_aliases(context.tree)
        out: List[Diagnostic] = []
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = func.value
            if isinstance(base, ast.Name) and base.id in aliases.numpy_names:
                if func.attr in _KERNEL_ATTRS:
                    out.append(
                        self.diagnostic(
                            context,
                            node,
                            f"direct np.{func.attr} call in an engine module "
                            "bypasses the repro.arrays kernel seam",
                            hint=f"call arrays.{func.attr} so an alternative "
                            "backend can intercept the kernel",
                        )
                    )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "linalg"
                and isinstance(base.value, ast.Name)
                and base.value.id in aliases.numpy_names
            ):
                out.append(
                    self.diagnostic(
                        context,
                        node,
                        f"direct np.linalg.{func.attr} call in an engine "
                        "module bypasses the repro.arrays kernel seam",
                        hint="route through the repro.arrays wrappers "
                        "(arrays.norm, ...) instead",
                    )
                )
            elif func.attr == "multinomial" and not (
                isinstance(base, ast.Name) and base.id in seam
            ):
                out.append(
                    self.diagnostic(
                        context,
                        node,
                        "direct generator.multinomial call skips the seam's "
                        "float64 upcast of the probability vector",
                        hint="call arrays.multinomial(generator, shots, "
                        "pvals) instead",
                    )
                )
        return out
