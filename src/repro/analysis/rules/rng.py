"""RNG discipline rules: REP001 (library code) and REP004 (engines).

The whole determinism story of the stack — seed-identical batched vs loop
execution, order-independent per-class training, reproducible figure
sweeps — rests on *every* random draw flowing from an injected seed or a
``SeedSequence`` child stream.  One seedless ``default_rng()`` buried in a
fallback path (the bug this PR fixes in ``repro.quantum.measurement``)
silently re-introduces OS entropy and breaks reproducibility without
failing a single test.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import LintContext, Rule

#: ``np.random`` attributes that are *constructions*, not global draws.
_ALLOWED_RANDOM_ATTRS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}


class _NumpyAliasTracker(ast.NodeVisitor):
    """Resolve which local names refer to numpy / numpy.random / default_rng."""

    def __init__(self) -> None:
        self.numpy_names: Set[str] = set()
        self.random_module_names: Set[str] = set()
        #: direct name -> original numpy.random attribute (from-imports)
        self.random_attr_names: dict = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                if alias.asname is None:
                    self.numpy_names.add("numpy")
                elif alias.name == "numpy":
                    self.numpy_names.add(local)
                elif alias.name == "numpy.random":
                    self.random_module_names.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.random_module_names.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                self.random_attr_names[alias.asname or alias.name] = alias.name


def _random_call_attr(call: ast.Call, aliases: _NumpyAliasTracker) -> Optional[str]:
    """The ``np.random.<attr>`` attribute a call resolves to, if any."""
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        # <numpy>.random.<attr>(...)
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in aliases.numpy_names
        ):
            return func.attr
        # <random module>.<attr>(...)
        if isinstance(base, ast.Name) and base.id in aliases.random_module_names:
            return func.attr
    if isinstance(func, ast.Name) and func.id in aliases.random_attr_names:
        return aliases.random_attr_names[func.id]
    return None


def _is_seedless(call: ast.Call) -> bool:
    """Whether a ``default_rng`` call draws OS entropy (no seed / ``None``)."""
    if call.keywords:
        for keyword in call.keywords:
            if keyword.arg in (None, "seed"):
                return isinstance(keyword.value, ast.Constant) and keyword.value.value is None
    if not call.args:
        return not call.keywords
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


def _find_rng_calls(
    context: LintContext,
) -> Iterable[Tuple[ast.Call, str, bool]]:
    """Yield ``(call, attribute, is_seedless_default_rng)`` for numpy RNG calls."""
    aliases = _NumpyAliasTracker()
    aliases.visit(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        attr = _random_call_attr(node, aliases)
        if attr is None:
            continue
        yield node, attr, attr == "default_rng" and _is_seedless(node)


class SeedlessRngRule(Rule):
    """REP001 — no OS entropy in library code.

    Flags, in files under ``src/``:

    * ``np.random.default_rng()`` with no seed (or an explicit ``None``) —
      a silent OS-entropy draw; and
    * calls to the global/legacy ``np.random.*`` API (``np.random.seed``,
      ``np.random.uniform``, ...) whose hidden global state leaks across
      callers.

    Constructions (``np.random.Generator``, ``SeedSequence``, seeded
    ``default_rng(seed)``) are allowed — they are exactly how randomness is
    supposed to be injected.
    """

    code = "REP001"
    name = "no-seedless-rng"
    description = (
        "library code must not draw OS entropy or use global numpy RNG state"
    )

    def applies(self, context: LintContext) -> bool:
        return context.is_library

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for call, attr, seedless in _find_rng_calls(context):
            if seedless:
                out.append(
                    self.diagnostic(
                        context,
                        call,
                        "seedless np.random.default_rng() draws OS entropy; "
                        "results become irreproducible",
                        hint="accept an injected rng/seed (repro.utils.rng."
                        "ensure_rng) or derive one from a documented default "
                        "seed",
                    )
                )
            elif attr not in _ALLOWED_RANDOM_ATTRS:
                out.append(
                    self.diagnostic(
                        context,
                        call,
                        f"global np.random.{attr}() uses hidden module state "
                        "shared across every caller",
                        hint="draw from an injected np.random.Generator (see "
                        "repro.utils.rng.spawn_rngs for independent streams)",
                    )
                )
        return out


class EngineRngRule(Rule):
    """REP004 — execution engines must not construct RNGs internally.

    The batched/compiled engines (``quantum/batched.py``,
    ``quantum/batched_density.py``, ``quantum/program.py``) are pure linear
    algebra: the "seed-identical at any tiling / batching" guarantees hold
    because every random draw happens *outside* them, in simulator read-out
    code fed by one injected generator.  An engine-internal RNG — even a
    seeded one — would consume draws in a batch-shape-dependent order and
    silently break draw-for-draw equivalence.
    """

    code = "REP004"
    name = "engines-no-internal-rng"
    description = "execution engines must receive randomness from callers"

    #: Path suffixes of the engine modules the contract covers.
    ENGINE_MODULES = (
        "quantum/batched.py",
        "quantum/batched_density.py",
        "quantum/program.py",
    )

    #: Helper constructors that would smuggle an RNG into an engine.
    _WRAPPER_CONSTRUCTORS = {"ensure_rng", "spawn_rngs", "spawn_seed_sequences"}

    def applies(self, context: LintContext) -> bool:
        return context.is_library and context.path.endswith(self.ENGINE_MODULES)

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        for call, attr, _ in _find_rng_calls(context):
            out.append(
                self.diagnostic(
                    context,
                    call,
                    f"engine module constructs an RNG via np.random.{attr}; "
                    "engines must stay deterministic and draw-free",
                    hint="sample in the simulator read-out layer and pass "
                    "results (or a generator) into the engine",
                )
            )
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            ):
                name = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr
                )
                if name in self._WRAPPER_CONSTRUCTORS:
                    out.append(
                        self.diagnostic(
                            context,
                            node,
                            f"engine module constructs an RNG via {name}(); "
                            "engines must stay deterministic and draw-free",
                            hint="inject the generator from the simulator layer "
                            "instead",
                        )
                    )
        return out
