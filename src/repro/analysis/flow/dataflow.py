"""Intraprocedural dataflow facts consumed by the flow analyzers.

One walk per function collects everything REP101/REP102/REP104 need:

* **shared-state writes** — augmented assignments to attributes
  (``self.hits += 1``), writes to ``global``-declared names, and
  augmented/subscript stores to module-level mutable containers — each
  tagged with whether it happens inside a ``with <lock>:`` region;
* **rng values** — local names bound to generator constructions
  (``ensure_rng``/``default_rng``), generator-annotated parameters, and
  ``*.rng`` attribute reads;
* **local objects** — names assigned from constructor-style calls inside
  the function (capitalised call targets), which a race detector must not
  flag: an object built inside the shard body is worker-local by
  construction.

The walk is syntactic and flow-insensitive within a function (no path
conditions), which is exactly the precision the REP1xx contracts need:
lock discipline in this codebase is lexical (``with self._lock:``), and
worker-local state is recognisable from the construction site.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import List, Optional, Set, Tuple

#: Names of sanctioned per-shard stream constructors: a generator passed
#: *into* one of these is being split, not shared (the REP102 fix pattern).
SPAWN_SINKS = frozenset({"spawn_rngs", "spawn_seed_sequences"})

#: Call names that produce a ``numpy.random.Generator``-like value.
RNG_CONSTRUCTORS = frozenset({"ensure_rng", "default_rng"})

#: Attribute names treated as generator-valued reads (``self.rng``, ...).
RNG_ATTRIBUTES = frozenset({"rng", "_rng", "random_state"})


def _expression_mentions_lock(node: ast.AST) -> bool:
    """Whether a ``with`` context expression names a lock (``*lock*``)."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


def render(node: ast.AST) -> str:
    """Source rendering of an expression for messages (best effort)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failures are cosmetic
        return "<expression>"


@dataclasses.dataclass(frozen=True)
class SharedWrite:
    """One potentially shared mutation found in a function body."""

    node: ast.AST
    target: str  #: rendered write target, e.g. ``self.hits``
    kind: str  #: ``attribute`` | ``global`` | ``module_global``
    lock_guarded: bool


@dataclasses.dataclass
class FunctionFacts:
    """Everything the analyzers need to know about one function body."""

    shared_writes: List[SharedWrite] = dataclasses.field(default_factory=list)
    rng_names: Set[str] = dataclasses.field(default_factory=set)
    #: names bound from sanctioned per-index spawns (``spawn_rngs(...)``)
    spawned_names: Set[str] = dataclasses.field(default_factory=set)
    #: names assigned from constructor-style calls — worker-local objects
    local_objects: Set[str] = dataclasses.field(default_factory=set)
    #: names assigned from engine-buffer attribute reads (REP104 taint)
    buffer_names: Set[str] = dataclasses.field(default_factory=set)
    global_names: Set[str] = dataclasses.field(default_factory=set)
    assigned_names: Set[str] = dataclasses.field(default_factory=set)


#: Private engine-buffer attributes whose escape REP104 tracks.
ENGINE_BUFFER_ATTRIBUTES = frozenset({"_amplitudes", "_matrices", "_spare"})


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_buffer_read(node: ast.AST) -> bool:
    """Whether an expression reads a raw engine buffer without copying."""
    if isinstance(node, ast.Attribute) and node.attr in ENGINE_BUFFER_ATTRIBUTES:
        return True
    if isinstance(node, ast.Subscript):
        return _is_buffer_read(node.value)
    return False


class _FactsCollector(ast.NodeVisitor):
    def __init__(self, module_mutable_globals: Set[str]) -> None:
        self.facts = FunctionFacts()
        self.module_mutable_globals = module_mutable_globals
        self._lock_depth = 0

    # -- lock regions ---------------------------------------------------- #
    def visit_With(self, node: ast.With) -> None:
        guarded = any(
            _expression_mentions_lock(item.context_expr) for item in node.items
        )
        if guarded:
            self._lock_depth += 1
        self.generic_visit(node)
        if guarded:
            self._lock_depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- declarations ---------------------------------------------------- #
    def visit_Global(self, node: ast.Global) -> None:
        self.facts.global_names.update(node.names)

    def _record_value_binding(self, name: str, value: ast.AST) -> None:
        self.facts.assigned_names.add(name)
        if isinstance(value, ast.Call):
            call_name = _call_name(value)
            if call_name in RNG_CONSTRUCTORS:
                self.facts.rng_names.add(name)
                return
            if call_name in SPAWN_SINKS:
                self.facts.spawned_names.add(name)
                return
            if call_name is not None and call_name[:1].isupper():
                self.facts.local_objects.add(name)
                return
        if isinstance(value, ast.Attribute) and value.attr in RNG_ATTRIBUTES:
            self.facts.rng_names.add(name)
        if _is_buffer_read(value):
            self.facts.buffer_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._record_value_binding(target.id, node.value)
            elif isinstance(target, ast.Subscript):
                self._check_subscript_store(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._record_value_binding(node.target.id, node.value)
        self.generic_visit(node)

    # -- shared-state writes --------------------------------------------- #
    def _add_write(self, node: ast.AST, target: str, kind: str) -> None:
        self.facts.shared_writes.append(
            SharedWrite(
                node=node,
                target=target,
                kind=kind,
                lock_guarded=self._lock_depth > 0,
            )
        )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute):
            base = target.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name is None or base_name not in self.facts.local_objects:
                self._add_write(node, render(target), "attribute")
        elif isinstance(target, ast.Name):
            if target.id in self.facts.global_names:
                self._add_write(node, target.id, "global")
            elif (
                target.id in self.module_mutable_globals
                and target.id not in self.facts.assigned_names
            ):
                self._add_write(node, target.id, "module_global")
        elif isinstance(target, ast.Subscript):
            self._check_subscript_store(target, node)
        self.generic_visit(node)

    def _check_subscript_store(self, target: ast.Subscript, node: ast.AST) -> None:
        base = target.value
        if not isinstance(base, ast.Name):
            return
        if base.id in self.facts.global_names:
            self._add_write(node, render(target), "global")
        elif (
            base.id in self.module_mutable_globals
            and base.id not in self.facts.assigned_names
            and base.id not in self.facts.local_objects
        ):
            self._add_write(node, render(target), "module_global")


def function_facts(node: ast.AST, module_mutable_globals: Set[str]) -> FunctionFacts:
    """Collect :class:`FunctionFacts` for one function body."""
    collector = _FactsCollector(set(module_mutable_globals))
    arguments = getattr(node, "args", None)
    if arguments is not None:
        every_arg = (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        )
        for arg in every_arg:
            collector.facts.assigned_names.add(arg.arg)
            names = [
                sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", "")
                for sub in ast.walk(arg.annotation)
            ] if arg.annotation is not None else []
            if "Generator" in names or arg.arg in RNG_ATTRIBUTES:
                collector.facts.rng_names.add(arg.arg)
    for statement in getattr(node, "body", []):
        collector.visit(statement)
    return collector.facts
