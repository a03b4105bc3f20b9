"""In-memory span tracer that wraps the repro layers from outside.

The traced run patches the public entry point of each layer (estimator,
backend, readout, program execution, engine kernels, certification, ledger,
transpiler, compiler, trainer, model) with a wrapper that records a span
``(name, start, end, parent)`` and bumps counters, then restores every
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its direct child
spans.  :meth:`Tracer.layer_table` folds the spans into per-name call counts,
total and self seconds; :meth:`Tracer.write_chrome_trace` writes them as
Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open with
nothing installed.
"""

from __future__ import annotations

import collections
import functools
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Kernel classes of the engine layer: ``<engine>.<k>q`` with k clamped to 3.
ENGINES = ("sv", "dm")
KERNEL_WIDTHS = ("1q", "2q", "3q")
KERNEL_CLASSES = tuple(f"{e}.{w}" for e in ENGINES for w in KERNEL_WIDTHS)


def kernel_class(engine: str, qubits) -> str:
    """``sv.2q``-style class of one engine step (three or more qubits -> 3q)."""
    return f"{engine}.{min(len(qubits), 3)}q"


class Tracer:
    """Spans and counters of one traced phase, plus the patches that feed them.

    ``spans`` is a flat list of ``[name, start, end, parent_index]`` records
    in start order; ``parent_index`` is ``-1`` for a root span.  Counters are
    plain integers (or floats for computed bytes) keyed by name.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = collections.Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _traced(self, func: Callable, label, before=None, after=None) -> Callable:
        """``func`` wrapped in a span named ``label`` (a string, or a callable
        of the call's arguments returning one).

        ``before(args)`` runs as the span opens and its return value is
        handed to ``after(token, result, args, kwargs)``, which runs once the
        span has closed; both feed counters.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            token = before(args) if before is not None else None
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(token, result, args, kwargs)
            return result

        return wrapper

    def _counted(self, func: Callable, counter: str) -> Callable:
        """``func`` wrapped to bump ``counter`` per call (no span)."""
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def patch(self, owner, attribute: str, make_wrapper: Callable) -> None:
        """Replace ``owner.attribute`` (defined on ``owner`` itself) by
        ``make_wrapper(function)``, keeping class/static method kinds."""
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def span(self, owner, attribute: str, label, before=None, after=None) -> None:
        self.patch(owner, attribute, lambda f: self._traced(f, label, before, after))

    def count(self, owner, attribute: str, counter: str) -> None:
        self.patch(owner, attribute, lambda f: self._counted(f, counter))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def layer_table(self, last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` over ``spans[:last]``.

        Child time is charged to the parent span's own record, so a span's
        self time is its duration minus its direct children's durations.
        """
        spans = self.spans[:last]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(spans):
            row = table.get(name)
            if row is None:
                row = table[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return table

    def write_chrome_trace(self, path: str, origin: float, metadata: Optional[dict] = None) -> None:
        """Write every span as a Chrome trace-event complete ("X") event."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
