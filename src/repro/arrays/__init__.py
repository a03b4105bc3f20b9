"""Array-namespace seam for the simulation kernels (ROADMAP item 4).

Every dense numerical kernel the engines execute — ``einsum``, ``matmul``,
``kron``, ``tensordot``, ``outer``, ``vdot``, ``trace``, ``norm``,
``multinomial`` — is routed through this module instead of being called on
``numpy`` directly, and every amplitude buffer is allocated through
:func:`zeros`/:func:`as_complex` instead of a literal ``dtype=complex``.
Two contracts fall out of that seam, and both are machine-checked:

* **One swap point.**  A GPU (CuPy) or autograd (torch) backend only has to
  replace the thin wrappers here; engine code never names ``np`` for a
  kernel call.  Lint rule ``REP202`` rejects direct ``np.`` kernel calls in
  the engine modules, and ``REP201`` rejects literal complex dtypes outside
  this package.
* **One precision knob.**  :func:`set_precision` (or the
  ``REPRO_PRECISION`` environment variable) flips every configured-dtype
  allocation and cast between ``complex128``/``float64`` (the default, and
  the determinism contract's canonical precision) and
  ``complex64``/``float32`` (opt-in, halves amplitude memory).
  ``tests/analysis/test_arrays_seam.py`` asserts at run time that no kernel
  silently promotes a configured-precision run back to ``complex128``.

Two kinds of dtype requests exist, and the distinction matters:

* :data:`COMPLEX_DTYPE` / :data:`REAL_DTYPE` are the **canonical**
  double-precision dtypes.  Gate matrices, Kraus operators, plan-time
  precomposed superoperators and the density schedule's composed runs,
  and verifier arithmetic are always built at canonical precision — operators are tiny,
  and building them wide keeps their construction exact.  They are cast to
  the configured precision at the point of application.
* :func:`complex_dtype` / :func:`real_dtype` return the **configured**
  dtypes.  State buffers (amplitudes, density matrices) and the casts at
  the kernel application boundary use these.

Sampling is deliberately outside the knob: outcome probabilities are
upcast to ``float64`` before ``multinomial`` (see
:func:`repro.quantum.measurement.normalize_outcome_probabilities`), so a
single-precision run draws from the same renormalised distribution shape
as a double run and ``numpy`` never sees a ``float32`` pvals vector.

Tolerances scale with the configured precision via :func:`state_atol`:
``complex64`` stores ~7 significant digits, so validation thresholds that
assert unit norm / unit trace at ``1e-8`` under double precision relax to
``1e-4`` under single precision (and end-to-end sweep outputs are
documented to match double precision within ``5e-4`` — see
``docs/array_backend.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

#: Canonical (double) precision: operator construction and verification.
COMPLEX_DTYPE = np.dtype(np.complex128)
REAL_DTYPE = np.dtype(np.float64)

#: Recognised precision modes, in documentation order.
PRECISIONS = ("double", "single")

#: Environment variable consulted once at import for the initial mode.
PRECISION_ENV = "REPRO_PRECISION"

_MODES = {
    "double": {
        "complex": np.dtype(np.complex128),
        "real": np.dtype(np.float64),
        # Matches the seed engines' hand-written thresholds (norm checks
        # at 1e-8); double mode must behave bit-identically to the seed.
        "state_atol": 1e-8,
        # Documented end-to-end sweep tolerance vs itself is exact.
        "sweep_atol": 0.0,
    },
    "single": {
        "complex": np.dtype(np.complex64),
        "real": np.dtype(np.float32),
        # float32 keeps ~7 significant digits; unit-norm/unit-trace checks
        # accumulate rounding across gate applications.
        "state_atol": 1e-4,
        # Documented tolerance of single-precision sweep outputs
        # (probabilities, fidelities) against the double reference.
        "sweep_atol": 5e-4,
    },
}


def _initial_precision() -> str:
    requested = os.environ.get(PRECISION_ENV, "double").strip().lower()
    return requested if requested in _MODES else "double"


_ACTIVE = _initial_precision()


def get_precision() -> str:
    """The active precision mode: ``"double"`` or ``"single"``."""
    return _ACTIVE


def set_precision(mode: str) -> None:
    """Switch the configured precision for subsequent allocations/casts.

    Flip the knob *before* building states or executing programs: buffers
    already allocated keep their dtype, and cached noise-superoperator
    plans built at another precision are re-cast at application time
    rather than rebuilt.
    """
    global _ACTIVE
    if mode not in _MODES:
        raise ValueError(
            f"unknown precision {mode!r}; expected one of {list(PRECISIONS)}"
        )
    _ACTIVE = mode


@contextmanager
def precision(mode: str) -> Iterator[None]:
    """Context manager form of :func:`set_precision` (restores on exit)."""
    previous = get_precision()
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(previous)


def complex_dtype() -> np.dtype:
    """The configured complex dtype for state buffers and kernel casts."""
    return _MODES[_ACTIVE]["complex"]


def real_dtype() -> np.dtype:
    """The configured real dtype (magnitudes, probabilities mid-kernel)."""
    return _MODES[_ACTIVE]["real"]


def complex_itemsize() -> int:
    """Bytes per amplitude at the configured precision (16 or 8)."""
    return int(complex_dtype().itemsize)


def state_atol() -> float:
    """Absolute tolerance for state invariants (unit norm, unit trace)."""
    return float(_MODES[_ACTIVE]["state_atol"])


def sweep_atol() -> float:
    """Documented end-to-end tolerance vs the double-precision reference."""
    return float(_MODES[_ACTIVE]["sweep_atol"])


# ---------------------------------------------------------------------------
# Allocation and casts
# ---------------------------------------------------------------------------


def zeros(shape, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """A zeroed buffer at the configured complex precision by default."""
    return np.zeros(shape, dtype=complex_dtype() if dtype is None else dtype)


def eye(n: int) -> np.ndarray:
    """An identity at the configured complex precision (for operator lifts)."""
    return np.eye(n, dtype=complex_dtype())


def as_complex(values) -> np.ndarray:
    """``values`` as an array at the configured complex precision.

    A no-copy view when the input already has the configured dtype — in
    the default double mode this makes the seam byte-identical to the old
    ``np.asarray(..., dtype=complex)`` call sites.
    """
    return np.asarray(values, dtype=complex_dtype())


def as_real(values) -> np.ndarray:
    """``values`` as an array at the configured real precision."""
    return np.asarray(values, dtype=real_dtype())


# ---------------------------------------------------------------------------
# Kernel wrappers — the swap point for an alternative backend
# ---------------------------------------------------------------------------


def einsum(subscripts: str, *operands, **kwargs) -> np.ndarray:
    return np.einsum(subscripts, *operands, **kwargs)


def matmul(a, b, **kwargs) -> np.ndarray:
    return np.matmul(a, b, **kwargs)


def kron(a, b) -> np.ndarray:
    return np.kron(a, b)


def tensordot(a, b, axes) -> np.ndarray:
    return np.tensordot(a, b, axes=axes)


def outer(a, b) -> np.ndarray:
    return np.outer(a, b)


def vdot(a, b) -> complex:
    return np.vdot(a, b)


def trace(a) -> np.ndarray:
    return np.trace(a)


def norm(a, **kwargs):
    return np.linalg.norm(a, **kwargs)


def multinomial(
    generator: np.random.Generator,
    shots: int,
    pvals,
    size: Optional[Tuple[int, ...]] = None,
) -> np.ndarray:
    """Multinomial draws with ``pvals`` upcast to ``float64``.

    ``numpy`` validates that pvals sum to 1 in double precision; passing a
    ``float32`` vector straight through would make sampling sensitive to
    the precision knob.  Upcasting here keeps the sampling boundary exact
    in both modes.
    """
    probabilities = np.asarray(pvals, dtype=REAL_DTYPE)
    if size is None:
        return generator.multinomial(shots, probabilities)
    return generator.multinomial(shots, probabilities, size=size)


__all__ = [
    "COMPLEX_DTYPE",
    "REAL_DTYPE",
    "PRECISIONS",
    "PRECISION_ENV",
    "get_precision",
    "set_precision",
    "precision",
    "complex_dtype",
    "real_dtype",
    "complex_itemsize",
    "state_atol",
    "sweep_atol",
    "zeros",
    "eye",
    "as_complex",
    "as_real",
    "einsum",
    "matmul",
    "kron",
    "tensordot",
    "outer",
    "vdot",
    "trace",
    "norm",
    "multinomial",
]
