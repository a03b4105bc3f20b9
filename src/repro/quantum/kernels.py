"""Gate kernels by class for the batched statevector engine.

A dense einsum is the right kernel for a general gate, but most gates of a
QuClassi sweep are not general: a SWAP test's ``cswap`` only moves
amplitudes, ``rz`` only rescales them, and ``cry`` leaves the control=0 half
of the state alone.  Every compiled
:class:`~repro.quantum.program.GateStep` is therefore classified **once per
program** into one of four kernel classes, and each class has its own kernel:

=============  ==============================================  ==============================
class          steps                                           kernel
=============  ==============================================  ==============================
permutation    ``x``, ``cx``, ``swap``, ``cswap``, any fixed    in place: move only the
               0/1 permutation matrix                           sub-blocks the permutation moves
diagonal       ``z``, ``s``, ``t``, ``cz``, ``rz``, ``crz``,    in place: multiply by the
               ``rzz``, any fixed diagonal matrix               diagonal broadcast onto the
                                                                step's qubit axes
controlled     ``crx``, ``cry``, any fixed ``diag(I, U)``       the 2x2 ``U`` einsum on the
               two-qubit matrix                                 control=1 half only
dense          everything else                                  the full einsum of
                                                                :meth:`BatchedStatevector.apply_matrix`
=============  ==============================================  ==============================

Parametric steps classify by gate-library name (:data:`PARAMETRIC_CLASSES`);
fixed steps classify from their matrix, exactly (no tolerance), so
a matrix only leaves the dense class when its structure is exact.

Kernels work on a *collapsed* view of the ``(batch, 2**n)`` amplitudes: the
step's qubit axes stay binary and every run of untouched qubits between them
collapses into one axis, so a sub-block index is a short tuple of slices and
bits.  Index tuples, broadcast shapes and einsum subscripts are precomputed
when the plan is built; applying a kernel inspects nothing but the operand's
leading (batch) dimension.  Every plan is certified by VER405
(:func:`repro.analysis.equiv.verify_kernel_plan`) when it is built.
"""

from __future__ import annotations

import string
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum import gates as gate_library

PERMUTATION = "permutation"
DIAGONAL = "diagonal"
CONTROLLED = "controlled"
DENSE = "dense"

#: Kernel class of each parametric library gate; a parametric gate absent
#: here is dense.  Fixed steps classify from their matrix instead.
PARAMETRIC_CLASSES: Dict[str, str] = {
    "rz": DIAGONAL,
    "crz": DIAGONAL,
    "rzz": DIAGONAL,
    "crx": CONTROLLED,
    "cry": CONTROLLED,
}

#: Angles a parametric step's matrix is built at when a plan needs a
#: representative matrix (VER405 certification, or a permutation plan).
PROBE_ANGLES = (0.731, -1.234, 2.017)


def classify_matrix(matrix) -> str:
    """Kernel class of a fixed ``(2**k, 2**k)`` gate matrix (exact test)."""
    matrix = np.asarray(matrix)
    binary = (matrix == 0) | (matrix == 1)
    if (
        binary.all()
        and (matrix.sum(axis=0) == 1).all()
        and (matrix.sum(axis=1) == 1).all()
    ):
        return PERMUTATION
    if not np.count_nonzero(matrix - np.diag(np.diagonal(matrix))):
        return DIAGONAL
    if (
        matrix.shape == (4, 4)
        and (matrix[:2, :2] == np.eye(2)).all()
        and not matrix[:2, 2:].any()
        and not matrix[2:, :2].any()
    ):
        return CONTROLLED
    return DENSE


def classify_step(step) -> str:
    """Kernel class of one compiled step: by matrix if fixed, else by name."""
    if step.is_fixed:
        return classify_matrix(step.matrix)
    return PARAMETRIC_CLASSES.get(step.name, DENSE)


def representative_matrix(step) -> np.ndarray:
    """The step's fixed matrix, or its matrix at :data:`PROBE_ANGLES`."""
    if step.is_fixed:
        return step.matrix
    probes = iter(PROBE_ANGLES)
    angles = [slot[1] if slot[0] == "value" else next(probes) for slot in step.slots]
    return gate_library.gate_matrix(step.name, *angles)


def _collapsed_layout(
    qubits: Sequence[int], num_qubits: int
) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Collapsed per-element shape, and each step qubit's axis in the view.

    Axis numbers count the leading batch axis, so they index the
    ``(batch,) + shape`` view directly.
    """
    touched = set(qubits)
    shape = []
    axis_of: Dict[int, int] = {}
    run = 0
    for qubit in range(num_qubits):
        if qubit not in touched:
            run += 1
            continue
        if run:
            shape.append(2**run)
            run = 0
        axis_of[qubit] = len(shape) + 1
        shape.append(2)
    if run:
        shape.append(2**run)
    return tuple(shape), axis_of


def _block_index(
    local: int, qubits: Sequence[int], axis_of: Dict[int, int], ndim: int
) -> Tuple:
    """Index tuple of local basis state ``local`` (``qubits[0]`` is the MSB)."""
    index = [slice(None)] * ndim
    k = len(qubits)
    for position, qubit in enumerate(qubits):
        index[axis_of[qubit]] = (local >> (k - 1 - position)) & 1
    return tuple(index)


class PermutationKernel:
    """Moves the sub-blocks a 0/1 permutation matrix moves; no arithmetic."""

    kind = PERMUTATION

    def __init__(self, step, num_qubits: int) -> None:
        self.shape, axis_of = _collapsed_layout(step.qubits, num_qubits)
        ndim = 1 + len(self.shape)
        matrix = np.abs(np.asarray(representative_matrix(step)))
        # new[i] = old[source[i]]: row i of the matrix selects its source.
        source = np.argmax(matrix, axis=1)
        self.moves = tuple(
            (
                _block_index(target, step.qubits, axis_of, ndim),
                _block_index(int(origin), step.qubits, axis_of, ndim),
            )
            for target, origin in enumerate(source)
            if target != origin
        )

    def apply(self, state, matrix) -> None:
        tensor = state.view(self.shape)
        held = [tensor[origin].copy() for _, origin in self.moves]
        for (target, _), block in zip(self.moves, held):
            tensor[target] = block


class DiagonalKernel:
    """Multiplies in place by the shared or per-element diagonal."""

    kind = DIAGONAL

    def __init__(self, step, num_qubits: int) -> None:
        self.shape, axis_of = _collapsed_layout(step.qubits, num_qubits)
        k = len(step.qubits)
        order = sorted(range(k), key=lambda position: step.qubits[position])
        #: Transpose taking the ``(2,) * k`` diagonal from the step's qubit
        #: order to ascending qubit order (``None`` when already ascending).
        self.order = None if order == list(range(k)) else tuple(order)
        self.local = (2,) * k
        touched = set(axis_of.values())
        self.broadcast = tuple(
            2 if axis in touched else 1 for axis in range(1, 1 + len(self.shape))
        )

    def apply(self, state, matrix) -> None:
        diagonal = arrays.as_complex(np.diagonal(matrix, axis1=-2, axis2=-1))
        lead = diagonal.shape[:-1]
        if self.order is not None:
            shift = len(lead)
            diagonal = diagonal.reshape(lead + self.local).transpose(
                tuple(range(shift)) + tuple(shift + axis for axis in self.order)
            )
        tensor = state.view(self.shape)
        tensor *= diagonal.reshape(lead + self.broadcast)


class ControlledKernel:
    """Applies a ``diag(I, U)`` gate's ``U`` to the control=1 half only."""

    kind = CONTROLLED

    def __init__(self, step, num_qubits: int) -> None:
        if len(step.qubits) != 2:
            raise SimulationError(
                f"step '{step.name}' on {step.qubits}: the controlled kernel "
                "needs a (control, target) qubit pair"
            )
        control, target = step.qubits
        self.shape, axis_of = _collapsed_layout(step.qubits, num_qubits)
        ndim = 1 + len(self.shape)
        index = [slice(None)] * ndim
        index[axis_of[control]] = 1
        self.half = tuple(index)
        # Subscripts over the control=1 half (the control axis indexed away).
        half_axes = string.ascii_letters[: ndim - 1]
        target_axis = axis_of[target] - (axis_of[target] > axis_of[control])
        out_axes = half_axes.replace(half_axes[target_axis], "Z")
        block = "Z" + half_axes[target_axis]
        self.shared = f"{block},{half_axes}->{out_axes}"
        self.per_element = f"{half_axes[0]}{block},{half_axes}->{out_axes}"

    def apply(self, state, matrix) -> None:
        block = arrays.as_complex(matrix[..., 2:, 2:])
        subscripts = self.shared if block.ndim == 2 else self.per_element
        tensor = state.view(self.shape)
        tensor[self.half] = arrays.einsum(subscripts, block, tensor[self.half])


class DenseKernel:
    """The general gate: one batched einsum over the whole state."""

    kind = DENSE

    def __init__(self, step, num_qubits: int) -> None:
        self.qubits = step.qubits

    def apply(self, state, matrix) -> None:
        state.apply_matrix(matrix, self.qubits)


_KERNELS = {
    PERMUTATION: PermutationKernel,
    DIAGONAL: DiagonalKernel,
    CONTROLLED: ControlledKernel,
    DENSE: DenseKernel,
}


def build_kernel(kind: str, step, num_qubits: int):
    """The ``kind`` kernel of ``step`` on a ``num_qubits``-qubit state."""
    return _KERNELS[kind](step, num_qubits)
