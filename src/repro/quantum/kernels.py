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
controlled     ``crx``, ``cry``, any fixed ``diag(I, U)``       the 2x2 update of ``U`` on the
               two-qubit matrix                                 control=1 half only
dense          everything else                                  one-qubit: the 2x2 update
                                                                chosen by position; wider: the
                                                                einsum of
                                                                :meth:`BatchedStatevector.apply_matrix`
=============  ==============================================  ==============================

The 2x2 update (:class:`TargetUpdate`) views the state, or the control=1
half, as ``(batch, L, 2, R)``: ``L`` amplitudes above the target qubit and
``R`` below it, the control not counted.  :func:`update_variant` fixes its
variant from the step's placement alone: a left matmul when ``L == 1``, a
right matmul when ``R == 1``, and an in-place two-row axpy otherwise.  The
einsum's cost grows with the target's position; the matmuls and the axpy
stream the state once.

Parametric steps classify by gate-library name (:data:`PARAMETRIC_CLASSES`);
fixed steps classify from their matrix, exactly (no tolerance), so
a matrix only leaves the dense class when its structure is exact.

Kernels work on a *collapsed* view of the ``(batch, 2**n)`` amplitudes: the
step's qubit axes stay binary and every run of untouched qubits between them
collapses into one axis, so a sub-block index is a short tuple of slices and
bits.  Index tuples, broadcast shapes and update variants are precomputed
when the plan is built; applying a kernel inspects nothing but the operand's
leading (batch) dimension, and a per-element operand whose length is not
the state's batch fails closed.  Every plan is certified by VER405
(:func:`repro.analysis.equiv.verify_kernel_plan`) when it is built.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum import gates as gate_library

PERMUTATION = "permutation"
DIAGONAL = "diagonal"
CONTROLLED = "controlled"
DENSE = "dense"

#: Variants of the 2x2 target-qubit update (:func:`update_variant`).
MATMUL_LEFT = "matmul-left"
MATMUL_RIGHT = "matmul-right"
AXPY = "axpy"

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


def update_variant(kind: str, qubits: Sequence[int], num_qubits: int) -> Optional[str]:
    """The 2x2 update variant a ``kind`` step on ``qubits`` runs, or ``None``.

    One-qubit dense steps update their qubit, and controlled steps update
    the target (``qubits[1]``) of the control=1 half; every other step runs
    no 2x2 update.  ``L`` and ``R`` count the amplitudes above and below the
    target, the control not counted: a left matmul when ``L == 1``, a right
    matmul when ``R == 1``, and the axpy otherwise.  The kernels and the
    cost model (:func:`repro.analysis.cost.estimate_cost`) both decide by
    this rule.
    """
    if kind == DENSE and len(qubits) == 1:
        control, target = None, qubits[0]
    elif kind == CONTROLLED and len(qubits) == 2:
        control, target = qubits
    else:
        return None
    above = target - (control is not None and control < target)
    below = num_qubits - 1 - target - (control is not None and control > target)
    if above == 0:
        return MATMUL_LEFT
    if below == 0:
        return MATMUL_RIGHT
    return AXPY


class _Kernel:
    """Dispatch shared by every class: a per-element operand must fit the batch."""

    kind = ""

    def apply(self, state, matrix) -> None:
        if np.ndim(matrix) == 3 and np.shape(matrix)[0] != state.batch_size:
            raise SimulationError(
                f"{self.kind} kernel: per-element operand of shape "
                f"{np.shape(matrix)} does not match the state of shape "
                f"({state.batch_size}, {2**state.num_qubits})"
            )
        self._apply(state, matrix)


class TargetUpdate:
    """The 2x2 update of one target qubit, on the whole state or a control=1 half.

    The plan views the state as ``(batch, L, 2, R)`` (collapsed layout; the
    control axis, if any, indexed at 1) and runs :func:`update_variant`'s
    variant on it.  Each variant holds at most one state-sized temporary:
    the matmul's output, or the axpy's two half-state products.
    """

    def __init__(self, target: int, num_qubits: int, control: Optional[int] = None) -> None:
        qubits = (target,) if control is None else (control, target)
        self.variant = update_variant(
            DENSE if control is None else CONTROLLED, qubits, num_qubits
        )
        self.shape, axis_of = _collapsed_layout(qubits, num_qubits)
        select = [slice(None)] * (1 + len(self.shape))
        axis = axis_of[target]
        if control is not None:
            select[axis_of[control]] = 1
            axis -= axis_of[control] < axis
        ndim = len(select) - (control is not None)
        if ndim == 2:
            # L == R == 1 leaves a (batch, 2) view; a trailing unit axis
            # keeps the left matmul a matrix product.
            select.append(None)
            ndim = 3
        self.select = tuple(select)
        #: Target axis of the selected view (batch axis included).
        self.axis = axis
        #: Unit axes between an operand's batch axis and its 2x2 block, so a
        #: per-element operand broadcasts over the view's other axes.
        self.pad = (1,) * (ndim - 3)
        rows = [slice(None)] * ndim
        rows[axis] = 0
        self.row0 = tuple(rows)
        rows[axis] = 1
        self.row1 = tuple(rows)

    def apply(self, state, matrix) -> None:
        matrix = arrays.as_complex(matrix)
        view = state.view(self.shape)[self.select]
        lead = matrix.shape[:-2] + self.pad
        if self.variant == AXPY:
            self._axpy(view, matrix.reshape(lead + (1, 2, 2)))
        elif self.variant == MATMUL_LEFT:
            if self.axis != view.ndim - 2:
                # A control between the target and the amplitudes below it
                # splits them over two axes; the first becomes a batch axis.
                view = np.moveaxis(view, self.axis, -2)
            view[...] = arrays.matmul(matrix.reshape(lead + (2, 2)), view)
        else:
            transposed = np.swapaxes(matrix.reshape(lead + (2, 2)), -1, -2)
            view[...] = arrays.matmul(view, transposed)

    def _axpy(self, view, block) -> None:
        """Both target rows in place: ``row_i = m_i0 row_0 + m_i1 row_1``."""
        row0, row1 = view[self.row0], view[self.row1]
        scaled = row0 * block[..., 1, 0]
        row0 *= block[..., 0, 0]
        row0 += row1 * block[..., 0, 1]
        row1 *= block[..., 1, 1]
        row1 += scaled


class PermutationKernel(_Kernel):
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

    def _apply(self, state, matrix) -> None:
        tensor = state.view(self.shape)
        held = [tensor[origin].copy() for _, origin in self.moves]
        for (target, _), block in zip(self.moves, held):
            tensor[target] = block


class DiagonalKernel(_Kernel):
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

    def _apply(self, state, matrix) -> None:
        diagonal = arrays.as_complex(np.diagonal(matrix, axis1=-2, axis2=-1))
        lead = diagonal.shape[:-1]
        if self.order is not None:
            shift = len(lead)
            diagonal = diagonal.reshape(lead + self.local).transpose(
                tuple(range(shift)) + tuple(shift + axis for axis in self.order)
            )
        tensor = state.view(self.shape)
        tensor *= diagonal.reshape(lead + self.broadcast)


class ControlledKernel(_Kernel):
    """Applies a ``diag(I, U)`` gate's ``U`` to the control=1 half only."""

    kind = CONTROLLED

    def __init__(self, step, num_qubits: int) -> None:
        if len(step.qubits) != 2:
            raise SimulationError(
                f"step '{step.name}' on {step.qubits}: the controlled kernel "
                "needs a (control, target) qubit pair"
            )
        control, target = step.qubits
        self.update = TargetUpdate(target, num_qubits, control=control)

    def _apply(self, state, matrix) -> None:
        self.update.apply(state, np.asarray(matrix)[..., 2:, 2:])


class DenseKernel(_Kernel):
    """One qubit: the 2x2 update chosen by position; wider: the einsum."""

    kind = DENSE

    def __init__(self, step, num_qubits: int) -> None:
        self.qubits = step.qubits
        self.update = (
            TargetUpdate(step.qubits[0], num_qubits) if len(step.qubits) == 1 else None
        )

    def _apply(self, state, matrix) -> None:
        if self.update is None:
            state.apply_matrix(matrix, self.qubits)
        else:
            self.update.apply(state, matrix)


_KERNELS = {
    PERMUTATION: PermutationKernel,
    DIAGONAL: DiagonalKernel,
    CONTROLLED: ControlledKernel,
    DENSE: DenseKernel,
}


def build_kernel(kind: str, step, num_qubits: int):
    """The ``kind`` kernel of ``step`` on a ``num_qubits``-qubit state."""
    return _KERNELS[kind](step, num_qubits)
