"""Batched mixed-state simulation with a tracked axis layout.

:class:`BatchedDensityMatrix` evolves a whole *stack* of ``n``-qubit density
operators at once.  Every unitary or Kraus channel is folded into one
``(4**k, 4**k)`` *superoperator* — ``sum_k kron(K_k, K_k.conj())`` — and a
step is one BLAS matmul over the whole batch against the affected qubits'
(row, column) axes.  Where :class:`~repro.quantum.density_matrix.DensityMatrix`
embeds every Kraus operator into the full ``2**n``-dimensional space and pays
two full matmuls per operator *per circuit*, the batched engine pays one
small contraction per *channel* for the entire sweep.

Each element is a ``(2,) * (2 * n)`` tensor with one row (ket) axis and one
column (bra) axis per qubit.  The stack does not keep those axes in the
canonical order between steps.  It stores them in a tracked *physical*
order (:attr:`BatchedDensityMatrix.layout`) and a matmul contracts whatever
axes trail that order.  :func:`plan_layout` decides, per step, how the
step meets the layout:

* its row and column axes already form the trailing block, in any order:
  no copy, and the superoperator is permuted into the block's order;
* a 1-qubit step whose qubit sits in a trailing 2-qubit block: no copy, and
  its superoperator is lifted to ``16 x 16`` with an identity on the other
  qubit;
* otherwise one transpose copy moves the step's axes to the end, qubit by
  qubit as (row, column) pairs, and the rest keep their relative order.

The stack owns two buffers and ping-pongs between them, so a step holds at
most two stack-sized arrays.  The canonical ``(batch, 2**n, 2**n)`` layout
is rebuilt only when a caller reads the matrices; probabilities and traces
read the diagonal straight out of the physical layout, and
:meth:`BatchedDensityMatrix.observable_probabilities` reads outcome
probabilities through a plan-time measurement observable in that layout.
The compiled-program engine plans a program's whole layout schedule once
(:meth:`~repro.quantum.program.DensitySuperoperatorEngine.step_plans`);
:meth:`BatchedDensityMatrix.apply_superoperator` plans one step on the fly
through the same :func:`plan_layout`.

Operators come in two flavours, mirroring
:class:`~repro.quantum.batched.BatchedStatevector`:

* a shared ``(2**k, 2**k)`` matrix applied identically to every batch element
  (fixed gates, and every noise channel of a structure-sharing sweep), and
* a per-element ``(batch, 2**k, 2**k)`` stack (parameterised rotations whose
  angle differs across the batch, built by the ``*_batch`` constructors in
  :mod:`repro.quantum.gates`).

Conventions
-----------
Axis 0 is always the batch axis.  In the canonical order, which every
accessor returns, each element matches
:class:`~repro.quantum.density_matrix.DensityMatrix` exactly: qubit 0 is the
most significant bit of the basis index, so logical axis ``q`` is qubit
``q``'s row index and logical axis ``n + q`` its column index.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import string
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.arrays import COMPLEX_DTYPE
from repro.exceptions import SimulationError
from repro.quantum.statevector import check_qubits, marginal_probabilities


def conjugation_superoperator(operator: np.ndarray) -> np.ndarray:
    """The conjugation superoperator ``rho -> K rho K†`` of one operator.

    For a shared ``(2**k, 2**k)`` operator the result is the ``(4**k, 4**k)``
    matrix ``kron(K, K.conj())``; for a per-element ``(batch, 2**k, 2**k)``
    stack it is the matching ``(batch, 4**k, 4**k)`` stack.  The index layout
    is the vectorised (row multi-index, column multi-index) pair used by
    :meth:`BatchedDensityMatrix.apply_superoperator`, so superoperators of
    sequential channels compose by plain matrix multiplication (later
    channels on the left) — the mechanism behind the compile-time noise
    precomposition in :mod:`repro.quantum.program`.

    The result keeps a complex operator's precision (a real one is taken as
    canonical ``COMPLEX_DTYPE``): canonical gate matrices and Kraus
    operators give the canonical superoperators the plan-time precomposition
    needs, and callers cast per-tile operands with ``arrays.as_complex``
    first.
    """
    operator = np.asarray(operator)
    if operator.dtype.kind != "c":
        operator = operator.astype(COMPLEX_DTYPE)
    if operator.ndim == 3:
        batch, dim = operator.shape[0], operator.shape[1]
        conjugate = operator.conj()
        return (
            operator[:, :, None, :, None] * conjugate[:, None, :, None, :]
        ).reshape(batch, dim * dim, dim * dim)
    if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
        raise SimulationError(
            f"expected a square operator or a stack of them, got shape {operator.shape}"
        )
    return arrays.kron(operator, operator.conj())


def channel_superoperator(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(4**k, 4**k)`` superoperator ``sum_k kron(K_k, K_k.conj())`` of a channel."""
    kraus_operators = list(kraus_operators)
    if not kraus_operators:
        raise SimulationError("a channel needs at least one Kraus operator")
    total: np.ndarray = None
    for kraus in kraus_operators:
        term = conjugation_superoperator(kraus)
        total = term if total is None else total + term
    return total


def canonical_layout(num_qubits: int) -> Tuple[int, ...]:
    """The canonical axis order: every row axis, then every column axis."""
    return tuple(range(2 * num_qubits))


@dataclasses.dataclass(frozen=True, eq=False)
class LayoutStep:
    """How one contraction meets a stack's tracked axis layout.

    Attributes
    ----------
    source, target:
        Logical axes in physical order before and after the step.
    transpose:
        The tensor-axis permutation (batch axis first) that takes ``source``
        to ``target``, or ``None`` when the step contracts in place.
    gather:
        ``(4**m,)`` map from a physical index of the trailing ``2m``-axis
        block to the step's canonical vectorised index (row multi-index,
        then column multi-index, qubits in step order).
    mask:
        ``None``, or the boolean ``(4**m, 4**m)`` identity on the axes of
        the block that the step does not act on (a lifted 1-qubit step).
    """

    source: Tuple[int, ...]
    target: Tuple[int, ...]
    transpose: Optional[Tuple[int, ...]]
    gather: np.ndarray
    mask: Optional[np.ndarray]

    def physical(self, superop: np.ndarray) -> np.ndarray:
        """A canonical superoperator, shared or per element, in block order.

        Pure reindexing (and, for a lift, zeroing): the entries are the
        canonical ones, so the result is exact.
        """
        operator = np.take(np.take(superop, self.gather, axis=-2), self.gather, axis=-1)
        return operator if self.mask is None else operator * self.mask


def _normalised(marginal: np.ndarray) -> np.ndarray:
    """Clip ``(batch, 2**m)`` outcome probabilities at 0 and renormalise each row."""
    clipped = np.clip(marginal, 0.0, None)
    totals = clipped.sum(axis=1)
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0.0):
        raise SimulationError(
            "cannot compute probabilities: a density-matrix diagonal is "
            "all zero or not finite"
        )
    return clipped / totals[:, None]


def _bits(width: int) -> np.ndarray:
    """``(2**width, width)`` binary digits of every index, most significant first."""
    return (np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1


@functools.lru_cache(maxsize=4096)
def plan_layout(source: Tuple[int, ...], qubits: Tuple[int, ...]) -> LayoutStep:
    """Plan one step on ``qubits`` against the physical axis order ``source``.

    The step contracts in place when its row and column axes already form
    the trailing block, or — for one qubit — when it sits in a trailing
    2-qubit block, which it then acts on through a lifted ``16 x 16``
    operator.  Otherwise one transpose moves its axes to the end as (row,
    column) pairs in step order, the other axes keeping their order.
    Memoised: a schedule revisits the same (layout, support) pairs.
    """
    n = len(source) // 2
    k = len(qubits)
    step_axes = tuple(qubits) + tuple(n + q for q in qubits)
    target = source
    block = source[-2 * k:]
    if set(block) != set(step_axes):
        pair = source[-4:]
        pair_qubits = {axis % n for axis in pair}
        lifted = (
            k == 1
            and len(pair_qubits) == 2
            and qubits[0] in pair_qubits
            and set(pair) == pair_qubits | {n + q for q in pair_qubits}
        )
        if lifted:
            block = pair
        else:
            block = tuple(axis for q in qubits for axis in (q, n + q))
            target = tuple(axis for axis in source if axis not in block) + block
    bits = _bits(len(block))
    weights = 2 ** np.arange(2 * k - 1, -1, -1)
    gather = bits[:, [block.index(axis) for axis in step_axes]] @ weights
    spectators = [j for j, axis in enumerate(block) if axis not in step_axes]
    mask = None
    if spectators:
        rest = bits[:, spectators] @ (2 ** np.arange(len(spectators) - 1, -1, -1))
        mask = rest[:, None] == rest[None, :]
        mask.setflags(write=False)
    gather.setflags(write=False)
    transpose = None
    if target != source:
        transpose = (0,) + tuple(1 + source.index(axis) for axis in target)
    return LayoutStep(source, target, transpose, gather, mask)


class BatchedDensityMatrix:
    """A stack of ``batch`` density operators on ``num_qubits`` qubits.

    Parameters
    ----------
    batch_size:
        Number of independent states in the stack (all initialised to
        ``|0...0><0...0|``).
    num_qubits:
        Width of each state.
    """

    def __init__(self, batch_size: int, num_qubits: int) -> None:
        batch_size = int(batch_size)
        num_qubits = int(num_qubits)
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        if num_qubits <= 0:
            raise SimulationError(f"need at least one qubit, got {num_qubits}")
        matrices = arrays.zeros((batch_size, 4**num_qubits))
        matrices[:, 0] = 1.0
        self._adopt(matrices, num_qubits, canonical_layout(num_qubits))

    def _adopt(
        self, matrices: np.ndarray, num_qubits: int, layout: Tuple[int, ...]
    ) -> None:
        """Own a ``(batch, 4**n)`` buffer whose element axes are in ``layout``."""
        self._batch_size = matrices.shape[0]
        self._num_qubits = num_qubits
        self._matrices = matrices
        self._spare: Optional[np.ndarray] = None
        self._layout = layout

    # ------------------------------------------------------------------ #
    # Constructors and accessors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrices(cls, matrices: np.ndarray) -> "BatchedDensityMatrix":
        """Wrap an existing ``(batch, 2**n, 2**n)`` density stack (copied).

        Every element must be a physical state — unit trace and Hermitian,
        within the same tolerances as :class:`DensityMatrix` — so that
        non-physical user input fails here rather than surfacing later as
        silently wrong probabilities.
        """
        matrices = arrays.as_complex(matrices)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise SimulationError(
                f"expected a (batch, 2**n, 2**n) density stack, got shape {matrices.shape}"
            )
        batch_size, dim = matrices.shape[0], matrices.shape[1]
        num_qubits = int(round(math.log2(dim))) if dim else 0
        if batch_size == 0 or dim == 0 or 2**num_qubits != dim:
            raise SimulationError(
                f"density stack of shape {matrices.shape} is not a non-empty "
                "batch of power-of-two matrices"
            )
        traces = np.real(arrays.einsum("bii->b", matrices))
        if not np.allclose(traces, 1.0, atol=max(1e-6, arrays.state_atol())):
            raise SimulationError(
                "every density matrix in the stack must have unit trace"
            )
        if not np.allclose(
            matrices,
            matrices.conj().transpose(0, 2, 1),
            atol=max(1e-8, arrays.state_atol()),
        ):
            raise SimulationError(
                "every density matrix in the stack must be Hermitian"
            )
        state = cls.__new__(cls)
        state._adopt(
            matrices.reshape(batch_size, dim * dim).copy(),
            num_qubits,
            canonical_layout(num_qubits),
        )
        return state

    @property
    def batch_size(self) -> int:
        """Number of states in the stack."""
        return self._batch_size

    @property
    def num_qubits(self) -> int:
        """Number of qubits of each state."""
        return self._num_qubits

    @property
    def layout(self) -> Tuple[int, ...]:
        """Logical axes in physical order (:func:`canonical_layout` when fresh)."""
        return self._layout

    def _tensor(self) -> np.ndarray:
        """The buffer as a ``(batch,) + (2,) * 2n`` tensor in physical order."""
        return self._matrices.reshape(
            (self._batch_size,) + (2,) * (2 * self._num_qubits)
        )

    def _canonical(self) -> np.ndarray:
        """The ``(batch, 2**n, 2**n)`` stack, a view when the layout is canonical."""
        dim = 2**self._num_qubits
        order = (0,) + tuple(
            1 + self._layout.index(axis) for axis in canonical_layout(self._num_qubits)
        )
        return self._tensor().transpose(order).reshape(self._batch_size, dim, dim)

    def _diagonal(self) -> np.ndarray:
        """Per-element ``(batch, 2**n)`` diagonal, read out of the physical layout."""
        n = self._num_qubits
        labels = string.ascii_lowercase
        subscripts = (
            "Z"
            + "".join(labels[axis % n] for axis in self._layout)
            + "->Z"
            + labels[:n]
        )
        return arrays.einsum(subscripts, self._tensor()).reshape(
            self._batch_size, 2**n
        )

    @property
    def matrices(self) -> np.ndarray:
        """The canonical ``(batch, 2**n, 2**n)`` density stack (a copy)."""
        return self._canonical().copy()

    def repeat(self, counts) -> "BatchedDensityMatrix":
        """Repeat element ``i`` ``counts[i] > 0`` times, keeping the physical layout.

        Counterpart of :meth:`BatchedStatevector.repeat
        <repro.quantum.batched.BatchedStatevector.repeat>` for the noisy
        engine: every batched contraction is elementwise over axis 0.
        """
        state = BatchedDensityMatrix.__new__(BatchedDensityMatrix)
        state._adopt(
            np.repeat(self._matrices, counts, axis=0),
            self._num_qubits,
            self._layout,
        )
        return state

    def density_matrix(self, index: int):
        """Extract one batch element as a :class:`DensityMatrix`."""
        from repro.quantum.density_matrix import DensityMatrix

        if not 0 <= index < self._batch_size:
            raise SimulationError(
                f"batch index {index} out of range for batch of {self._batch_size}"
            )
        return DensityMatrix._from_trusted(
            self._canonical()[index].copy(), self._num_qubits
        )

    def traces(self) -> np.ndarray:
        """Per-element traces (1.0 for valid states)."""
        return np.real(self._diagonal().sum(axis=1))

    def purities(self) -> np.ndarray:
        """Per-element purities ``Tr(rho^2)``; 1.0 for pure states."""
        matrices = self._canonical()
        return np.real(arrays.einsum("bij,bji->b", matrices, matrices))

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-element Z-basis probabilities, shape ``(batch, 2**m)``.

        Marginalises the diagonal onto ``qubits`` first, then clips small
        negative outcome probabilities (numerical noise from Kraus
        accumulation) and renormalises each element.  Clipping the
        ``2**m`` marginal rather than each diagonal entry is what
        :meth:`observable_probabilities` can do, so both readouts agree;
        against :meth:`DensityMatrix.probabilities`, which clips entries,
        the two differ only in the last ULP.  Elements whose marginal sums
        to zero or is not finite raise
        :class:`~repro.exceptions.SimulationError` instead of yielding NaN
        probabilities.
        """
        marginal = np.real(self._diagonal())
        if qubits is not None:
            marginal = marginal_probabilities(marginal, qubits, self._num_qubits)
        return _normalised(marginal)

    def observable_probabilities(
        self, observable: np.ndarray, layout: Tuple[int, ...]
    ) -> np.ndarray:
        """Outcome probabilities read through a measurement observable.

        ``observable`` is a ``(4**n, 2**m)`` matrix whose column ``j`` maps
        an element, flattened in the physical axis order ``layout``, to the
        probability of outcome ``j`` (see
        :meth:`~repro.quantum.program.DensitySuperoperatorEngine.readout_plan`).
        The readout is one ``(batch, 4**n) @ (4**n, 2**m)`` matmul, clipped
        and renormalised as :meth:`probabilities` does.  An observable
        planned for another layout raises instead of reading the wrong
        entries.
        """
        if layout != self._layout:
            raise SimulationError(
                f"observable planned for axis order {layout} read out of a "
                f"stack in axis order {self._layout}"
            )
        observable = observable.astype(self._matrices.dtype, copy=False)
        return _normalised(np.real(arrays.matmul(self._matrices, observable)))

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def apply_planned(self, step: LayoutStep, operator: np.ndarray) -> None:
        """Contract ``operator`` with the trailing block ``step`` planned.

        ``operator`` is the step's superoperator already in the block's
        physical order (:meth:`LayoutStep.physical`), shared ``(4**m,
        4**m)`` or per element ``(batch, 4**m, 4**m)``.  When ``step``
        carries a transpose, one copy into the spare buffer moves the
        block's axes to the end first; the matmul then writes into the
        other buffer, so the step holds exactly two stack-sized arrays.
        A plan made for another layout raises instead of contracting the
        wrong axes.
        """
        if step.source != self._layout:
            raise SimulationError(
                f"layout step planned for axis order {step.source} applied to "
                f"a stack in axis order {self._layout}"
            )
        current = self._matrices
        spare = self._spare if self._spare is not None else np.empty_like(current)
        if step.transpose is not None:
            tensor = self._tensor()
            np.copyto(spare.reshape(tensor.shape), tensor.transpose(step.transpose))
            current, spare = spare, current
        operator = operator.astype(current.dtype, copy=False)
        width = operator.shape[-1]
        if operator.ndim == 3:
            arrays.matmul(
                current.reshape(self._batch_size, -1, width),
                operator.transpose(0, 2, 1),
                out=spare.reshape(self._batch_size, -1, width),
            )
        else:
            arrays.matmul(
                current.reshape(-1, width), operator.T, out=spare.reshape(-1, width)
            )
        self._matrices, self._spare = spare, current
        self._layout = step.target

    def apply_superoperator(
        self, superop: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedDensityMatrix":
        """Apply a raw channel superoperator to ``qubits`` of every element.

        ``superop`` is a shared ``(4**k, 4**k)`` matrix (applied to all
        elements) or a per-element ``(batch, 4**k, 4**k)`` stack in the
        canonical vectorised index layout of :func:`conjugation_superoperator`.
        The step is planned against the current layout by :func:`plan_layout`
        and contracted by :meth:`apply_planned`, the same route the compiled
        engine's precomputed schedule takes.  Returns ``self`` to allow
        chaining.
        """
        qubits = check_qubits(qubits, self._num_qubits)
        k = len(qubits)
        superop = arrays.as_complex(superop)
        per_element = superop.ndim == 3
        expected = (
            (self._batch_size, 4**k, 4**k) if per_element else (4**k, 4**k)
        )
        if superop.shape != expected:
            raise SimulationError(
                f"superoperator shape {superop.shape} does not match "
                f"{'batch ' + str(self._batch_size) + ' on ' if per_element else ''}"
                f"{k} qubit(s)"
            )
        step = plan_layout(self._layout, qubits)
        self.apply_planned(step, step.physical(superop))
        return self

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "BatchedDensityMatrix":
        """Apply a unitary to ``qubits`` of every batch element in place.

        ``matrix`` is either a shared ``(2**k, 2**k)`` unitary (applied to
        all elements) or a ``(batch, 2**k, 2**k)`` stack with one unitary per
        element; it is applied as its :func:`conjugation_superoperator`.
        Returns ``self`` to allow chaining.
        """
        qubits = check_qubits(qubits, self._num_qubits)
        k = len(qubits)
        matrix = arrays.as_complex(matrix)
        per_element = matrix.ndim == 3
        if per_element and matrix.shape != (self._batch_size, 2**k, 2**k):
            raise SimulationError(
                f"batched operator shape {matrix.shape} does not match batch "
                f"{self._batch_size} on {k} qubit(s)"
            )
        if not per_element and matrix.shape != (2**k, 2**k):
            raise SimulationError(
                f"operator shape {matrix.shape} does not match {k} qubit(s)"
            )
        return self.apply_superoperator(conjugation_superoperator(matrix), qubits)
