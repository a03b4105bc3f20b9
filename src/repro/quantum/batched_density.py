"""Batched mixed-state simulation.

:class:`BatchedDensityMatrix` evolves a whole *stack* of ``n``-qubit density
operators at once: states are stored as a ``(batch, 2**n, 2**n)`` complex
array and every unitary or Kraus channel is folded into one
``(4**k, 4**k)`` *superoperator* — ``sum_k kron(K_k, K_k.conj())`` — that
contracts only the affected qubits' (row, column) axis pair in a single BLAS
matmul over the whole batch.  This is what makes the vectorised noisy sweep
fast: where :class:`~repro.quantum.density_matrix.DensityMatrix` embeds every
Kraus operator into the full ``2**n``-dimensional space and pays two full
matmuls per operator *per circuit*, the batched engine pays one small
contraction per *channel* for the entire sweep, touching only the ``4**k``
local dimensions instead of redundantly multiplying identity blocks.

Operators come in two flavours, mirroring
:class:`~repro.quantum.batched.BatchedStatevector`:

* a shared ``(2**k, 2**k)`` matrix applied identically to every batch element
  (fixed gates, and every noise channel of a structure-sharing sweep), and
* a per-element ``(batch, 2**k, 2**k)`` stack (parameterised rotations whose
  angle differs across the batch, built by the ``*_batch`` constructors in
  :mod:`repro.quantum.gates`).

Conventions
-----------
Axis 0 is always the batch axis.  Within each batch element the layout
matches :class:`~repro.quantum.density_matrix.DensityMatrix` exactly: qubit 0
is the most significant bit of the basis index, so reshaping one element to
``(2,) * (2 * n)`` maps axis ``q`` to qubit ``q``'s row index and axis
``n + q`` to its column index.
"""

from __future__ import annotations

import math
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
        dim = 2**num_qubits
        matrices = arrays.zeros((batch_size, dim, dim))
        matrices[:, 0, 0] = 1.0
        self._batch_size = batch_size
        self._num_qubits = num_qubits
        self._matrices = matrices

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
        state = cls(batch_size, num_qubits)
        state._matrices = matrices.copy()
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
    def matrices(self) -> np.ndarray:
        """The ``(batch, 2**n, 2**n)`` density stack (a copy)."""
        return self._matrices.copy()

    def broadcast_to(self, batch_size: int) -> "BatchedDensityMatrix":
        """Repeat a single-element batch into a ``batch_size``-element one.

        Counterpart of :meth:`BatchedStatevector.broadcast_to` for the noisy
        engine's shared-prefix execution: ``np.repeat`` of one evolved
        density matrix is bit-identical to evolving a stack of identical
        ones, because every batched contraction is elementwise over axis 0.
        """
        batch_size = int(batch_size)
        if self._batch_size != 1:
            raise SimulationError(
                "broadcast_to requires a single-element batch, got "
                f"{self._batch_size}"
            )
        if batch_size <= 0:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        state = BatchedDensityMatrix.__new__(BatchedDensityMatrix)
        state._batch_size = batch_size
        state._num_qubits = self._num_qubits
        state._matrices = np.repeat(self._matrices, batch_size, axis=0)
        return state

    def density_matrix(self, index: int):
        """Extract one batch element as a :class:`DensityMatrix`."""
        from repro.quantum.density_matrix import DensityMatrix

        if not 0 <= index < self._batch_size:
            raise SimulationError(
                f"batch index {index} out of range for batch of {self._batch_size}"
            )
        return DensityMatrix._from_trusted(
            self._matrices[index].copy(), self._num_qubits
        )

    def traces(self) -> np.ndarray:
        """Per-element traces (1.0 for valid states)."""
        return np.real(arrays.einsum("bii->b", self._matrices))

    def purities(self) -> np.ndarray:
        """Per-element purities ``Tr(rho^2)``; 1.0 for pure states."""
        return np.real(arrays.einsum("bij,bji->b", self._matrices, self._matrices))

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-element Z-basis probabilities, shape ``(batch, 2**m)``.

        Clips small negative diagonal entries (numerical noise from Kraus
        accumulation) and renormalises each element, exactly as
        :meth:`DensityMatrix.probabilities` does per circuit.  Elements whose
        diagonal sums to zero or is not finite raise
        :class:`~repro.exceptions.SimulationError` instead of yielding NaN
        probabilities.
        """
        diagonal = np.clip(np.real(arrays.einsum("bii->bi", self._matrices)), 0.0, None)
        totals = diagonal.sum(axis=1)
        if not np.all(np.isfinite(totals)) or np.any(totals <= 0.0):
            raise SimulationError(
                "cannot compute probabilities: a density-matrix diagonal is "
                "all zero or not finite"
            )
        probs = diagonal / totals[:, None]
        if qubits is None:
            return probs
        return marginal_probabilities(probs, qubits, self._num_qubits)

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def _apply_superop(
        self, superop: np.ndarray, qubits: Tuple[int, ...], per_element: bool
    ) -> None:
        """Contract a channel superoperator with the qubits' axis pairs.

        Each batch element is viewed as a ``(2,) * (2n)`` tensor whose axis
        ``q`` is qubit ``q``'s row (ket) index and axis ``n + q`` its column
        (bra) index.  The ``2k`` axes belonging to ``qubits`` are moved to
        the end and flattened into a length-``4**k`` vectorised index, so the
        whole channel — every Kraus operator at once — is a single
        ``(rest, 4**k) @ (4**k, 4**k)`` matmul across the entire batch
        (batched matmul for a per-element superoperator stack).
        """
        n = self._num_qubits
        k = len(qubits)
        dim = 2**n
        tensor = self._matrices.reshape((self._batch_size,) + (2,) * (2 * n))
        source_axes = tuple(1 + q for q in qubits) + tuple(1 + n + q for q in qubits)
        ndim = 1 + 2 * n
        dest_axes = tuple(range(ndim - 2 * k, ndim))
        moved = np.moveaxis(tensor, source_axes, dest_axes)
        moved_shape = moved.shape
        if per_element:
            flat = np.ascontiguousarray(moved).reshape(self._batch_size, -1, 4**k)
            out = arrays.matmul(flat, superop.transpose(0, 2, 1))
        else:
            flat = np.ascontiguousarray(moved).reshape(-1, 4**k)
            out = arrays.matmul(flat, superop.T)
        out = np.moveaxis(out.reshape(moved_shape), dest_axes, source_axes)
        self._matrices = np.ascontiguousarray(out).reshape(self._batch_size, dim, dim)

    def apply_superoperator(
        self, superop: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedDensityMatrix":
        """Apply a raw channel superoperator to ``qubits`` of every element.

        ``superop`` is a shared ``(4**k, 4**k)`` matrix (applied to all
        elements) or a per-element ``(batch, 4**k, 4**k)`` stack in the
        vectorised index layout of :func:`conjugation_superoperator`.  This is
        the public surface the compiled-program executor uses to apply
        unitaries whose noise channels were precomposed into a single
        superoperator at compile time.  Returns ``self`` to allow chaining.
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
        self._apply_superop(superop, qubits, per_element)
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
        self._apply_superop(conjugation_superoperator(matrix), qubits, per_element)
        return self
