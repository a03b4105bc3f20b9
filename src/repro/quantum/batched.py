"""Batched pure-state simulation.

:class:`BatchedStatevector` evolves a whole *stack* of ``n``-qubit states at
once: amplitudes are stored as a ``(batch, 2**n)`` complex array and every
gate application is one kernel over the batch axis — :meth:`apply_matrix`
is the dense einsum, and the compiled-program engine dispatches cheaper
permutation, diagonal and controlled kernels (:mod:`repro.quantum.kernels`)
onto the writable :meth:`view`.  This is the engine
behind the vectorised parameter-shift sweep — all ``2P`` shifted parameter
vectors of a gradient evaluation become one batch, so the per-gate Python
overhead of :class:`~repro.quantum.statevector.Statevector` is paid once per
gate instead of once per gate *per shifted vector*.

Gates come in two flavours:

* a shared ``(2**k, 2**k)`` matrix applied identically to every batch element
  (fixed gates such as H or CNOT), and
* a per-element ``(batch, 2**k, 2**k)`` stack (parameterised rotations whose
  angle differs across the batch, built by the ``*_batch`` constructors in
  :mod:`repro.quantum.gates`).

Conventions
-----------
Axis 0 is always the batch axis.  Within each batch element the amplitude
layout matches :class:`~repro.quantum.statevector.Statevector` exactly: qubit
``0`` is the *most significant* bit of the computational-basis index, so
reshaping one row to ``(2,) * n`` maps axis ``q`` to qubit ``q`` (and
reshaping the whole array to ``(batch,) + (2,) * n`` maps axis ``q + 1`` to
qubit ``q``).
"""

from __future__ import annotations

import math
import string
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum.statevector import check_qubits, marginal_probabilities


class BatchedStatevector:
    """A stack of ``batch`` pure states on ``num_qubits`` qubits.

    Parameters
    ----------
    batch_size:
        Number of independent states in the stack (all initialised to
        ``|0...0>``).
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
        amplitudes = arrays.zeros((batch_size, 2**num_qubits))
        amplitudes[:, 0] = 1.0
        self._batch_size = batch_size
        self._num_qubits = num_qubits
        self._amplitudes = amplitudes

    # ------------------------------------------------------------------ #
    # Constructors and accessors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "BatchedStatevector":
        """Wrap an existing ``(batch, 2**n)`` amplitude array (copied).

        Every row must be a finite, unit-norm state (within
        :func:`repro.arrays.state_atol`), like a single
        :class:`~repro.quantum.statevector.Statevector`.
        """
        amplitudes = arrays.as_complex(amplitudes)
        if amplitudes.ndim != 2:
            raise SimulationError(
                f"expected a (batch, 2**n) amplitude array, got shape {amplitudes.shape}"
            )
        batch_size, size = amplitudes.shape
        num_qubits = int(round(math.log2(size))) if size else 0
        if size == 0 or 2**num_qubits != size:
            raise SimulationError(f"amplitude row length {size} is not a power of two")
        # A NaN or infinite amplitude makes its row's norm non-finite, which
        # fails the comparison too.
        with np.errstate(invalid="ignore"):
            norms = arrays.norm(amplitudes, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= arrays.state_atol()))
        if bad.size:
            row = int(bad[0])
            raise SimulationError(
                f"amplitude row {row} is not a finite unit-norm state "
                f"(norm={norms[row]:.6g}); {bad.size} of {batch_size} row(s) invalid"
            )
        state = cls(batch_size, num_qubits)
        state._amplitudes = amplitudes.copy()
        return state

    @classmethod
    def from_product(cls, factors: Sequence["BatchedStatevector"]) -> "BatchedStatevector":
        """The Kronecker product of ``factors``, element by element.

        Element ``i`` is ``kron(factors[0][i], factors[1][i], ...)``:
        ``factors[0]`` holds the most significant qubits, so the product's
        qubits are the factors' qubits in order.  The product is built by
        one broadcast multiply per factor, elementwise over the batch axis,
        so an element's amplitudes do not depend on the batch extent.
        """
        batch_size = factors[0].batch_size
        if any(factor.batch_size != batch_size for factor in factors):
            raise SimulationError(
                f"product factors have batches {[f.batch_size for f in factors]}, "
                "not one common batch"
            )
        amplitudes = factors[0]._amplitudes.copy()
        for factor in factors[1:]:
            amplitudes = (amplitudes[:, :, None] * factor._amplitudes[:, None, :]).reshape(
                batch_size, -1
            )
        state = cls.__new__(cls)
        state._amplitudes = amplitudes
        state._batch_size = batch_size
        state._num_qubits = sum(factor.num_qubits for factor in factors)
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
    def amplitudes(self) -> np.ndarray:
        """The ``(batch, 2**n)`` amplitude array (a copy)."""
        return self._amplitudes.copy()

    def repeat(self, counts) -> "BatchedStatevector":
        """Repeat element ``i`` ``counts[i] > 0`` times, in order, into a new stack.

        The grid executor evolves a tile's row-constant prefix once per grid
        row and then expands each row's state to the row's elements.
        ``np.repeat`` of an evolved element is bit-identical to evolving its
        copies (every gate kernel is elementwise over the batch axis), which
        is what keeps the prefix seed-exact.
        """
        state = BatchedStatevector.__new__(BatchedStatevector)
        state._amplitudes = np.repeat(self._amplitudes, counts, axis=0)
        state._batch_size = state._amplitudes.shape[0]
        state._num_qubits = self._num_qubits
        return state

    def statevector(self, index: int):
        """Extract one batch element as a :class:`Statevector`."""
        from repro.quantum.statevector import Statevector

        if not 0 <= index < self._batch_size:
            raise SimulationError(
                f"batch index {index} out of range for batch of {self._batch_size}"
            )
        return Statevector(self._amplitudes[index].copy())

    def view(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Writable ``(batch,) + shape`` view of the amplitudes, for in-place kernels.

        ``shape`` must factor one element's ``2**n`` amplitudes (a kernel
        plan's collapsed layout); writes through the view evolve the state.
        """
        if math.prod(shape) != self._amplitudes.shape[1]:
            raise SimulationError(
                f"kernel layout {shape} does not factor a "
                f"{self._num_qubits}-qubit state"
            )
        return self._amplitudes.reshape((self._batch_size,) + tuple(shape))

    def norms(self) -> np.ndarray:
        """Per-element Euclidean norms (1.0 for valid states)."""
        return arrays.norm(self._amplitudes, axis=1)

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-element measurement probabilities, shape ``(batch, 2**m)``.

        With ``qubits`` given, marginalises each state onto those (distinct)
        qubits in the requested order, mirroring
        :meth:`Statevector.probabilities` row by row.
        """
        probs = np.abs(self._amplitudes) ** 2
        if qubits is None:
            return probs
        return marginal_probabilities(probs, qubits, self._num_qubits)

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "BatchedStatevector":
        """Apply a gate to ``qubits`` of every batch element in place.

        ``matrix`` is either a shared ``(2**k, 2**k)`` unitary (applied to all
        elements) or a ``(batch, 2**k, 2**k)`` stack with one unitary per
        element.  Returns ``self`` to allow chaining.
        """
        qubits = check_qubits(qubits, self._num_qubits)
        k = len(qubits)
        matrix = arrays.as_complex(matrix)
        per_element = matrix.ndim == 3
        if per_element:
            if matrix.shape != (self._batch_size, 2**k, 2**k):
                raise SimulationError(
                    f"batched matrix shape {matrix.shape} does not match batch "
                    f"{self._batch_size} on {k} qubit(s)"
                )
            gate = matrix.reshape((self._batch_size,) + (2,) * (2 * k))
        else:
            if matrix.shape != (2**k, 2**k):
                raise SimulationError(
                    f"matrix shape {matrix.shape} does not match {k} qubit(s)"
                )
            gate = matrix.reshape((2,) * (2 * k))

        n = self._num_qubits
        letters = string.ascii_letters
        if 1 + n + k > len(letters):
            raise SimulationError(f"cannot label einsum axes for {n} qubits")
        batch_axis = letters[0]
        state_axes = letters[1 : 1 + n]
        out_axes = letters[1 + n : 1 + n + k]
        gate_sub = (
            (batch_axis if per_element else "")
            + "".join(out_axes)
            + "".join(state_axes[q] for q in qubits)
        )
        in_sub = batch_axis + "".join(state_axes)
        result_axes = list(state_axes)
        for position, q in enumerate(qubits):
            result_axes[q] = out_axes[position]
        out_sub = batch_axis + "".join(result_axes)

        tensor = self._amplitudes.reshape((self._batch_size,) + (2,) * n)
        moved = arrays.einsum(f"{gate_sub},{in_sub}->{out_sub}", gate, tensor)
        self._amplitudes = np.ascontiguousarray(moved).reshape(self._batch_size, -1)
        return self

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def inner(self, other: np.ndarray) -> np.ndarray:
        """Inner products ``<self_b|other_s>`` against stacked kets.

        ``other`` is a ``(samples, 2**n)`` array (or a single flat ket);
        returns the ``(batch, samples)`` (or ``(batch,)``) overlap matrix.
        """
        other = arrays.as_complex(other)
        single = other.ndim == 1
        kets = other[None, :] if single else other
        if kets.ndim != 2 or kets.shape[1] != self._amplitudes.shape[1]:
            raise SimulationError(
                f"ket array shape {other.shape} does not match "
                f"{self._num_qubits}-qubit batch"
            )
        overlaps = arrays.matmul(self._amplitudes.conj(), kets.T)
        return overlaps[:, 0] if single else overlaps

    def fidelities(self, other: np.ndarray) -> np.ndarray:
        """Pairwise fidelities ``|<self_b|other_s>|**2``; shape ``(batch, samples)``."""
        return np.abs(self.inner(other)) ** 2
