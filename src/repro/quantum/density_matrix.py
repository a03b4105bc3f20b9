"""Mixed-state simulation.

:class:`DensityMatrix` represents an ``n``-qubit state as a ``2**n x 2**n``
density operator and supports unitary evolution, Kraus channels (noise),
partial trace, measurement statistics and sampling.  It is the substrate for
the simulated IBM-Q / IonQ hardware backends (paper Section 5.4): the
hardware experiments in the paper use at most 5 qubits, i.e. 32x32 matrices.

The bit-ordering convention matches :class:`repro.quantum.statevector.Statevector`:
qubit 0 is the most significant bit of the basis index.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum.operations import Instruction
from repro.quantum.statevector import (
    Statevector,
    check_qubits,
    marginal_probabilities,
)
from repro.utils.rng import RandomState, ensure_rng


class DensityMatrix:
    """Density operator of an ``n``-qubit register.

    Parameters
    ----------
    data:
        An integer qubit count (prepares ``|0...0><0...0|``), a
        :class:`Statevector`, or a square matrix of dimension ``2**n``.
    """

    def __init__(self, data) -> None:
        if isinstance(data, (int, np.integer)):
            num_qubits = int(data)
            if num_qubits <= 0:
                raise SimulationError(f"need at least one qubit, got {num_qubits}")
            matrix = arrays.zeros((2**num_qubits, 2**num_qubits))
            matrix[0, 0] = 1.0
        elif isinstance(data, Statevector):
            vector = data.data
            matrix = arrays.outer(vector, vector.conj())
            num_qubits = data.num_qubits
        else:
            matrix = arrays.as_complex(data).copy()
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise SimulationError(f"density matrix must be square, got shape {matrix.shape}")
            dim = matrix.shape[0]
            num_qubits = int(round(math.log2(dim)))
            if 2**num_qubits != dim:
                raise SimulationError(f"density matrix dimension {dim} is not a power of two")
            trace = arrays.trace(matrix).real
            if not math.isclose(trace, 1.0, abs_tol=max(1e-6, arrays.state_atol())):
                raise SimulationError(f"density matrix must have unit trace, got {trace:.6f}")
            if not np.allclose(matrix, matrix.conj().T, atol=max(1e-8, arrays.state_atol())):
                # A non-Hermitian operator is not a physical state: its
                # diagonal need not be real, so downstream "probabilities"
                # would silently go negative or complex.  Fail at
                # construction instead.
                raise SimulationError("density matrix must be Hermitian")
        self._num_qubits = num_qubits
        self._matrix = matrix

    @classmethod
    def _from_trusted(cls, matrix: np.ndarray, num_qubits: int) -> "DensityMatrix":
        """Wrap an engine-produced matrix without copying or re-validating.

        Only for simulation engines handing over states they evolved
        themselves (e.g. :meth:`BatchedDensityMatrix.density_matrix`): the
        constructor's trace/Hermiticity checks exist to reject non-physical
        *user input*, and re-running them here would both duplicate work per
        batch element and let accumulated rounding raise on the batched path
        where the in-place-mutating loop path cannot.
        """
        state = cls.__new__(cls)
        state._num_qubits = int(num_qubits)
        state._matrix = matrix
        return state

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def data(self) -> np.ndarray:
        """Density matrix (a copy)."""
        return self._matrix.copy()

    def copy(self) -> "DensityMatrix":
        """Deep copy."""
        return DensityMatrix(self._matrix.copy())

    def trace(self) -> float:
        """Trace of the density matrix (1.0 for a valid state)."""
        return float(arrays.trace(self._matrix).real)

    def purity(self) -> float:
        """Purity ``Tr(rho^2)``; 1.0 for pure states."""
        return float(arrays.trace(arrays.matmul(self._matrix, self._matrix)).real)

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Z-basis measurement probabilities, optionally marginalised.

        Raises
        ------
        SimulationError
            If the diagonal sums to zero or is not finite — dividing through
            would silently yield NaN "probabilities" (mirrors the zero guard
            in :func:`~repro.quantum.measurement.normalize_outcome_probabilities`).
        """
        diagonal = np.clip(np.real(np.diag(self._matrix)), 0.0, None)
        total = diagonal.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise SimulationError(
                "cannot compute probabilities: density-matrix diagonal is all "
                "zero or not finite"
            )
        diagonal = diagonal / total
        if qubits is None:
            return diagonal
        return marginal_probabilities(diagonal[None, :], qubits, self._num_qubits)[0]

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on ``qubit``."""
        probs = self.probabilities([qubit])
        return float(probs[0] - probs[1])

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def _expand_operator(self, matrix: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
        """Embed a ``k``-qubit operator into the full ``n``-qubit space."""
        n = self._num_qubits
        k = len(qubits)
        matrix = arrays.as_complex(matrix)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError(
                f"operator shape {matrix.shape} does not match {k} qubit(s)"
            )
        op_tensor = matrix.reshape((2,) * (2 * k))
        identity = arrays.eye(2**n).reshape((2,) * (2 * n))
        # Contract the operator's input axes with the identity's output axes
        # at the target positions to place the operator on ``qubits``.
        out = arrays.tensordot(op_tensor, identity, axes=(tuple(range(k, 2 * k)), qubits))
        out = np.moveaxis(out, tuple(range(k)), qubits)
        return out.reshape(2**n, 2**n)

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "DensityMatrix":
        """Apply a unitary acting on ``qubits``: ``rho -> U rho U†``."""
        qubits = check_qubits(qubits, self._num_qubits)
        full = self._expand_operator(matrix, qubits)
        self._matrix = full @ self._matrix @ full.conj().T
        return self

    def apply_kraus(self, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int]) -> "DensityMatrix":
        """Apply a quantum channel given by Kraus operators on ``qubits``."""
        qubits = check_qubits(qubits, self._num_qubits)
        kraus_operators = list(kraus_operators)
        if not kraus_operators:
            raise SimulationError("a channel needs at least one Kraus operator")
        result = np.zeros_like(self._matrix)
        for kraus in kraus_operators:
            full = self._expand_operator(kraus, qubits)
            result += full @ self._matrix @ full.conj().T
        self._matrix = result
        return self

    def apply_instruction(self, instruction: Instruction) -> "DensityMatrix":
        """Apply a bound gate instruction."""
        if instruction.name == "barrier":
            return self
        if not instruction.is_gate:
            raise SimulationError(
                f"DensityMatrix cannot apply non-unitary instruction '{instruction.name}' directly"
            )
        return self.apply_matrix(instruction.matrix(), instruction.qubits)

    def evolve(self, circuit) -> "DensityMatrix":
        """Apply every gate of a measurement-free circuit."""
        for instruction in circuit.instructions:
            if instruction.is_measurement or instruction.name == "reset":
                raise SimulationError(
                    "DensityMatrix.evolve only supports unitary circuits; "
                    "use DensityMatrixSimulator.run for measurements"
                )
            self.apply_instruction(instruction)
        return self

    # ------------------------------------------------------------------ #
    # Measurement and reduction
    # ------------------------------------------------------------------ #
    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not in ``keep``.

        The returned density matrix orders its qubits as listed in ``keep``.
        """
        keep = tuple(int(q) for q in keep)
        n = self._num_qubits
        if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
            raise SimulationError(f"invalid qubits to keep: {keep}")
        traced = [q for q in range(n) if q not in keep]
        k = len(keep)
        tensor = self._matrix.reshape((2,) * (2 * n))
        # Reorder row and column axes so the kept qubits (in caller order)
        # come first, then trace the remaining qubits pairwise.
        row_order = list(keep) + traced
        perm = row_order + [n + axis for axis in row_order]
        tensor = np.transpose(tensor, axes=perm)
        tensor = tensor.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
        reduced = arrays.einsum("ajbj->ab", tensor)
        return DensityMatrix(reduced)

    def measure_probability(self, qubit: int, outcome: int) -> float:
        """Probability of observing ``outcome`` when measuring ``qubit``."""
        probs = self.probabilities([qubit])
        return float(probs[outcome])

    def collapse(self, qubit: int, outcome: int) -> "DensityMatrix":
        """Project onto ``qubit == outcome`` and renormalise."""
        if outcome not in (0, 1):
            raise SimulationError(f"measurement outcome must be 0 or 1, got {outcome}")
        projector = arrays.zeros((2, 2))
        projector[outcome, outcome] = 1.0
        full = self._expand_operator(projector, (qubit,))
        projected = full @ self._matrix @ full.conj().T
        norm = arrays.trace(projected).real
        if norm <= 0:
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto outcome {outcome}: probability is zero"
            )
        self._matrix = projected / norm
        return self

    def measure(self, qubit: int, rng: RandomState = None) -> Tuple[int, "DensityMatrix"]:
        """Projectively measure ``qubit`` and collapse in place."""
        generator = ensure_rng(rng)
        p1 = self.measure_probability(qubit, 1)
        outcome = int(generator.random() < p1)
        self.collapse(qubit, outcome)
        return outcome, self

    def reset(self, qubit: int, rng: RandomState = None) -> "DensityMatrix":
        """Reset ``qubit`` to ``|0>``."""
        from repro.quantum import gates

        outcome, _ = self.measure(qubit, rng=rng)
        if outcome == 1:
            self.apply_matrix(gates.PAULI_X, (qubit,))
        return self

    def sample_counts(
        self,
        shots: int,
        qubits: Optional[Sequence[int]] = None,
        rng: RandomState = None,
    ) -> Dict[str, int]:
        """Sample Z-basis measurement outcomes without collapsing the state."""
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        from repro.quantum.measurement import normalize_outcome_probabilities

        generator = ensure_rng(rng)
        qubits = tuple(range(self._num_qubits)) if qubits is None else tuple(qubits)
        # ``normalize_outcome_probabilities`` is the shared clip/renormalise
        # path of every sampler; it raises instead of dividing by zero when
        # the marginal collapses to an all-zero vector.
        probs = normalize_outcome_probabilities(self.probabilities(qubits))
        outcomes = arrays.multinomial(generator, shots, probs)
        width = len(qubits)
        counts: Dict[str, int] = {}
        for index, count in enumerate(outcomes):
            if count:
                counts[format(index, f"0{width}b")] = int(count)
        return counts

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def fidelity(self, other: "DensityMatrix") -> float:
        """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2``.

        When either state is pure the fidelity reduces to ``Tr(rho sigma)``,
        which avoids the numerically delicate matrix square roots.
        """
        if other.num_qubits != self.num_qubits:
            raise SimulationError("fidelity requires states of equal width")
        if self.purity() > 1.0 - 1e-10 or other.purity() > 1.0 - 1e-10:
            value = float(np.real(arrays.trace(arrays.matmul(self._matrix, other._matrix))))
            return min(max(value, 0.0), 1.0)
        from scipy.linalg import sqrtm

        sqrt_rho = sqrtm(self._matrix)
        inner = sqrtm(sqrt_rho @ other._matrix @ sqrt_rho)
        value = float(np.real(arrays.trace(inner)) ** 2)
        return min(max(value, 0.0), 1.0)
