"""Pure-state simulation.

:class:`Statevector` stores the ``2**n`` complex amplitudes of an ``n``-qubit
register and applies gates by tensor contraction, which keeps the hot loop in
vectorised NumPy (no Python loop over amplitudes).  Seventeen qubits — the
widest circuit in the paper — is a 131,072-amplitude vector, comfortably
within NumPy's reach.

Bit-ordering convention
-----------------------
Qubit ``0`` is the *most significant* bit of the computational-basis index:
for two qubits, index ``2`` (binary ``10``) means qubit 0 is ``1`` and qubit 1
is ``0``.  Reshaping the flat vector to ``(2,) * n`` therefore maps axis ``q``
directly to qubit ``q``.  The batched engine in :mod:`repro.quantum.batched`
uses the same per-state layout with a leading batch axis (``(batch, 2**n)``);
the two evolve identically gate-for-gate, which the batched/loop equivalence
tests pin down to 1e-12.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum.operations import Instruction
from repro.utils.rng import RandomState, ensure_rng


def check_qubits(qubits: Sequence[int], num_qubits: int) -> Tuple[int, ...]:
    """``qubits`` as distinct in-range indices, or :class:`SimulationError`.

    The one qubit-argument check of every state class, single and batched:
    a duplicated qubit would collapse two tensor axes onto one (a wrong
    shape or a silently wrong contraction), and an out-of-range index would
    surface as a bare ``IndexError`` or wrap around.
    """
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise SimulationError(f"duplicate qubit indices in {qubits}")
    for q in qubits:
        if q < 0 or q >= num_qubits:
            raise SimulationError(
                f"qubit index {q} out of range for {num_qubits} qubits"
            )
    return qubits


def marginal_probabilities(
    probs: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Marginalise ``(batch, 2**n)`` probabilities onto ``qubits`` in order.

    Shared by every state class, single and batched, so the validation and
    axis bookkeeping (distinct qubits, range check, caller-order permutation)
    have a single implementation.  Returns shape ``(batch, 2**len(qubits))``.
    """
    qubits = check_qubits(qubits, num_qubits)
    batch = probs.shape[0]
    tensor = probs.reshape((batch,) + (2,) * num_qubits)
    keep = set(qubits)
    other_axes = tuple(ax + 1 for ax in range(num_qubits) if ax not in keep)
    marginal = tensor.sum(axis=other_axes) if other_axes else tensor
    # ``marginal`` axis 1 + i corresponds to sorted(qubits)[i]; permute the
    # axes into the caller's requested qubit order.
    if len(qubits) > 1:
        sorted_qubits = sorted(qubits)
        perm = [0] + [1 + sorted_qubits.index(q) for q in qubits]
        marginal = np.transpose(marginal, axes=perm)
    return np.ascontiguousarray(marginal).reshape(batch, -1)


class Statevector:
    """State of an ``n``-qubit register as a complex amplitude vector.

    Parameters
    ----------
    data:
        Either an integer qubit count (initialises ``|0...0>``) or an
        amplitude array of length ``2**n``.
    normalize:
        When passing raw amplitudes, renormalise them (default: validate that
        they are already normalised).
    """

    def __init__(self, data, normalize: bool = False) -> None:
        if isinstance(data, (int, np.integer)):
            num_qubits = int(data)
            if num_qubits <= 0:
                raise SimulationError(f"need at least one qubit, got {num_qubits}")
            amplitudes = arrays.zeros(2**num_qubits)
            amplitudes[0] = 1.0
        else:
            amplitudes = arrays.as_complex(data).ravel().copy()
            size = amplitudes.shape[0]
            num_qubits = int(round(math.log2(size))) if size else 0
            if size == 0 or 2**num_qubits != size:
                raise SimulationError(f"amplitude vector length {size} is not a power of two")
            norm = arrays.norm(amplitudes)
            if norm == 0:
                raise SimulationError("amplitude vector must not be zero")
            if normalize:
                amplitudes = amplitudes / norm
            elif not math.isclose(norm, 1.0, abs_tol=arrays.state_atol()):
                raise SimulationError(
                    f"amplitude vector is not normalised (norm={norm:.6f}); "
                    "pass normalize=True to renormalise"
                )
        self._num_qubits = num_qubits
        self._amplitudes = amplitudes

    # ------------------------------------------------------------------ #
    # Constructors and accessors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational-basis state from a bit-string label.

        ``Statevector.from_label("10")`` prepares qubit 0 in ``|1>`` and qubit
        1 in ``|0>``.
        """
        if not label or any(ch not in "01" for ch in label):
            raise SimulationError(f"label must be a non-empty bit string, got {label!r}")
        index = int(label, 2)
        amplitudes = arrays.zeros(2 ** len(label))
        amplitudes[index] = 1.0
        return cls(amplitudes)

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def data(self) -> np.ndarray:
        """Amplitude vector (a copy, to preserve immutability from outside)."""
        return self._amplitudes.copy()

    def copy(self) -> "Statevector":
        """Deep copy."""
        return Statevector(self._amplitudes.copy())

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector (1.0 for a valid state)."""
        return float(arrays.norm(self._amplitudes))

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Measurement probabilities, optionally marginalised onto ``qubits``.

        The returned vector is indexed with the same most-significant-first
        convention as the full state.
        """
        probs = np.abs(self._amplitudes) ** 2
        if qubits is None:
            return probs
        return marginal_probabilities(probs[None, :], qubits, self._num_qubits)[0]

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of the Pauli-Z operator on ``qubit``."""
        probs = self.probabilities([qubit])
        return float(probs[0] - probs[1])

    # ------------------------------------------------------------------ #
    # Evolution
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "Statevector":
        """Apply a ``2**k x 2**k`` matrix to qubits ``qubits`` in place.

        Returns ``self`` to allow chaining.
        """
        qubits = check_qubits(qubits, self._num_qubits)
        k = len(qubits)
        matrix = arrays.as_complex(matrix)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {k} qubit(s)"
            )
        n = self._num_qubits
        tensor = self._amplitudes.reshape((2,) * n)
        gate_tensor = matrix.reshape((2,) * (2 * k))
        # Contract the gate's input axes (the last k axes of gate_tensor) with
        # the state's target-qubit axes.
        moved = arrays.tensordot(
            gate_tensor, tensor, axes=(tuple(range(k, 2 * k)), qubits)
        )
        # tensordot puts the gate's output axes first; move them back to the
        # target-qubit positions.
        moved = np.moveaxis(moved, tuple(range(k)), qubits)
        self._amplitudes = np.ascontiguousarray(moved).reshape(-1)
        return self

    def apply_instruction(self, instruction: Instruction) -> "Statevector":
        """Apply a bound gate instruction."""
        if instruction.name == "barrier":
            return self
        if not instruction.is_gate:
            raise SimulationError(
                f"Statevector cannot apply non-unitary instruction '{instruction.name}'; "
                "use StatevectorSimulator for measurement/reset handling"
            )
        return self.apply_matrix(instruction.matrix(), instruction.qubits)

    def evolve(self, circuit) -> "Statevector":
        """Apply every gate of a (measurement-free) circuit."""
        for instruction in circuit.instructions:
            if instruction.is_measurement or instruction.name == "reset":
                raise SimulationError(
                    "Statevector.evolve only supports unitary circuits; "
                    "use StatevectorSimulator.run for circuits with measurements"
                )
            self.apply_instruction(instruction)
        return self

    # ------------------------------------------------------------------ #
    # Measurement and collapse
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int, rng: RandomState = None) -> Tuple[int, "Statevector"]:
        """Projectively measure ``qubit`` in the Z basis.

        Returns the outcome (0 or 1) and collapses the state in place.
        """
        generator = ensure_rng(rng)
        probs = self.probabilities([qubit])
        outcome = int(generator.random() < probs[1])
        self.collapse(qubit, outcome)
        return outcome, self

    def collapse(self, qubit: int, outcome: int) -> "Statevector":
        """Project onto ``qubit == outcome`` and renormalise."""
        if outcome not in (0, 1):
            raise SimulationError(f"measurement outcome must be 0 or 1, got {outcome}")
        n = self._num_qubits
        tensor = self._amplitudes.reshape((2,) * n)
        index = [slice(None)] * n
        index[qubit] = 1 - outcome
        tensor = tensor.copy()
        tensor[tuple(index)] = 0.0
        flat = tensor.reshape(-1)
        norm = arrays.norm(flat)
        if norm == 0:
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto outcome {outcome}: probability is zero"
            )
        self._amplitudes = flat / norm
        return self

    def reset(self, qubit: int, rng: RandomState = None) -> "Statevector":
        """Reset ``qubit`` to ``|0>`` (measure, then flip if needed)."""
        outcome, _ = self.measure(qubit, rng=rng)
        if outcome == 1:
            from repro.quantum import gates

            self.apply_matrix(gates.PAULI_X, (qubit,))
        return self

    def sample_counts(
        self,
        shots: int,
        qubits: Optional[Sequence[int]] = None,
        rng: RandomState = None,
    ) -> Dict[str, int]:
        """Sample measurement outcomes without collapsing the state.

        Returns a histogram mapping bit-strings (most significant qubit first)
        to counts.
        """
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        generator = ensure_rng(rng)
        qubits = tuple(range(self._num_qubits)) if qubits is None else tuple(qubits)
        probs = self.probabilities(qubits)
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
    def inner(self, other: "Statevector") -> complex:
        """Inner product ``<self|other>``."""
        if other.num_qubits != self.num_qubits:
            raise SimulationError(
                f"cannot take inner product of {self.num_qubits}- and "
                f"{other.num_qubits}-qubit states"
            )
        return complex(arrays.vdot(self._amplitudes, other._amplitudes))

    def fidelity(self, other: "Statevector") -> float:
        """State fidelity ``|<self|other>|**2``."""
        return float(abs(self.inner(other)) ** 2)

    def tensor(self, other: "Statevector") -> "Statevector":
        """Tensor product ``self ⊗ other`` (self's qubits come first)."""
        return Statevector(arrays.kron(self._amplitudes, other._amplitudes))

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """Whether two states are equal up to a global phase."""
        if other.num_qubits != self.num_qubits:
            return False
        overlap = abs(self.inner(other))
        return bool(math.isclose(overlap, 1.0, abs_tol=atol))
