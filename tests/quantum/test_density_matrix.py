"""Tests for the density-matrix engine."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum import gates
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import depolarizing_kraus
from repro.quantum.statevector import Statevector


class TestConstruction:
    def test_ground_state(self):
        dm = DensityMatrix(2)
        assert dm.trace() == pytest.approx(1.0)
        assert dm.purity() == pytest.approx(1.0)

    def test_from_statevector(self):
        sv = Statevector(1)
        sv.apply_matrix(gates.HADAMARD, (0,))
        dm = DensityMatrix(sv)
        np.testing.assert_allclose(dm.probabilities(), [0.5, 0.5], atol=1e-12)

    def test_from_matrix_validates_trace(self):
        with pytest.raises(SimulationError):
            DensityMatrix(np.eye(2))

    def test_from_matrix_validates_shape(self):
        with pytest.raises(SimulationError):
            DensityMatrix(np.zeros((2, 3)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SimulationError):
            DensityMatrix(np.eye(3) / 3)

    def test_rejects_non_hermitian_matrix(self):
        """Unit trace alone is not physical: non-Hermitian input must fail."""
        matrix = np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)
        with pytest.raises(SimulationError, match="Hermitian"):
            DensityMatrix(matrix)

    def test_accepts_hermitian_within_tolerance(self):
        matrix = np.array([[0.5, 0.25 + 1e-12j], [0.25, 0.5]], dtype=complex)
        DensityMatrix(matrix)  # must not raise


class TestUnitaryEvolution:
    def test_matches_statevector_on_bell_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        dm = DensityMatrix(2).evolve(qc)
        sv = Statevector(2).evolve(qc)
        np.testing.assert_allclose(dm.probabilities(), sv.probabilities(), atol=1e-12)
        assert dm.purity() == pytest.approx(1.0)

    def test_expectation_z(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.PAULI_X, (0,))
        assert dm.expectation_z(0) == pytest.approx(-1.0)

    def test_out_of_range_qubit(self):
        with pytest.raises(SimulationError):
            DensityMatrix(1).apply_matrix(gates.PAULI_X, (2,))

    def test_evolve_rejects_measurement(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(SimulationError):
            DensityMatrix(1).evolve(qc)

    def test_qubit_ordering_matches_statevector(self):
        qc = QuantumCircuit(3)
        qc.ry(0.7, 0).cx(0, 2).rz(0.3, 2).cswap(0, 1, 2)
        dm = DensityMatrix(3).evolve(qc)
        sv = Statevector(3).evolve(qc)
        np.testing.assert_allclose(dm.probabilities(), sv.probabilities(), atol=1e-10)


class TestChannels:
    def test_depolarizing_reduces_purity(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.HADAMARD, (0,))
        dm.apply_kraus(depolarizing_kraus(0.5), (0,))
        assert dm.purity() < 1.0
        assert dm.trace() == pytest.approx(1.0)

    def test_full_depolarization_gives_maximally_mixed(self):
        dm = DensityMatrix(1)
        dm.apply_kraus(depolarizing_kraus(1.0), (0,))
        np.testing.assert_allclose(dm.data, np.eye(2) / 2, atol=1e-12)

    def test_channel_preserves_trace(self):
        dm = DensityMatrix(2)
        dm.apply_matrix(gates.HADAMARD, (0,))
        dm.apply_kraus(depolarizing_kraus(0.3, 2), (0, 1))
        assert dm.trace() == pytest.approx(1.0)


class TestPartialTrace:
    def test_product_state_reduces_cleanly(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        dm = DensityMatrix(2).evolve(qc)
        reduced = dm.partial_trace([0])
        np.testing.assert_allclose(reduced.data, [[0, 0], [0, 1]], atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        dm = DensityMatrix(2).evolve(qc)
        reduced = dm.partial_trace([0])
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2, atol=1e-12)
        assert reduced.purity() == pytest.approx(0.5)

    def test_keep_order_is_respected(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        dm = DensityMatrix(2).evolve(qc)
        # Keeping (1, 0) puts the excited qubit first: state |10>.
        reordered = dm.partial_trace([1, 0])
        assert reordered.probabilities()[2] == pytest.approx(1.0)

    def test_invalid_keep_raises(self):
        with pytest.raises(SimulationError):
            DensityMatrix(2).partial_trace([0, 0])

    def test_trace_preserved(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ry(0.4, 2)
        dm = DensityMatrix(3).evolve(qc)
        assert dm.partial_trace([2]).trace() == pytest.approx(1.0)


class TestMeasurement:
    def test_collapse(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.HADAMARD, (0,))
        dm.collapse(0, 1)
        assert dm.probabilities()[1] == pytest.approx(1.0)

    def test_collapse_impossible_outcome(self):
        with pytest.raises(SimulationError):
            DensityMatrix(1).collapse(0, 1)

    def test_measure_probability(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.ry(np.pi / 2), (0,))
        assert dm.measure_probability(0, 1) == pytest.approx(0.5)

    def test_reset(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.PAULI_X, (0,))
        dm.reset(0, rng=0)
        assert dm.probabilities()[0] == pytest.approx(1.0)

    def test_sample_counts(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.HADAMARD, (0,))
        counts = dm.sample_counts(500, rng=1)
        assert sum(counts.values()) == 500


class TestZeroDiagonalGuard:
    """An all-zero diagonal must raise instead of yielding NaN probabilities."""

    @staticmethod
    def _zeroed() -> DensityMatrix:
        dm = DensityMatrix(1)
        dm._matrix = np.zeros_like(dm._matrix)
        return dm

    def test_probabilities_raise(self):
        with pytest.raises(SimulationError):
            self._zeroed().probabilities()

    def test_marginal_probabilities_raise(self):
        with pytest.raises(SimulationError):
            self._zeroed().probabilities([0])

    def test_sample_counts_raise(self):
        with pytest.raises(SimulationError):
            self._zeroed().sample_counts(100, rng=0)

    def test_non_finite_diagonal_raises(self):
        dm = DensityMatrix(1)
        dm._matrix = np.full_like(dm._matrix, np.nan)
        with pytest.raises(SimulationError):
            dm.probabilities()


class TestFidelity:
    def test_identical_pure_states(self):
        dm = DensityMatrix(1)
        assert dm.fidelity(dm.copy()) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(1)
        b = DensityMatrix(1)
        b.apply_matrix(gates.PAULI_X, (0,))
        assert a.fidelity(b) == pytest.approx(0.0, abs=1e-8)

    def test_matches_statevector_fidelity(self):
        sv_a = Statevector(1)
        sv_b = Statevector(1)
        sv_b.apply_matrix(gates.ry(0.9), (0,))
        assert DensityMatrix(sv_a).fidelity(DensityMatrix(sv_b)) == pytest.approx(
            sv_a.fidelity(sv_b), abs=1e-6
        )

    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            DensityMatrix(1).fidelity(DensityMatrix(2))


#: Bad qubit, operator and channel arguments to the per-state classes.
FAIL_CLOSED_CASES = {
    "dm_marginal_out_of_range": (
        lambda: DensityMatrix(2).probabilities([5]),
        "qubit index 5 out of range for 2 qubits",
    ),
    "dm_marginal_negative": (
        lambda: DensityMatrix(2).probabilities([-1]),
        "qubit index -1 out of range for 2 qubits",
    ),
    "dm_marginal_duplicate": (
        lambda: DensityMatrix(2).probabilities([0, 0]),
        r"duplicate qubit indices in \(0, 0\)",
    ),
    "dm_empty_channel": (
        lambda: DensityMatrix(1).apply_kraus([], (0,)),
        "a channel needs at least one Kraus operator",
    ),
    "dm_matrix_out_of_range": (
        lambda: DensityMatrix(2).apply_matrix(gates.HADAMARD, (2,)),
        "qubit index 2 out of range for 2 qubits",
    ),
    "dm_matrix_duplicate": (
        lambda: DensityMatrix(2).apply_matrix(gates.CNOT, (1, 1)),
        r"duplicate qubit indices in \(1, 1\)",
    ),
    "dm_matrix_shape": (
        lambda: DensityMatrix(2).apply_matrix(np.eye(4), (0,)),
        r"operator shape \(4, 4\) does not match 1 qubit\(s\)",
    ),
    "dm_kraus_out_of_range": (
        lambda: DensityMatrix(2).apply_kraus(depolarizing_kraus(0.1), (3,)),
        "qubit index 3 out of range for 2 qubits",
    ),
    "dm_kraus_duplicate": (
        lambda: DensityMatrix(2).apply_kraus(depolarizing_kraus(0.1, 2), (0, 0)),
        r"duplicate qubit indices in \(0, 0\)",
    ),
    "dm_kraus_shape": (
        lambda: DensityMatrix(2).apply_kraus(depolarizing_kraus(0.1, 2), (0,)),
        r"operator shape \(4, 4\) does not match 1 qubit\(s\)",
    ),
    "sv_matrix_out_of_range": (
        lambda: Statevector(2).apply_matrix(gates.HADAMARD, (2,)),
        "qubit index 2 out of range for 2 qubits",
    ),
    "sv_matrix_negative": (
        lambda: Statevector(2).apply_matrix(gates.HADAMARD, (-1,)),
        "qubit index -1 out of range for 2 qubits",
    ),
    "sv_matrix_duplicate": (
        lambda: Statevector(2).apply_matrix(gates.CNOT, (0, 0)),
        r"duplicate qubit indices in \(0, 0\)",
    ),
}


@pytest.mark.parametrize("case", sorted(FAIL_CLOSED_CASES))
def test_per_state_classes_fail_closed(case):
    call, message = FAIL_CLOSED_CASES[case]
    with pytest.raises(SimulationError, match=message):
        call()
