"""Tests for the batched density-matrix engine."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum import gates
from repro.quantum.batched_density import (
    BatchedDensityMatrix,
    channel_superoperator,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    NoiseModel,
    amplitude_damping_kraus,
    depolarizing_kraus,
    thermal_relaxation_kraus,
)
from repro.quantum.program import DensitySuperoperatorEngine, SweepProgram


def evolve_stack(circuit, batch):
    """``batch`` copies of a bound circuit evolved by the ideal density engine."""
    program = SweepProgram.compile(circuit, bind_floats=True)
    row = [circuit.instructions[pos].params[index] for pos, index in program.column_sites]
    return program.evolve(
        np.tile(np.asarray(row, dtype=float), (batch, 1)),
        DensitySuperoperatorEngine(NoiseModel.ideal()),
    )


def apply_channel(stack, kraus, qubits):
    """Apply a Kraus channel to a batched stack as one superoperator."""
    return stack.apply_superoperator(channel_superoperator(kraus), qubits)


def random_angles(batch, count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(batch, count))


class TestConstruction:
    def test_ground_state_stack(self):
        stack = BatchedDensityMatrix(3, 2)
        assert stack.batch_size == 3
        assert stack.num_qubits == 2
        np.testing.assert_allclose(stack.traces(), np.ones(3), atol=1e-12)
        np.testing.assert_allclose(stack.purities(), np.ones(3), atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(SimulationError):
            BatchedDensityMatrix(0, 1)
        with pytest.raises(SimulationError):
            BatchedDensityMatrix(1, 0)

    def test_from_matrices_round_trip(self):
        source = BatchedDensityMatrix(2, 1)
        source.apply_matrix(gates.HADAMARD, (0,))
        rebuilt = BatchedDensityMatrix.from_matrices(source.matrices)
        np.testing.assert_allclose(rebuilt.matrices, source.matrices, atol=1e-12)

    def test_from_matrices_validates_shape(self):
        with pytest.raises(SimulationError):
            BatchedDensityMatrix.from_matrices(np.zeros((2, 2)))
        with pytest.raises(SimulationError):
            BatchedDensityMatrix.from_matrices(np.zeros((2, 2, 3)))
        with pytest.raises(SimulationError):
            BatchedDensityMatrix.from_matrices(np.zeros((2, 3, 3)))

    def test_from_matrices_validates_physicality(self):
        with pytest.raises(SimulationError, match="unit trace"):
            BatchedDensityMatrix.from_matrices(np.stack([np.eye(2)] * 2))
        non_hermitian = np.array([[[0.5, 1j], [0.3, 0.5]]], dtype=complex)
        with pytest.raises(SimulationError, match="Hermitian"):
            BatchedDensityMatrix.from_matrices(non_hermitian)

    def test_from_density_matrix_data(self):
        dm = DensityMatrix(1)
        dm.apply_matrix(gates.PAULI_X, (0,))
        stack = BatchedDensityMatrix.from_matrices(np.stack([DensityMatrix(1).data, dm.data]))
        np.testing.assert_allclose(stack.probabilities(), [[1, 0], [0, 1]], atol=1e-12)

    def test_from_zero_matrices(self):
        with pytest.raises(SimulationError):
            BatchedDensityMatrix.from_matrices(np.zeros((0, 2, 2), dtype=complex))

    def test_density_matrix_extraction(self):
        stack = BatchedDensityMatrix(2, 1)
        stack.apply_matrix(gates.HADAMARD, (0,))
        element = stack.density_matrix(1)
        np.testing.assert_allclose(element.probabilities(), [0.5, 0.5], atol=1e-12)
        with pytest.raises(SimulationError):
            stack.density_matrix(2)


class TestUnitaryEvolution:
    def test_shared_matrix_matches_per_element_loop(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 2).ry(0.4, 1).cswap(0, 1, 2)
        stack = evolve_stack(qc, 4)
        single = DensityMatrix(3).evolve(qc)
        for element in range(4):
            np.testing.assert_allclose(
                stack.density_matrix(element).data, single.data, atol=1e-12
            )

    def test_per_element_matrices_match_loop(self):
        angles = random_angles(5, 1, seed=0)[:, 0]
        stack = BatchedDensityMatrix(5, 2)
        stack.apply_matrix(gates.ry_batch(angles), (1,))
        for element, theta in enumerate(angles):
            expected = DensityMatrix(2).apply_matrix(gates.ry(theta), (1,))
            np.testing.assert_allclose(
                stack.density_matrix(element).data, expected.data, atol=1e-12
            )

    def test_qubit_validation(self):
        stack = BatchedDensityMatrix(2, 2)
        with pytest.raises(SimulationError):
            stack.apply_matrix(gates.PAULI_X, (3,))
        with pytest.raises(SimulationError):
            stack.apply_matrix(gates.CNOT, (0, 0))

    def test_matrix_shape_validation(self):
        stack = BatchedDensityMatrix(2, 2)
        with pytest.raises(SimulationError):
            stack.apply_matrix(np.eye(4), (0,))
        with pytest.raises(SimulationError):
            stack.apply_matrix(np.stack([np.eye(2)] * 3), (0,))

    def test_per_element_matrix_shape_validation(self):
        matrices = np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(SimulationError, match="batched operator shape"):
            BatchedDensityMatrix(3, 1).apply_matrix(matrices, (0,))


class TestChannels:
    @pytest.mark.parametrize(
        "kraus",
        [
            depolarizing_kraus(0.3),
            amplitude_damping_kraus(0.2),
            thermal_relaxation_kraus(t1=50.0, t2=60.0, gate_time=0.1),
        ],
    )
    def test_single_qubit_channels_match_loop(self, kraus):
        stack = BatchedDensityMatrix(3, 2)
        stack.apply_matrix(gates.HADAMARD, (0,))
        apply_channel(stack, kraus, (0,))
        single = DensityMatrix(2)
        single.apply_matrix(gates.HADAMARD, (0,))
        single.apply_kraus(kraus, (0,))
        for element in range(3):
            np.testing.assert_allclose(
                stack.density_matrix(element).data, single.data, atol=1e-12
            )

    def test_two_qubit_channel_preserves_traces(self):
        stack = BatchedDensityMatrix(4, 2)
        stack.apply_matrix(gates.HADAMARD, (0,))
        apply_channel(stack, depolarizing_kraus(0.4, 2), (0, 1))
        np.testing.assert_allclose(stack.traces(), np.ones(4), atol=1e-12)
        assert np.all(stack.purities() < 1.0)

    def test_full_depolarization_gives_maximally_mixed(self):
        stack = BatchedDensityMatrix(2, 1)
        apply_channel(stack, depolarizing_kraus(1.0), (0,))
        np.testing.assert_allclose(
            stack.matrices, np.stack([np.eye(2) / 2] * 2), atol=1e-12
        )

    def test_per_element_kraus_stack(self):
        """A (batch, 2, 2) Kraus operator applies element-wise."""
        gammas = np.array([0.0, 1.0])
        k0 = np.stack([np.diag([1.0, np.sqrt(1 - g)]) for g in gammas]).astype(complex)
        k1 = np.stack(
            [np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]) for g in gammas]
        ).astype(complex)
        stack = BatchedDensityMatrix(2, 1)
        stack.apply_matrix(gates.PAULI_X, (0,))
        apply_channel(stack, [k0, k1], (0,))
        # gamma=0 leaves |1>, gamma=1 decays to |0>.
        np.testing.assert_allclose(stack.probabilities(), [[0, 1], [1, 0]], atol=1e-12)

    def test_empty_channel_rejected(self):
        with pytest.raises(SimulationError, match="at least one Kraus operator"):
            channel_superoperator([])


class TestProbabilities:
    def test_marginalisation_matches_density_matrix(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ry(0.9, 2)
        stack = evolve_stack(qc, 2)
        single = DensityMatrix(3).evolve(qc)
        for qubits in [(0,), (2, 0), (1, 2)]:
            np.testing.assert_allclose(
                stack.probabilities(qubits),
                np.stack([single.probabilities(qubits)] * 2),
                atol=1e-12,
            )

    def test_zero_diagonal_raises(self):
        stack = BatchedDensityMatrix(2, 1)
        stack._matrices = np.zeros_like(stack._matrices)
        with pytest.raises(SimulationError):
            stack.probabilities()

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(SimulationError):
            BatchedDensityMatrix(1, 2).probabilities((0, 0))
