"""Tests for the batched statevector engine and batched gate builders."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum import gates
from repro.quantum.batched import BatchedStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import StatevectorEngine, SweepProgram
from repro.quantum.statevector import Statevector


BATCH = 5
QUBITS = 3


def random_angles(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, count)


class TestBatchedGateBuilders:
    @pytest.mark.parametrize(
        "name,num_params",
        [
            ("rx", 1),
            ("ry", 1),
            ("rz", 1),
            ("r", 2),
            ("u3", 3),
            ("rxx", 1),
            ("ryy", 1),
            ("rzz", 1),
            ("crx", 1),
            ("cry", 1),
            ("crz", 1),
        ],
    )
    def test_batch_matches_scalar_factory(self, name, num_params):
        rng = np.random.default_rng(7)
        params = [rng.uniform(-np.pi, np.pi, BATCH) for _ in range(num_params)]
        stacked = gates.gate_matrix_batch(name, *params)
        assert stacked.shape[0] == BATCH
        for element in range(BATCH):
            scalar = gates.gate_matrix(name, *(p[element] for p in params))
            np.testing.assert_allclose(stacked[element], scalar, atol=1e-14)

    def test_scalars_broadcast(self):
        stacked = gates.gate_matrix_batch("r", np.array([0.1, 0.2, 0.3]), 0.5)
        assert stacked.shape == (3, 2, 2)
        np.testing.assert_allclose(stacked[1], gates.r_gate(0.2, 0.5), atol=1e-14)

    def test_parameter_free_gate_rejected(self):
        with pytest.raises(ValueError):
            gates.gate_matrix_batch("h")

    def test_unknown_gate_rejected(self):
        with pytest.raises(KeyError):
            gates.gate_matrix_batch("nope", np.zeros(2))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            gates.gate_matrix_batch("ry", np.zeros(2), np.zeros(2))

    def test_batched_matrices_are_unitary(self):
        for matrix in gates.gate_matrix_batch("cry", random_angles(BATCH)):
            assert gates.is_unitary(matrix)

    def test_scalar_only_gate_falls_back_to_stacking(self, monkeypatch):
        monkeypatch.delitem(gates._GATE_BATCH_FACTORIES, "ry")
        stacked = gates.gate_matrix_batch("ry", np.array([0.1, 0.2]))
        assert stacked.shape == (2, 2, 2)
        np.testing.assert_allclose(stacked[1], gates.ry(0.2), atol=1e-14)


class TestBatchedStatevectorBasics:
    def test_initial_state(self):
        state = BatchedStatevector(BATCH, QUBITS)
        amplitudes = state.amplitudes
        assert amplitudes.shape == (BATCH, 2**QUBITS)
        np.testing.assert_allclose(amplitudes[:, 0], 1.0)
        np.testing.assert_allclose(state.norms(), np.ones(BATCH), atol=1e-12)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            BatchedStatevector(0, 2)
        with pytest.raises(SimulationError):
            BatchedStatevector(3, 0)

    def test_from_amplitudes_validates_shape(self):
        with pytest.raises(SimulationError):
            BatchedStatevector.from_amplitudes(np.ones(4, dtype=complex))
        with pytest.raises(SimulationError):
            BatchedStatevector.from_amplitudes(np.ones((2, 3), dtype=complex))

    def test_from_amplitudes_rejects_non_finite_rows(self):
        raw = np.eye(4, dtype=complex)[:3]
        raw[1, 2] = np.nan
        with pytest.raises(SimulationError, match=r"row 1 .*norm=nan"):
            BatchedStatevector.from_amplitudes(raw)
        raw[1, 2] = np.inf
        with pytest.raises(SimulationError, match=r"row 1 .*norm=inf"):
            BatchedStatevector.from_amplitudes(raw)

    def test_from_amplitudes_rejects_non_unit_norm_rows(self):
        raw = np.eye(4, dtype=complex)[:3]
        raw[2] *= 1.5
        with pytest.raises(SimulationError, match=r"row 2 .*norm=1\.5"):
            BatchedStatevector.from_amplitudes(raw)
        raw[2] = np.eye(4)[2] * (1 + 1e-12)
        BatchedStatevector.from_amplitudes(raw)

    def test_from_amplitudes_round_trip(self):
        singles = [Statevector(np.eye(4)[i], normalize=True) for i in range(3)]
        batch = BatchedStatevector.from_amplitudes(np.stack([s.data for s in singles]))
        for index, single in enumerate(singles):
            assert batch.statevector(index).fidelity(single) == pytest.approx(1.0)

    def test_statevector_index_bounds(self):
        state = BatchedStatevector(2, 1)
        with pytest.raises(SimulationError):
            state.statevector(2)


class TestBatchedApplyMatrix:
    def test_shared_matrix_matches_per_sample_evolution(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(BATCH, 2**QUBITS)) + 1j * rng.normal(size=(BATCH, 2**QUBITS))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        batch = BatchedStatevector.from_amplitudes(raw)
        batch.apply_matrix(gates.HADAMARD, (1,))
        batch.apply_matrix(gates.CNOT, (0, 2))
        for element in range(BATCH):
            single = Statevector(raw[element])
            single.apply_matrix(gates.HADAMARD, (1,))
            single.apply_matrix(gates.CNOT, (0, 2))
            np.testing.assert_allclose(
                batch.amplitudes[element], single.data, atol=1e-12
            )

    def test_per_element_matrices_match_loop(self):
        thetas = random_angles(BATCH, seed=11)
        batch = BatchedStatevector(BATCH, QUBITS)
        batch.apply_matrix(gates.ry_batch(thetas), (0,))
        batch.apply_matrix(gates.cry_batch(-thetas), (0, 2))
        for element in range(BATCH):
            single = Statevector(QUBITS)
            single.apply_matrix(gates.ry(thetas[element]), (0,))
            single.apply_matrix(gates.cry(-thetas[element]), (0, 2))
            np.testing.assert_allclose(
                batch.amplitudes[element], single.data, atol=1e-12
            )

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(SimulationError):
            BatchedStatevector(2, 2).apply_matrix(gates.CNOT, (0, 0))

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(SimulationError):
            BatchedStatevector(2, 2).apply_matrix(gates.HADAMARD, (2,))

    def test_batch_size_mismatch_rejected(self):
        matrices = gates.ry_batch(random_angles(3))
        with pytest.raises(SimulationError):
            BatchedStatevector(2, 2).apply_matrix(matrices, (0,))

    def test_shared_matrix_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            BatchedStatevector(2, 2).apply_matrix(gates.HADAMARD, (0, 1))


class TestBatchedEvolveAndProgram:
    def test_evolve_matches_per_sample_statevector(self):
        circuit = QuantumCircuit(QUBITS)
        circuit.h(0).ry(0.4, 1).cx(0, 2).rz(-0.7, 2).cry(1.1, 1, 2)
        program = SweepProgram.compile(circuit, bind_floats=True)
        row = np.array([0.4, -0.7, 1.1])
        batch = program.evolve(np.tile(row, (BATCH, 1)), StatevectorEngine())
        single = Statevector(QUBITS).evolve(circuit)
        for element in range(BATCH):
            np.testing.assert_allclose(batch.amplitudes[element], single.data, atol=1e-12)

    def test_apply_program_mixed_slots(self):
        """A compiled program mixes fixed, constant-angle and per-element steps."""
        a, b = Parameter("a"), Parameter("b")
        circuit = QuantumCircuit(2)
        circuit.h(0).ry(a, 0).rz(0.3, 1).cry(b, 0, 1)
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=[a, b])
        matrix = np.random.default_rng(5).uniform(-np.pi, np.pi, (BATCH, 2))
        batch = program.evolve(matrix, StatevectorEngine())
        assert isinstance(batch, BatchedStatevector)
        for element in range(BATCH):
            single = Statevector(2)
            single.apply_matrix(gates.HADAMARD, (0,))
            single.apply_matrix(gates.ry(matrix[element, 0]), (0,))
            single.apply_matrix(gates.rz(0.3), (1,))
            single.apply_matrix(gates.cry(matrix[element, 1]), (0, 1))
            np.testing.assert_allclose(batch.amplitudes[element], single.data, atol=1e-12)

    def test_apply_program_validates_parameter_matrix(self):
        t = Parameter("t")
        circuit = QuantumCircuit(1)
        circuit.ry(t, 0)
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=[t])
        with pytest.raises(SimulationError, match="must be 2-D"):
            program.evolve(np.zeros(3), StatevectorEngine())
        with pytest.raises(SimulationError, match="expected 1 binding column"):
            program.evolve(np.zeros((3, 2)), StatevectorEngine())


class TestBatchedProbabilitiesAndFidelities:
    def make_batch(self):
        thetas = random_angles(BATCH, seed=23)
        batch = BatchedStatevector(BATCH, QUBITS)
        batch.apply_matrix(gates.ry_batch(thetas), (0,))
        batch.apply_matrix(gates.HADAMARD, (2,))
        batch.apply_matrix(gates.cry_batch(2 * thetas), (0, 1))
        return batch

    def test_probabilities_match_per_sample(self):
        batch = self.make_batch()
        for qubits in (None, [0], [2, 0], [1, 2]):
            stacked = batch.probabilities(qubits)
            for element in range(BATCH):
                expected = batch.statevector(element).probabilities(qubits)
                np.testing.assert_allclose(stacked[element], expected, atol=1e-12)

    def test_duplicate_marginal_qubits_rejected(self):
        with pytest.raises(SimulationError):
            self.make_batch().probabilities([0, 0])

    def test_fidelities_match_per_sample(self):
        batch = self.make_batch()
        rng = np.random.default_rng(29)
        kets = rng.normal(size=(4, 2**QUBITS)) + 1j * rng.normal(size=(4, 2**QUBITS))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        matrix = batch.fidelities(kets)
        assert matrix.shape == (BATCH, 4)
        for element in range(BATCH):
            single = batch.statevector(element)
            for sample in range(4):
                expected = single.fidelity(Statevector(kets[sample]))
                assert matrix[element, sample] == pytest.approx(expected, abs=1e-12)

    def test_single_ket_inner(self):
        batch = self.make_batch()
        ket = np.zeros(2**QUBITS, dtype=complex)
        ket[0] = 1.0
        overlaps = batch.inner(ket)
        assert overlaps.shape == (BATCH,)
        for element in range(BATCH):
            assert overlaps[element] == pytest.approx(
                np.conj(batch.statevector(element).data[0]), abs=1e-12
            )

    def test_inner_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            self.make_batch().inner(np.ones(3, dtype=complex))
