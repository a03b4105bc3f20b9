"""Tests for the statevector and density-matrix simulators."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, ReadoutError
from repro.quantum.operations import Parameter
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator


def bell_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1).measure_all()
    return qc


class TestStatevectorSimulator:
    def test_exact_probabilities(self):
        result = StatevectorSimulator(seed=0).run(bell_circuit())
        assert result.probabilities["00"] == pytest.approx(0.5)
        assert result.probabilities["11"] == pytest.approx(0.5)
        assert result.counts is None

    def test_sampled_counts(self):
        result = StatevectorSimulator(seed=0).run(bell_circuit(), shots=2000)
        assert result.counts.shots == 2000
        assert set(result.counts.data) <= {"00", "11"}

    def test_sampling_is_seed_reproducible(self):
        a = StatevectorSimulator(seed=5).run(bell_circuit(), shots=500).counts.data
        b = StatevectorSimulator(seed=5).run(bell_circuit(), shots=500).counts.data
        assert a == b

    def test_unbound_parameters_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.ry(Parameter("t"), 0).measure(0, 0)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run(qc)

    def test_shots_without_measurement_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run(qc, shots=10)

    def test_no_measurement_returns_statevector(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        result = StatevectorSimulator().run(qc)
        assert result.statevector is not None
        assert result.probabilities == {}

    def test_partial_measurement_maps_to_clbits(self):
        qc = QuantumCircuit(2, 2)
        qc.x(1)
        qc.measure(1, 0)  # measure qubit 1 into clbit 0
        result = StatevectorSimulator().run(qc)
        # Clbit 0 reads 1, clbit 1 untouched (0): string "10".
        assert result.probabilities["10"] == pytest.approx(1.0)

    def test_marginal_probability_helper(self):
        result = StatevectorSimulator(seed=0).run(bell_circuit())
        assert result.marginal_probability(0, 1) == pytest.approx(0.5)

    @pytest.mark.parametrize("simulator_cls", [StatevectorSimulator, DensityMatrixSimulator])
    def test_run_compiles_once_per_structure(self, simulator_cls):
        """Every float angle is a bind column: angle variants share one program."""
        simulator = simulator_cls(seed=0)
        for angle in (0.1, 0.7, 1.3):
            qc = QuantumCircuit(1, 1)
            qc.ry(angle, 0).measure(0, 0)
            result = simulator.run(qc, shots=None)
            assert result.probabilities["1"] == pytest.approx(np.sin(angle / 2) ** 2)
        assert simulator.program_cache_stats == {"hits": 2, "misses": 1, "entries": 1}

    @pytest.mark.parametrize("simulator_cls", [StatevectorSimulator, DensityMatrixSimulator])
    def test_reset_rejected(self, simulator_cls):
        qc = QuantumCircuit(1, 1)
        qc.x(0).reset(0).measure(0, 0)
        with pytest.raises(SimulationError, match="cannot compile resets"):
            simulator_cls(seed=0).run(qc, shots=None)

    def test_statevector_helper_strips_measurements(self):
        sv = StatevectorSimulator().statevector(bell_circuit())
        assert sv.num_qubits == 2
        np.testing.assert_allclose(sv.probabilities(), [0.5, 0, 0, 0.5], atol=1e-12)


class TestDensityMatrixSimulator:
    def test_ideal_matches_statevector(self):
        noiseless = DensityMatrixSimulator(seed=0).run(bell_circuit(), shots=None)
        exact = StatevectorSimulator().run(bell_circuit())
        for key, value in exact.probabilities.items():
            assert noiseless.probabilities[key] == pytest.approx(value, abs=1e-10)

    def test_noise_produces_error_outcomes(self):
        noise = NoiseModel.from_error_rates(0.01, 0.05)
        result = DensityMatrixSimulator(noise, seed=0).run(bell_circuit(), shots=None)
        # Depolarising noise leaks probability into the odd-parity outcomes.
        assert result.probabilities.get("01", 0.0) > 0.0
        assert result.probabilities.get("10", 0.0) > 0.0

    def test_readout_error_flips_deterministic_outcome(self):
        noise = NoiseModel()
        noise.add_readout_error(ReadoutError(0.1, 0.1))
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        result = DensityMatrixSimulator(noise, seed=0).run(qc, shots=None)
        assert result.probabilities["1"] == pytest.approx(0.1)

    def test_probabilities_remain_normalised_under_noise(self):
        noise = NoiseModel.from_error_rates(0.02, 0.08, readout_error=0.05)
        result = DensityMatrixSimulator(noise, seed=0).run(bell_circuit(), shots=None)
        assert sum(result.probabilities.values()) == pytest.approx(1.0)

    def test_unbound_parameters_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.ry(Parameter("t"), 0).measure(0, 0)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator().run(qc)

    def test_metadata_reports_noise_flag(self):
        noisy = DensityMatrixSimulator(NoiseModel.from_error_rates(0.01, 0.02))
        assert noisy.run(bell_circuit(), shots=16).metadata["noisy"] is True
        ideal = DensityMatrixSimulator()
        assert ideal.run(bell_circuit(), shots=16).metadata["noisy"] is False


class TestDeferredMeasurementGuards:
    """Regression tests: deferred measurement must reject what it cannot model."""

    def test_gate_after_measurement_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        qc.x(0)
        with pytest.raises(SimulationError, match="already-measured"):
            StatevectorSimulator().run(qc)

    def test_gate_on_other_qubit_after_measurement_allowed(self):
        qc = QuantumCircuit(2, 1)
        qc.h(0).measure(0, 0)
        qc.x(1)
        result = StatevectorSimulator().run(qc)
        assert result.probabilities["0"] == pytest.approx(0.5)

    def test_double_measurement_rejected(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0).measure(0, 0)
        qc.measure(0, 1)
        with pytest.raises(SimulationError, match="measured more than"):
            StatevectorSimulator().run(qc)

    def test_reset_after_measurement_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        qc.reset(0)
        with pytest.raises(SimulationError, match="already-measured"):
            StatevectorSimulator().run(qc)

    def test_density_matrix_gate_after_measurement_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        qc.x(0)
        with pytest.raises(SimulationError, match="already-measured"):
            DensityMatrixSimulator().run(qc, shots=None)

    def test_density_matrix_double_measurement_rejected(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0).measure(0, 0)
        qc.measure(0, 1)
        with pytest.raises(SimulationError, match="measured more than"):
            DensityMatrixSimulator().run(qc, shots=None)
