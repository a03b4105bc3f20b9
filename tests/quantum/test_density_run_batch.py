"""The density-matrix simulator's compiled sweep route against per-circuit ``run``.

The noisy counterpart of ``test_run_batch.py``: a structure-sharing sweep
executes through ``run_sweep_program`` as
:class:`~repro.quantum.batched_density.BatchedDensityMatrix` tiles with every
gate's noise precomposed into one superoperator.  Per-circuit
:meth:`DensityMatrixSimulator.run`, which applies each gate and then its
Kraus channels, is the reference: probabilities and final states agree
within ``1e-12`` and sampled counts draw for draw, under gate noise and
readout error alike.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.backend import DeviceProperties, NoisyBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.operations import Parameter
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.topology import CouplingMap

PARAMS = [Parameter(name) for name in "abcd"]


def sweep_circuit(angles, name="sweep") -> QuantumCircuit:
    """SWAP-test-shaped circuit: shared skeleton, per-call rotation angles."""
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.ry(angles[0], 1).rz(angles[1], 1)
    qc.ry(angles[2], 2).rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def random_angles(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def noisy_model() -> NoiseModel:
    return NoiseModel.from_error_rates(
        0.01, 0.05, readout_error=0.04, t1=50.0, t2=60.0, gate_time=0.1
    )


def sweep_program(simulator):
    return simulator._grid_program(sweep_circuit(PARAMS), PARAMS)


def program_readout(simulator, angles, shots):
    return simulator.run_sweep_program(sweep_program(simulator), angles, shots=shots)


def assert_counts_match_loop(noise, seed, angles, shots):
    readout = program_readout(DensityMatrixSimulator(noise, seed=seed), angles, shots)
    loop_sim = DensityMatrixSimulator(noise, seed=seed)
    looped = [loop_sim.run(sweep_circuit(row), shots=shots) for row in angles]
    assert [c.data for c in readout.counts] == [r.counts.data for r in looped]
    return readout, looped


class TestVectorisedPath:
    def test_exact_probabilities_match_per_circuit_runs(self):
        angles = random_angles(7, seed=0)
        readout = program_readout(DensityMatrixSimulator(noisy_model()), angles, None)
        for row, probabilities in zip(angles, readout.probabilities):
            single = DensityMatrixSimulator(noisy_model()).run(sweep_circuit(row), shots=None)
            assert set(probabilities) == set(single.probabilities)
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_density_matrices_match_per_circuit_runs(self):
        angles = random_angles(4, seed=1)
        simulator = DensityMatrixSimulator(noisy_model())
        states = sweep_program(simulator).evolve(angles, simulator._program_engine())
        for element, row in enumerate(angles):
            single = DensityMatrixSimulator(noisy_model()).run(sweep_circuit(row), shots=None)
            np.testing.assert_allclose(
                states.density_matrix(element).data,
                single.density_matrix.data,
                atol=1e-12,
            )

    def test_sampled_counts_seed_match_the_loop(self):
        """One stacked multinomial call must consume the RNG like the loop."""
        assert_counts_match_loop(noisy_model(), 11, random_angles(6, seed=2), 500)

    def test_seed_match_with_gate_noise_only(self):
        noise = NoiseModel().add_all_qubit_error(depolarizing_kraus(0.02), 1)
        assert_counts_match_loop(noise, 5, random_angles(5, seed=3), 256)

    def test_seed_match_with_readout_error_only(self):
        noise = NoiseModel().add_readout_error(ReadoutError(0.08, 0.03))
        readout, looped = assert_counts_match_loop(
            noise, 6, random_angles(5, seed=4), 256
        )
        for probabilities, loop_result in zip(readout.probabilities, looped):
            assert probabilities == pytest.approx(loop_result.probabilities)

    def test_ideal_model_matches_loop(self):
        assert_counts_match_loop(NoiseModel.ideal(), 3, random_angles(4, seed=5), 128)

    def test_identical_parameters_share_one_matrix(self):
        angles = np.tile([0.3, 0.7, 0.3, 0.7], (3, 1))
        readout = program_readout(DensityMatrixSimulator(noisy_model()), angles, None)
        single = DensityMatrixSimulator(noisy_model()).run(
            sweep_circuit(angles[0]), shots=None
        )
        for probabilities in readout.probabilities:
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_batched_metadata_marks_the_vectorised_engine(self):
        class RecordingBackend(NoisyBackend):
            def __init__(self, properties):
                super().__init__(properties, seed=0)
                self.results = []

            def _record_job(self, result):
                self.results.append(result)

        backend = RecordingBackend(
            DeviceProperties(
                name="line3",
                num_qubits=3,
                coupling_map=CouplingMap.linear(3),
                noise_model=noisy_model(),
            )
        )
        backend.sweep_grid_zero_probabilities(
            sweep_circuit(PARAMS), PARAMS, random_angles(2, seed=6), shots=64
        )
        assert len(backend.results) == 2
        assert all(r.metadata["batched"] for r in backend.results)
        assert all(r.metadata["batch_size"] == 2 for r in backend.results)
        assert all(r.metadata["noisy"] for r in backend.results)


class TestValidation:
    def test_empty_batch_yields_empty_results(self):
        readout = program_readout(DensityMatrixSimulator(), np.zeros((0, 4)), shots=16)
        assert readout.probabilities == [] and readout.counts == []

    def test_zero_shots_rejected(self):
        with pytest.raises(SimulationError, match="shots must be positive"):
            program_readout(DensityMatrixSimulator(), random_angles(2, seed=7), shots=0)

    def test_unbound_parameters_rejected(self):
        with pytest.raises(SimulationError, match="binding column"):
            program_readout(DensityMatrixSimulator(), np.zeros((2, 3)), shots=None)

    def test_shots_without_measurement_rejected(self):
        t = Parameter("t")
        qc = QuantumCircuit(1)
        qc.ry(t, 0)
        simulator = DensityMatrixSimulator()
        program = simulator._grid_program(qc, [t])
        with pytest.raises(SimulationError, match="without measurements"):
            simulator.run_sweep_program(program, np.zeros((2, 1)), shots=16)

    def test_double_measurement_rejected_in_batch(self):
        t = Parameter("t")
        qc = QuantumCircuit(2, 2)
        qc.ry(t, 0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator()._grid_program(qc, [t])
