"""The statevector simulator's compiled sweep route against per-circuit ``run``.

A structure-sharing sweep compiles once through the simulator's program
cache and executes through ``run_sweep_program``.  Per-circuit
:meth:`StatevectorSimulator.run` is the reference: probabilities and final
states agree within ``1e-12`` and sampled counts draw for draw.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import StatevectorEngine
from repro.quantum.simulator import StatevectorSimulator

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


def sweep_program(simulator):
    return simulator._grid_program(sweep_circuit(PARAMS), PARAMS)


def program_readout(simulator, angles, shots):
    return simulator.run_sweep_program(sweep_program(simulator), angles, shots=shots)


class TestVectorisedPath:
    def test_exact_probabilities_match_per_circuit_runs(self):
        angles = random_angles(9, seed=0)
        readout = program_readout(StatevectorSimulator(), angles, shots=None)
        for row, probabilities in zip(angles, readout.probabilities):
            single = StatevectorSimulator().run(sweep_circuit(row), shots=None)
            assert set(probabilities) == set(single.probabilities)
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_statevectors_match_per_circuit_runs(self):
        angles = random_angles(4, seed=1)
        states = sweep_program(StatevectorSimulator()).evolve(angles, StatevectorEngine())
        for element, row in enumerate(angles):
            single = StatevectorSimulator().run(sweep_circuit(row), shots=None)
            np.testing.assert_allclose(
                states.statevector(element).data, single.statevector.data, atol=1e-12
            )

    def test_sampled_counts_seed_match_the_loop(self):
        """One stacked multinomial call must consume the RNG like the loop."""
        angles = random_angles(6, seed=2)
        readout = program_readout(StatevectorSimulator(seed=11), angles, shots=500)
        loop_sim = StatevectorSimulator(seed=11)
        looped = [loop_sim.run(sweep_circuit(row), shots=500) for row in angles]
        assert [c.data for c in readout.counts] == [r.counts.data for r in looped]

    def test_identical_parameters_share_one_matrix(self):
        """All-equal angles take the shared-matrix branch and stay correct."""
        angles = np.tile([0.3, 0.7, 0.3, 0.7], (3, 1))
        readout = program_readout(StatevectorSimulator(), angles, shots=None)
        single = StatevectorSimulator().run(sweep_circuit(angles[0]), shots=None)
        for probabilities in readout.probabilities:
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)


class TestValidation:
    def test_empty_batch_yields_empty_results(self):
        readout = program_readout(StatevectorSimulator(), np.zeros((0, 4)), shots=16)
        assert readout.probabilities == [] and readout.counts == []

    def test_zero_shots_rejected(self):
        with pytest.raises(SimulationError, match="shots must be positive"):
            program_readout(StatevectorSimulator(), random_angles(2, seed=5), shots=0)

    def test_unbound_parameters_rejected(self):
        with pytest.raises(SimulationError, match="binding column"):
            program_readout(StatevectorSimulator(), np.zeros((2, 3)), shots=None)

    def test_shots_without_measurement_rejected(self):
        t = Parameter("t")
        qc = QuantumCircuit(1)
        qc.ry(t, 0)
        simulator = StatevectorSimulator()
        program = simulator._grid_program(qc, [t])
        with pytest.raises(SimulationError, match="without measurements"):
            simulator.run_sweep_program(program, np.zeros((2, 1)), shots=16)

    def test_double_measurement_rejected_in_batch(self):
        t = Parameter("t")
        qc = QuantumCircuit(2, 2)
        qc.ry(t, 0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            StatevectorSimulator()._grid_program(qc, [t])
