"""Noisy ``run`` reads out through the route a one-element grid takes.

``DensityMatrixSimulator.run`` evolves its compiled program to the split of
the engine's readout plan, reads the probabilities there (the fixed tail
folded into the measurement observable), and only then applies the tail
for the returned ``density_matrix``.  So its probabilities equal, to the
last bit, the one-element sweep of the same program; and its final state
still equals per-state :class:`DensityMatrix` evolution of the whole
circuit.
"""

import numpy as np
import pytest

from repro.analysis.equiv import reference_density_matrices
from repro.hardware import ibmq_london
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import clbit_key
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.simulator import DensityMatrixSimulator

ATOL = 1e-12


def swap_test_circuit(angles):
    """A bound SWAP test: rotations, then a fixed cswap/h tail on the ancilla."""
    qc = QuantumCircuit(5, 1, name="swap_test")
    qc.h(0)
    for qubit, (theta, phi) in zip(range(1, 5), angles):
        qc.ry(theta, qubit).rz(phi, qubit)
    qc.cswap(0, 1, 3).cswap(0, 2, 4).h(0)
    qc.measure(0, 0)
    return qc


def entangling_circuit(angles):
    """Two measured qubits in non-sorted order after a fixed cx/h tail."""
    qc = QuantumCircuit(3, 2, name="entangling")
    qc.rx(angles[0][0], 0).ry(angles[0][1], 1).rz(angles[1][0], 2)
    qc.cx(0, 1).h(2).cx(2, 0).cz(1, 2)
    qc.measure(2, 0)
    qc.measure(0, 1)
    return qc


def rates_model() -> NoiseModel:
    model = NoiseModel.from_error_rates(0.01, 0.03)
    model.add_gate_error("cswap", depolarizing_kraus(0.05, 3))
    model.add_readout_error(ReadoutError(0.04, 0.02))
    model.add_readout_error(ReadoutError(0.1, 0.05), qubit=2)
    return model


CIRCUITS = {"swap_test": swap_test_circuit, "entangling": entangling_circuit}
MODELS = {
    "london": lambda: ibmq_london().properties.noise_model,
    "rates": rates_model,
}


@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("circuit_key", sorted(CIRCUITS))
@pytest.mark.parametrize("seed", [0, 1])
def test_run_reads_out_like_the_one_element_grid(circuit_key, model_key, seed):
    angles = np.random.default_rng(seed).uniform(0, np.pi, size=(4, 2))
    circuit = CIRCUITS[circuit_key](angles)
    model = MODELS[model_key]()
    simulator = DensityMatrixSimulator(noise_model=model, seed=seed)
    result = simulator.run(circuit, shots=None)

    program = simulator._run_program(circuit)
    engine = simulator._program_engine()
    readout = engine.readout_plan(program)
    assert readout.observable is not None
    assert 0 < readout.split < len(program.steps)
    row = np.array(
        [[float(circuit.instructions[at].params[slot]) for at, slot in program.column_sites]]
    )
    grid = simulator.run_sweep_program(program, row, shots=None)
    assert result.probabilities == {
        clbit_key(column, grid.clbits, grid.num_clbits): probability
        for column, probability in enumerate(grid.probabilities[0])
        if probability > 0
    }

    expected = reference_density_matrices(program, row, model)[0]
    np.testing.assert_allclose(result.density_matrix.data, expected, rtol=0, atol=ATOL)
