"""The simulators' ``run`` against the per-state reference classes.

``run`` compiles each circuit structure once and executes it through the
program engines (kernel classes, precomposed noise superoperators).  The
reference shares no code with those engines:

* ideal circuits evolve through :meth:`Statevector.evolve` (tensordot);
* noisy circuits replay the sequential walk on :class:`DensityMatrix`
  (full-space operator expansion): each gate, then each of
  ``NoiseModel.gate_channels``, a single-qubit channel after a multi-qubit
  gate once per gate qubit; readout error is a kron of
  :meth:`ReadoutError.confusion_matrix` over the register.

Outcome probabilities are re-indexed onto classical-bit strings here too, so
neither the marginalisation nor the clbit mapping of the engines is reused.
"""

import numpy as np
import pytest

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.datasets.iris import load_iris
from repro.encoding import DualAngleEncoder
from repro.hardware import ibmq_london
from repro.quantum import program as program_module
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.gates import GATE_SIGNATURES
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.operations import gate
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.statevector import Statevector

ATOL = 1e-12
WIDTH = 4

#: Qubit placements of a k-qubit gate on the 4-qubit test register.
PLACEMENTS = {
    "sorted": {1: (0,), 2: (0, 1), 3: (0, 1, 2)},
    "reversed": {1: (3,), 2: (1, 0), 3: (2, 1, 0)},
    "non_adjacent": {1: (2,), 2: (0, 2), 3: (3, 0, 2)},
}


def london_model() -> NoiseModel:
    return ibmq_london().properties.noise_model


def per_qubit_model() -> NoiseModel:
    """Single-qubit channels on multi-qubit gates, plus per-qubit readout."""
    model = NoiseModel()
    model.add_gate_error("cx", depolarizing_kraus(0.03, 2))
    model.add_all_qubit_error(depolarizing_kraus(0.02, 1), 1)
    model.add_all_qubit_error(depolarizing_kraus(0.04, 1), 2)
    model.add_all_qubit_error(depolarizing_kraus(0.01, 1), 3)
    model.add_readout_error(ReadoutError(0.05, 0.02))
    model.add_readout_error(ReadoutError(0.1, 0.0), qubit=1)
    return model


NOISE_MODELS = {
    "ideal": NoiseModel.ideal,
    "ibmq_london": london_model,
    "per_qubit": per_qubit_model,
}


# --------------------------------------------------------------------------- #
# The reference
# --------------------------------------------------------------------------- #


def measurement_map(circuit):
    """``(gates, [(qubit, clbit), ...])`` of a deferred-measurement circuit."""
    gates, measured = [], []
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            continue
        if instruction.is_measurement:
            measured.extend(zip(instruction.qubits, instruction.clbits))
        else:
            gates.append(instruction)
    return gates, measured


def clbit_distribution(full, num_qubits, measured, num_clbits):
    """Register distribution -> ``{clbit string: probability}``, zeros dropped."""
    out = {}
    for index, prob in enumerate(full):
        if prob <= 0.0:
            continue
        bits = format(index, f"0{num_qubits}b")
        key = ["0"] * num_clbits
        for qubit, clbit in measured:
            key[clbit] = bits[qubit]
        key = "".join(key)
        out[key] = out.get(key, 0.0) + float(prob)
    return out


def ideal_reference(circuit):
    gates, measured = measurement_map(circuit)
    unitary_part = QuantumCircuit(circuit.num_qubits)
    for instruction in gates:
        unitary_part.append(instruction)
    full = np.abs(Statevector(circuit.num_qubits).evolve(unitary_part).data) ** 2
    return clbit_distribution(full, circuit.num_qubits, measured, circuit.num_clbits)


def noisy_reference(circuit, noise_model):
    gates, measured = measurement_map(circuit)
    rho = DensityMatrix(circuit.num_qubits)
    for instruction in gates:
        rho.apply_matrix(instruction.matrix(), instruction.qubits)
        k = len(instruction.qubits)
        for channel in noise_model.gate_channels(instruction.name, k):
            width = int(np.log2(np.asarray(channel[0]).shape[0]))
            if width == k:
                rho.apply_kraus(channel, instruction.qubits)
            else:
                for qubit in instruction.qubits:
                    rho.apply_kraus(channel, (qubit,))
    full = np.clip(np.real(np.diag(rho.data)), 0.0, None)
    full = full / full.sum()
    measured_qubits = {qubit for qubit, _ in measured}
    confusion = np.eye(1)
    for qubit in range(circuit.num_qubits):
        error = noise_model.readout_error(qubit)
        if qubit in measured_qubits and error is not None:
            confusion = np.kron(confusion, error.confusion_matrix())
        else:
            confusion = np.kron(confusion, np.eye(2))
    return clbit_distribution(
        confusion @ full, circuit.num_qubits, measured, circuit.num_clbits
    )


def assert_distributions_close(actual, expected):
    keys = set(actual) | set(expected)
    for key in keys:
        assert actual.get(key, 0.0) == pytest.approx(expected.get(key, 0.0), abs=ATOL), key


def assert_run_matches_reference(circuit, model_key):
    if model_key == "ideal":
        result = StatevectorSimulator().run(circuit)
        assert_distributions_close(result.probabilities, ideal_reference(circuit))
    model = NOISE_MODELS[model_key]()
    result = DensityMatrixSimulator(model).run(circuit, shots=None)
    assert_distributions_close(result.probabilities, noisy_reference(circuit, model))


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #


def gate_circuit(name, placement):
    """Generic input layer, the gate under test, measure everything."""
    num_qubits, num_params = GATE_SIGNATURES[name]
    rng = np.random.default_rng(sum(map(ord, name + placement)))
    qc = QuantumCircuit(WIDTH, WIDTH, name=f"{name}_{placement}")
    for qubit in range(WIDTH):
        qc.ry(rng.uniform(0, np.pi), qubit).rz(rng.uniform(0, np.pi), qubit)
    qc.cx(0, 3)
    params = rng.uniform(-np.pi, np.pi, num_params)
    qc.append(gate(name, PLACEMENTS[placement][num_qubits], *params))
    qc.measure_all()
    return qc


def iris_discriminators(architecture, count=3):
    encoder = DualAngleEncoder()
    stack = LayerStack.from_architecture(architecture, encoder.num_qubits(4))
    builder = DiscriminatorCircuitBuilder(stack, encoder, 4)
    features = load_iris().features
    low, high = features.min(axis=0), features.max(axis=0)
    scaled = (features - low) / (high - low)
    rng = np.random.default_rng(len(architecture) + ord(architecture))
    values = rng.uniform(0, np.pi, builder.num_parameters)
    return [builder.build(scaled[index], parameter_values=values) for index in (0, 60, 120)[:count]]


@pytest.mark.parametrize("model_key", sorted(NOISE_MODELS))
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("name", sorted(GATE_SIGNATURES))
def test_every_library_gate(name, placement, model_key):
    assert_run_matches_reference(gate_circuit(name, placement), model_key)


@pytest.mark.parametrize("model_key", sorted(NOISE_MODELS))
@pytest.mark.parametrize("architecture", ["s", "d", "e"])
def test_iris_discriminators(architecture, model_key):
    for circuit in iris_discriminators(architecture):
        assert_run_matches_reference(circuit, model_key)


@pytest.mark.parametrize("model_key", sorted(NOISE_MODELS))
def test_measured_subset_with_remapped_clbits(model_key):
    qc = QuantumCircuit(WIDTH, 3, name="subset")
    qc.h(0).ry(0.8, 1).cx(0, 2).cry(1.3, 2, 3).rz(0.4, 3)
    qc.measure(3, 0).measure(1, 2)
    assert_run_matches_reference(qc, model_key)


def test_noisy_backend_run_matches_reference_on_the_transpiled_circuit():
    from repro.quantum.transpiler import transpile

    backend = ibmq_london(seed=0)
    circuit = iris_discriminators("s", count=1)[0]
    result = backend.run(circuit, shots=None)
    routed = transpile(circuit, backend._local_coupling_map(circuit.num_qubits)).circuit
    assert_distributions_close(
        result.probabilities, noisy_reference(routed, backend.properties.noise_model)
    )


def test_reference_detects_a_dropped_channel(monkeypatch):
    """The comparison is sharp enough to catch one missing noise channel."""
    original = program_module.gate_noise_superoperator

    class DropLastChannel:
        def __init__(self, model):
            self.model = model

        def gate_channels(self, gate_name, num_qubits):
            return self.model.gate_channels(gate_name, num_qubits)[:-1]

    def dropping(gate_name, qubits, noise_model):
        return original(gate_name, qubits, DropLastChannel(noise_model))

    monkeypatch.setattr(program_module, "gate_noise_superoperator", dropping)
    circuit = iris_discriminators("s", count=1)[0]
    model = london_model()
    result = DensityMatrixSimulator(model).run(circuit, shots=None)
    with pytest.raises(AssertionError):
        assert_distributions_close(result.probabilities, noisy_reference(circuit, model))
