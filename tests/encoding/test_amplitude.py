"""Tests for amplitude (state-vector) encoding."""

import numpy as np
import pytest

from repro.encoding.amplitude import AmplitudeEncoder
from repro.exceptions import EncodingError
from repro.quantum.statevector import Statevector


class TestAmplitudes:
    def test_qubit_count_is_logarithmic(self):
        encoder = AmplitudeEncoder()
        assert encoder.num_qubits(2) == 1
        assert encoder.num_qubits(4) == 2
        assert encoder.num_qubits(5) == 3
        assert encoder.num_qubits(16) == 4

    def test_normalisation(self):
        amplitudes = AmplitudeEncoder().amplitudes([3.0, 4.0])
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0)
        np.testing.assert_allclose(amplitudes, [0.6, 0.8])

    @pytest.mark.parametrize("scale", [1e-165, 1e200])
    def test_normalisation_survives_extreme_magnitudes(self, scale):
        # The squared norm of these would underflow to 0 or overflow to inf.
        amplitudes = AmplitudeEncoder().amplitudes([3.0 * scale, 4.0 * scale])
        np.testing.assert_allclose(amplitudes, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_zero_padding(self):
        amplitudes = AmplitudeEncoder().amplitudes([1.0, 1.0, 1.0])
        assert amplitudes.shape == (4,)
        assert amplitudes[3] == 0.0

    def test_rejects_negative_features(self):
        with pytest.raises(EncodingError):
            AmplitudeEncoder().amplitudes([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(EncodingError):
            AmplitudeEncoder().amplitudes([0.0, 0.0])

    def test_encode_returns_matching_statevector(self):
        features = [0.2, 0.4, 0.6, 0.8]
        state = AmplitudeEncoder().encode(features)
        np.testing.assert_allclose(
            np.abs(state.data), AmplitudeEncoder().amplitudes(features), atol=1e-12
        )


class TestSynthesisedCircuit:
    @pytest.mark.parametrize(
        "features",
        [
            [1.0, 1.0],
            [0.3, 0.9],
            [0.1, 0.2, 0.3, 0.4],
            [0.9, 0.0, 0.4, 0.7],
            [0.05, 0.2, 0.7, 0.1, 0.6, 0.3, 0.9, 0.2],
            [1.0, 0.0, 0.0, 0.0],
        ],
        ids=["uniform2", "pair", "four", "with_zero", "eight", "basis_state"],
    )
    def test_circuit_prepares_encoded_amplitudes(self, features):
        encoder = AmplitudeEncoder()
        target = encoder.amplitudes(features)
        circuit = encoder.encoding_circuit(features)
        state = Statevector(circuit.num_qubits).evolve(circuit)
        # Real non-negative amplitude vectors are prepared exactly (up to sign
        # conventions that cannot appear for non-negative targets).
        np.testing.assert_allclose(np.abs(state.data), target, atol=1e-9)

    def test_circuit_uses_only_native_gates(self):
        circuit = AmplitudeEncoder().encoding_circuit([0.1, 0.5, 0.2, 0.9])
        assert set(circuit.count_ops()) <= {"ry", "cx"}

    def test_offset_placement(self):
        circuit = AmplitudeEncoder().encoding_circuit([0.5, 0.5], offset=2, total_qubits=3)
        used = {q for inst in circuit.instructions for q in inst.qubits}
        assert used == {2}

    def test_total_qubits_too_small(self):
        with pytest.raises(EncodingError):
            AmplitudeEncoder().encoding_circuit([0.1, 0.2, 0.3, 0.4], offset=1, total_qubits=2)
