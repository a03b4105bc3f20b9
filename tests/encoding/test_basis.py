"""Tests for basis (binary) encoding."""

import numpy as np
import pytest

from repro.encoding.basis import BasisEncoder
from repro.exceptions import EncodingError


class TestBasisEncoder:
    def test_threshold_default(self):
        bits = BasisEncoder().bits([0.2, 0.8, 0.5])
        np.testing.assert_array_equal(bits, [0, 1, 0])

    def test_custom_threshold(self):
        bits = BasisEncoder(threshold=0.1).bits([0.2, 0.05])
        np.testing.assert_array_equal(bits, [1, 0])

    def test_invalid_threshold(self):
        with pytest.raises(EncodingError):
            BasisEncoder(threshold=1.5)

    def test_num_qubits(self):
        assert BasisEncoder().num_qubits(7) == 7

    def test_encode_prepares_basis_state(self):
        state = BasisEncoder().encode([0.9, 0.1, 0.9])
        # bits 101 -> index 5
        assert state.probabilities()[5] == pytest.approx(1.0)

    def test_circuit_is_one_ry_of_pi_b_per_qubit(self):
        circuit = BasisEncoder().encoding_circuit([0.9, 0.1])
        assert circuit.count_ops() == {"ry": 2}
        assert [inst.params[0] for inst in circuit.instructions] == [np.pi, 0.0]

    def test_all_below_threshold_gives_ground_state(self):
        state = BasisEncoder().encode([0.1, 0.2])
        assert state.probabilities()[0] == pytest.approx(1.0)

    def test_offset(self):
        circuit = BasisEncoder().encoding_circuit([0.9], offset=2, total_qubits=3)
        assert circuit.instructions[0].qubits == (2,)

    def test_rejects_out_of_range(self):
        with pytest.raises(EncodingError):
            BasisEncoder().bits([1.2])
