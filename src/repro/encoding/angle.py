"""Angle (expectation) encodings — Section 4.2 of the paper.

Two variants are provided:

* :class:`DualAngleEncoder` — the paper's default: **two** data dimensions
  per qubit.  Dimension ``2i`` sets the qubit's Z-expectation through
  ``RY(2 * asin(sqrt(x)))`` and dimension ``2i + 1`` rotates around Z by
  ``RZ(2 * asin(sqrt(x)))`` (paper Eq. 12).  This halves the qubit count,
  which is what lets QuClassi encode 16 PCA dimensions in 8 qubits.
* :class:`SingleAngleEncoder` — one dimension per qubit through the RY
  rotation only; the ablation baseline the paper mentions when discussing
  extreme feature values.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.encoding.base import DataEncoder
from repro.exceptions import EncodingError
from repro.quantum.circuit import QuantumCircuit


def rotation_angles(values) -> np.ndarray:
    """The paper's angle map ``theta = 2 * asin(sqrt(x))``, element-wise, ``x`` in [0, 1].

    With this choice, measuring the qubit prepared by ``RY(theta)|0>`` yields
    ``P(|1>) = sin^2(theta / 2) = x``: the classical value becomes the qubit's
    excited-state probability.  Every angle the encoders bind goes through
    this one NumPy map — the per-sample ``encoding_circuit`` and the
    whole-grid :meth:`~DualAngleEncoder.angle_matrix` alike — so the two
    routes bind bitwise the same angles.  (NumPy's ``arcsin`` can differ
    from ``math.asin`` in the last ULP.)
    """
    values = np.asarray(values, dtype=float)
    outside = (values < -1e-9) | (values > 1.0 + 1e-9)
    if np.any(outside):
        raise EncodingError(
            f"encoded values must lie in [0, 1], got {values[outside].flat[0]}"
        )
    return 2.0 * np.arcsin(np.sqrt(np.clip(values, 0.0, 1.0)))


def rotation_angle(value: float) -> float:
    """:func:`rotation_angles` of one value."""
    return float(rotation_angles([value])[0])


def _check_symbolic_args(num_features: int, parameters: Sequence) -> None:
    if num_features <= 0:
        raise EncodingError(f"num_features must be positive, got {num_features}")
    if len(parameters) != num_features:
        raise EncodingError(
            f"expected one parameter per feature ({num_features}), got "
            f"{len(parameters)}"
        )


class DualAngleEncoder(DataEncoder):
    """Two data dimensions per qubit via successive RY and RZ rotations."""

    #: Number of classical dimensions stored per qubit.
    dims_per_qubit = 2

    supports_angle_columns = True

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: ``ceil(num_features / 2)``."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return (num_features + 1) // 2

    def encoding_circuit(
        self,
        features: Sequence[float],
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """RY/RZ state-preparation circuit for one normalised feature vector."""
        features = self.validate_features(features)
        width = self.num_qubits(features.size)
        total = total_qubits if total_qubits is not None else offset + width
        if total < offset + width:
            raise EncodingError(
                f"total_qubits={total} too small for {width} data qubits at offset {offset}"
            )
        circuit = QuantumCircuit(total, 0, name="dual_angle_encoding")
        angles = rotation_angles(features).tolist()
        for qubit_index in range(width):
            circuit.ry(angles[2 * qubit_index], offset + qubit_index, label="data")
            second_index = 2 * qubit_index + 1
            if second_index < features.size:
                circuit.rz(angles[second_index], offset + qubit_index, label="data")
        return circuit

    def angles(self, features: Sequence[float]) -> np.ndarray:
        """Rotation angles (RY, RZ interleaved) used for a feature vector."""
        return rotation_angles(self.validate_features(features))

    def symbolic_encoding_circuit(
        self,
        num_features: int,
        parameters: Sequence,
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """Structure twin of :meth:`encoding_circuit`: one parameter per feature."""
        _check_symbolic_args(num_features, parameters)
        width = self.num_qubits(num_features)
        total = total_qubits if total_qubits is not None else offset + width
        if total < offset + width:
            raise EncodingError(
                f"total_qubits={total} too small for {width} data qubits at offset {offset}"
            )
        circuit = QuantumCircuit(total, 0, name="dual_angle_encoding")
        for qubit_index in range(width):
            circuit.ry(parameters[2 * qubit_index], offset + qubit_index, label="data")
            second_index = 2 * qubit_index + 1
            if second_index < num_features:
                circuit.rz(parameters[second_index], offset + qubit_index, label="data")
        return circuit

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample angles in feature order (RY, RZ interleaved per qubit)."""
        return rotation_angles(self.validate_feature_matrix(feature_matrix))


class SingleAngleEncoder(DataEncoder):
    """One data dimension per qubit via an RY rotation only (ablation)."""

    dims_per_qubit = 1

    supports_angle_columns = True

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: one per feature."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return num_features

    def encoding_circuit(
        self,
        features: Sequence[float],
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """RY-only state-preparation circuit."""
        features = self.validate_features(features)
        width = features.size
        total = total_qubits if total_qubits is not None else offset + width
        if total < offset + width:
            raise EncodingError(
                f"total_qubits={total} too small for {width} data qubits at offset {offset}"
            )
        circuit = QuantumCircuit(total, 0, name="single_angle_encoding")
        for qubit_index, angle in enumerate(rotation_angles(features).tolist()):
            circuit.ry(angle, offset + qubit_index, label="data")
        return circuit

    def symbolic_encoding_circuit(
        self,
        num_features: int,
        parameters: Sequence,
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """Structure twin of :meth:`encoding_circuit`: one parameter per feature."""
        _check_symbolic_args(num_features, parameters)
        width = num_features
        total = total_qubits if total_qubits is not None else offset + width
        if total < offset + width:
            raise EncodingError(
                f"total_qubits={total} too small for {width} data qubits at offset {offset}"
            )
        circuit = QuantumCircuit(total, 0, name="single_angle_encoding")
        for qubit_index in range(num_features):
            circuit.ry(parameters[qubit_index], offset + qubit_index, label="data")
        return circuit

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample RY angles in feature order."""
        return rotation_angles(self.validate_feature_matrix(feature_matrix))
