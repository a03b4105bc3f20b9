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

import numpy as np

from repro.encoding.base import DataEncoder
from repro.exceptions import EncodingError


def rotation_angles(values) -> np.ndarray:
    """The paper's angle map ``theta = 2 * asin(sqrt(x))``, element-wise, ``x`` in [0, 1].

    With this choice, measuring the qubit prepared by ``RY(theta)|0>`` yields
    ``P(|1>) = sin^2(theta / 2) = x``: the classical value becomes the qubit's
    excited-state probability.  Every angle the encoders bind goes through
    this one NumPy map in :meth:`~DualAngleEncoder.angle_matrix`, whose row
    the per-sample ``encoding_circuit`` binds too.  (NumPy's ``arcsin`` can
    differ from ``math.asin`` in the last ULP.)
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


class DualAngleEncoder(DataEncoder):
    """Two data dimensions per qubit via successive RY and RZ rotations."""

    #: Number of classical dimensions stored per qubit.
    dims_per_qubit = 2

    circuit_name = "dual_angle_encoding"

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: ``ceil(num_features / 2)``."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return (num_features + 1) // 2

    def num_angle_sites(self, num_features: int) -> int:
        """One angle site per feature."""
        return num_features

    def _append_skeleton(self, circuit, sites, qubits, num_features) -> None:
        """RY of feature ``2i`` then RZ of feature ``2i + 1`` on data qubit ``i``."""
        for qubit_index, qubit in enumerate(qubits):
            circuit.ry(sites[2 * qubit_index], qubit, label="data")
            second_index = 2 * qubit_index + 1
            if second_index < num_features:
                circuit.rz(sites[second_index], qubit, label="data")

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample angles in feature order (RY, RZ interleaved per qubit)."""
        return rotation_angles(self.validate_feature_matrix(feature_matrix))


class SingleAngleEncoder(DataEncoder):
    """One data dimension per qubit via an RY rotation only (ablation)."""

    dims_per_qubit = 1

    circuit_name = "single_angle_encoding"

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: one per feature."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return num_features

    def num_angle_sites(self, num_features: int) -> int:
        """One angle site per feature."""
        return num_features

    def _append_skeleton(self, circuit, sites, qubits, num_features) -> None:
        """RY of feature ``i`` on data qubit ``i``."""
        for qubit, site in zip(qubits, sites):
            circuit.ry(site, qubit, label="data")

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample RY angles in feature order."""
        return rotation_angles(self.validate_feature_matrix(feature_matrix))
