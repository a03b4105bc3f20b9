"""Basis (binary) encoding.

Maps a vector of bits onto computational-basis states: feature ``i`` sets
qubit ``i`` to ``|1>`` when its (thresholded) value is one.  This is the
"one data point per qubit, loses a lot of information, but robust to noise"
end of the encoding spectrum the paper discusses in Section 4.2, and it is
also what the QuantumFlow-like baseline uses for its circuit mapping.

The skeleton is one ``RY(pi * b)`` on every data qubit, so the circuit's
structure depends on the number of features alone and basis-encoded sweeps
compile into one whole-grid program like the angle encoders.  A zero bit is
an ``RY(0)`` site rather than no gate: on a noisy backend it pays that
gate's noise, and ``RY(pi)`` loads ``|1>`` up to roundoff (its ``|0>``
amplitude is ``cos(pi / 2)``, about ``6e-17``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.encoding.base import DataEncoder
from repro.exceptions import EncodingError


class BasisEncoder(DataEncoder):
    """Threshold features into bits and load them with ``RY(pi * b)`` rotations.

    Parameters
    ----------
    threshold:
        Values strictly greater than ``threshold`` encode as ``|1>``.
    """

    circuit_name = "basis_encoding"

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise EncodingError(f"threshold must lie in [0, 1], got {threshold}")
        self.threshold = float(threshold)

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: one per feature."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return num_features

    def num_angle_sites(self, num_features: int) -> int:
        """One angle site per feature."""
        return num_features

    def bits(self, features: Sequence[float]) -> np.ndarray:
        """Thresholded bit vector for a feature vector."""
        features = self.validate_features(features)
        return (features > self.threshold).astype(int)

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample ``pi * b`` angles, one per feature."""
        return np.pi * (self.validate_feature_matrix(feature_matrix) > self.threshold)

    def _append_skeleton(self, circuit, sites, qubits, num_features) -> None:
        """``RY(pi * b_i)`` on data qubit ``i``."""
        for qubit, site in zip(qubits, sites):
            circuit.ry(site, qubit, label="data")
