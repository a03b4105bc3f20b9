"""Encoder interface.

A data encoder translates a classical feature vector into (a) a state-
preparation :class:`~repro.quantum.circuit.QuantumCircuit` acting on
``num_qubits`` qubits initialised to ``|0...0>``, and (b) the corresponding
:class:`~repro.quantum.statevector.Statevector` for the fast analytic path.

Every encoder keeps one contract: a fixed gate skeleton over a sequence of
*angle sites*, whose structure depends on the number of features alone, and
:meth:`DataEncoder.angle_matrix`, the per-sample angles of those sites.
:meth:`DataEncoder.encoding_circuit` is the skeleton over one row of the
angle matrix and :meth:`DataEncoder.symbolic_encoding_circuit` the skeleton
over symbolic parameters, so every encoder compiles once into a whole-grid
program whose data columns bind straight from the angle matrix.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import EncodingError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector


class DataEncoder(abc.ABC):
    """Translate classical feature vectors into quantum states."""

    #: Name of the circuits the encoder builds.
    circuit_name = "encoding"

    @abc.abstractmethod
    def num_qubits(self, num_features: int) -> int:
        """Number of qubits needed to encode ``num_features`` features."""

    @abc.abstractmethod
    def num_angle_sites(self, num_features: int) -> int:
        """Number of rotation sites of the skeleton for ``num_features`` features."""

    @abc.abstractmethod
    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample angles, shape ``(samples, num_angle_sites)``.

        Row ``i`` holds the angles the skeleton binds for
        ``feature_matrix[i]``, in :meth:`symbolic_encoding_circuit`
        parameter order.
        """

    @abc.abstractmethod
    def _append_skeleton(
        self, circuit: QuantumCircuit, sites: Sequence, qubits: Sequence[int], num_features: int
    ) -> None:
        """Append the gate skeleton over ``sites`` (floats or parameters) to ``circuit``."""

    def angles(self, features: Sequence[float]) -> np.ndarray:
        """The angle sites of one feature vector: its :meth:`angle_matrix` row."""
        return self.angle_matrix(self.validate_features(features)[None, :])[0]

    def encoding_circuit(
        self,
        features: Sequence[float],
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """State-preparation circuit for one feature vector.

        Parameters
        ----------
        features:
            Classical feature vector (already normalised to the encoder's
            expected range).
        offset:
            Index of the first qubit the encoding should act on — the
            QuClassi builder places data qubits after the learned-state
            qubits.
        total_qubits:
            Total width of the returned circuit; defaults to
            ``offset + num_qubits(len(features))``.
        """
        angles = self.angles(features)
        return self._skeleton_circuit(
            len(np.asarray(features)), angles.tolist(), offset, total_qubits
        )

    def symbolic_encoding_circuit(
        self,
        num_features: int,
        parameters: Sequence,
        offset: int = 0,
        total_qubits: Optional[int] = None,
    ) -> QuantumCircuit:
        """The skeleton of :meth:`encoding_circuit` over ``parameters``.

        One :class:`~repro.quantum.operations.Parameter` per angle site, in
        the order :meth:`angle_matrix` emits columns, so compiling the result
        with ``bind_floats=False`` yields a program whose encoder columns
        bind straight from the angle matrix.
        """
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        sites = self.num_angle_sites(num_features)
        if len(parameters) != sites:
            raise EncodingError(
                f"expected one parameter per angle site ({sites}), got "
                f"{len(parameters)}"
            )
        return self._skeleton_circuit(num_features, parameters, offset, total_qubits)

    def _skeleton_circuit(
        self,
        num_features: int,
        sites: Sequence,
        offset: int,
        total_qubits: Optional[int],
    ) -> QuantumCircuit:
        width = self.num_qubits(num_features)
        total = total_qubits if total_qubits is not None else offset + width
        if total < offset + width:
            raise EncodingError(
                f"total_qubits={total} too small for {width} data qubits at offset {offset}"
            )
        circuit = QuantumCircuit(total, 0, name=self.circuit_name)
        self._append_skeleton(
            circuit, sites, [offset + q for q in range(width)], num_features
        )
        return circuit

    def validate_feature_matrix(
        self, feature_matrix, low: float = 0.0, high: float = 1.0
    ) -> np.ndarray:
        """Validate a ``(samples, features)`` matrix like :meth:`validate_features`."""
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        if feature_matrix.ndim != 2:
            raise EncodingError(
                f"expected a 2-D feature matrix, got shape {feature_matrix.shape}"
            )
        if feature_matrix.shape[1] == 0:
            raise EncodingError("feature vectors must not be empty")
        if not np.all(np.isfinite(feature_matrix)):
            raise EncodingError("feature matrix contains non-finite values")
        if np.any(feature_matrix < low - 1e-9) or np.any(feature_matrix > high + 1e-9):
            raise EncodingError(
                f"features must lie in [{low}, {high}] — normalise the dataset "
                f"first (got range [{feature_matrix.min():.4f}, "
                f"{feature_matrix.max():.4f}])"
            )
        return np.clip(feature_matrix, low, high)

    def encode(self, features: Sequence[float]) -> Statevector:
        """Return the encoded state as a statevector (fast analytic path)."""
        features = np.asarray(features, dtype=float)
        circuit = self.encoding_circuit(features)
        state = Statevector(circuit.num_qubits)
        return state.evolve(circuit)

    def validate_features(self, features: Sequence[float], low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Validate that features are finite and inside ``[low, high]``."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise EncodingError(f"expected a 1-D feature vector, got shape {features.shape}")
        if features.size == 0:
            raise EncodingError("feature vector must not be empty")
        if not np.all(np.isfinite(features)):
            raise EncodingError("feature vector contains non-finite values")
        if np.any(features < low - 1e-9) or np.any(features > high + 1e-9):
            raise EncodingError(
                f"features must lie in [{low}, {high}] — normalise the dataset first "
                f"(got range [{features.min():.4f}, {features.max():.4f}])"
            )
        return np.clip(features, low, high)
