"""Amplitude (state-vector) encoding.

Encodes ``2**n`` classical values into the amplitudes of an ``n``-qubit state.
The paper mentions this as the qubit-cheapest but most noise-sensitive end of
the encoding spectrum; it is provided for the encoding ablation benchmark and
for users who want maximal data density.

The skeleton is the full uniformly-controlled RY tree (Möttönen et al.,
quant-ph/0407010) with no zero-angle site skipped, so its structure depends
on the register width alone and amplitude-encoded sweeps compile into one
whole-grid program.  A zero angle is an ``RY(0)`` site rather than no gate:
on a noisy backend it pays that gate's noise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import arrays
from repro.encoding.base import DataEncoder
from repro.exceptions import EncodingError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector


class AmplitudeEncoder(DataEncoder):
    """Encode a feature vector as the amplitudes of a quantum state.

    Vectors are padded with zeros up to the next power of two and normalised
    to unit Euclidean norm.  The state-preparation circuit uses the standard
    branch-probability construction: at tree depth ``d`` a multiplexed RY
    rotation conditioned on the first ``d`` qubits splits the remaining norm
    between the two sub-branches.  Multiplexed rotations are decomposed
    recursively into RY and CX gates only, so the circuit stays in the native
    basis of the simulated hardware.  Every site of the tree is kept, so the
    circuit has ``2**n - 1`` RY and ``2**(n + 1) - 2 * n - 2`` CX gates
    whatever the features.  :meth:`encode` returns the normalised amplitudes
    directly, the independent reference the circuit is checked against.

    The encoder only supports non-negative features (as produced by the
    min-max normalisation used throughout the library); signs would require
    an extra multiplexed RZ stage that QuClassi never needs.
    """

    circuit_name = "amplitude_encoding"

    def num_qubits(self, num_features: int) -> int:
        """Qubits needed: ``ceil(log2(num_features))`` (minimum one)."""
        if num_features <= 0:
            raise EncodingError(f"num_features must be positive, got {num_features}")
        return max(1, math.ceil(math.log2(num_features)))

    def amplitudes(self, features: Sequence[float]) -> np.ndarray:
        """Zero-padded, unit-norm amplitude vector for ``features``."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1 or features.size == 0:
            raise EncodingError("features must be a non-empty 1-D vector")
        if not np.all(np.isfinite(features)):
            raise EncodingError("features contain non-finite values")
        if np.any(features < 0):
            raise EncodingError("amplitude encoding expects non-negative features; shift them first")
        width = self.num_qubits(features.size)
        padded = np.zeros(2**width, dtype=float)
        padded[: features.size] = features
        # Scale by the largest entry first: the squared norm of very small
        # (or very large) features would underflow to 0 (or overflow).
        scale = padded.max()
        if scale == 0:
            raise EncodingError("cannot amplitude-encode an all-zero feature vector")
        padded /= scale
        return padded / np.linalg.norm(padded)

    def encode(self, features: Sequence[float]) -> Statevector:
        """Return the encoded state directly (no circuit synthesis needed)."""
        return Statevector(arrays.as_complex(self.amplitudes(features)))

    def num_angle_sites(self, num_features: int) -> int:
        """Sites of the full tree: ``2**d`` at depth ``d``, ``2**n - 1`` in all."""
        return 2 ** self.num_qubits(num_features) - 1

    def angles(self, features: Sequence[float]) -> np.ndarray:
        """The angle sites of one feature vector, validated like :meth:`amplitudes`."""
        return self._site_angles(self.amplitudes(features)[None, :])[0]

    def angle_matrix(self, feature_matrix) -> np.ndarray:
        """Per-sample site angles, shape ``(samples, 2**n - 1)``.

        Each row is validated like :meth:`amplitudes`.
        """
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        if feature_matrix.ndim != 2:
            raise EncodingError(
                f"expected a 2-D feature matrix, got shape {feature_matrix.shape}"
            )
        width = self.num_qubits(feature_matrix.shape[1])
        amplitudes = np.array(
            [self.amplitudes(row) for row in feature_matrix], dtype=float
        ).reshape(-1, 2**width)
        return self._site_angles(amplitudes)

    @classmethod
    def _site_angles(cls, amplitudes: np.ndarray) -> np.ndarray:
        """Site angles of the tree for ``(samples, 2**n)`` amplitude rows.

        At tree depth ``d`` the branch angle of prefix ``p`` is ``2 *
        atan2(||lower||, ||upper||)`` over the amplitudes whose index starts
        with ``p``; the ``2**d`` branch angles then map onto the multiplexed
        rotation's sites by the recursive half-sum and half-difference
        (:meth:`_multiplexed_sites`), in skeleton order.
        """
        width = int(amplitudes.shape[1]).bit_length() - 1
        sites = []
        for depth in range(width):
            halves = amplitudes.reshape(-1, 2**depth, 2, 2 ** (width - depth - 1))
            norms = np.linalg.norm(halves, axis=3)
            branch = 2.0 * np.arctan2(norms[:, :, 1], norms[:, :, 0])
            sites.append(cls._multiplexed_sites(branch))
        return np.hstack(sites)

    @classmethod
    def _multiplexed_sites(cls, branch: np.ndarray) -> np.ndarray:
        """Site angles of a multiplexed RY from its ``(samples, 2**c)`` branch angles.

        Uses the identity ``RY(a) ⊕ RY(b) = RY((a+b)/2) · CX · RY((a-b)/2)
        · CX`` (circuit order, left to right) on the most significant
        control: the sites of the half-sums, then those of the
        half-differences.
        """
        if branch.shape[1] == 1:
            return branch
        half = branch.shape[1] // 2
        upper, lower = branch[:, :half], branch[:, half:]
        return np.hstack(
            [
                cls._multiplexed_sites((upper + lower) / 2.0),
                cls._multiplexed_sites((upper - lower) / 2.0),
            ]
        )

    def _append_skeleton(self, circuit, sites, qubits, num_features) -> None:
        """One multiplexed RY per tree depth, controlled by the qubits above it."""
        start = 0
        for depth, target in enumerate(qubits):
            stop = start + 2**depth
            self._multiplexed_ry(circuit, sites[start:stop], qubits[:depth], target)
            start = stop

    @classmethod
    def _multiplexed_ry(
        cls,
        circuit: QuantumCircuit,
        sites: Sequence,
        controls: Sequence[int],
        target: int,
    ) -> None:
        """Apply the ``2**len(controls)`` sites of a multiplexed RY on ``target``.

        ``controls[0]`` is the most significant control.  Decomposed
        recursively into RY and CX gates only, so the circuit stays in the
        native basis of the simulated hardware; every site is one RY.
        """
        if not controls:
            circuit.ry(sites[0], target, label="data")
            return
        half = len(sites) // 2
        head, rest = controls[0], controls[1:]
        cls._multiplexed_ry(circuit, sites[:half], rest, target)
        circuit.cx(head, target)
        cls._multiplexed_ry(circuit, sites[half:], rest, target)
        circuit.cx(head, target)
