"""TensorFlow-Quantum-style variational baseline.

The paper compares against the TensorFlow Quantum MNIST tutorial classifier:
a variational circuit whose single readout qubit is trained against a
classical loss on its Pauli-Z expectation.  This module reimplements that
*style* of model on the library's own simulator so the comparison runs
offline:

* every (normalised) feature is angle-encoded onto its own data qubit with
  ``RY(pi * x)``,
* each variational layer couples every data qubit to the readout qubit with a
  parameterised controlled-RX, followed by a free RX on the readout — the
  same "data qubits talk to one readout" topology as the TFQ tutorial's
  XX/ZZ ansatz, adapted to the continuous angle encoding used throughout this
  library,
* the predicted probability of class 1 is ``(1 - <Z_readout>) / 2`` and
  training minimises binary cross-entropy with the parameter-shift rule.

Like TFQ's published example, the model is **binary only** — the paper makes
the same point when explaining why TFQ is absent from the multi-class
figures.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError, ValidationError
from repro.quantum import gates
from repro.quantum.statevector import Statevector
from repro.utils.math import binary_cross_entropy
from repro.utils.rng import RandomState, ensure_rng


@dataclasses.dataclass
class TFQHistory:
    """Per-epoch metrics of a TFQ-like training run."""

    losses: List[float] = dataclasses.field(default_factory=list)
    train_accuracies: List[float] = dataclasses.field(default_factory=list)
    validation_accuracies: List[Optional[float]] = dataclasses.field(default_factory=list)


class TFQLikeClassifier:
    """Binary variational classifier with expectation-value readout.

    Parameters
    ----------
    num_features:
        Input dimensionality; one data qubit per feature.
    num_layers:
        Number of data-to-readout coupling layers.
    seed:
        Parameter-initialisation seed.
    """

    def __init__(self, num_features: int, num_layers: int = 2, seed: RandomState = None) -> None:
        if num_features <= 0:
            raise ValidationError(f"num_features must be positive, got {num_features}")
        if num_layers <= 0:
            raise ValidationError(f"num_layers must be positive, got {num_layers}")
        self.num_features = int(num_features)
        self.num_layers = int(num_layers)
        self._rng = ensure_rng(seed)
        rng = self._rng
        #: Flat parameter vector: per layer, one CRX angle per data qubit plus
        #: one free RX angle on the readout qubit.
        self.parameters_ = rng.uniform(0.0, np.pi, size=num_layers * (num_features + 1))

    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Number of trainable circuit parameters."""
        return int(self.parameters_.size)

    @property
    def num_qubits(self) -> int:
        """Data qubits plus the readout qubit."""
        return self.num_features + 1

    # ------------------------------------------------------------------ #
    def _readout_expectation(self, features: np.ndarray, parameters: np.ndarray) -> float:
        """Exact ``<Z>`` of the readout qubit for one sample."""
        readout = self.num_features  # last qubit
        state = Statevector(self.num_qubits)
        for qubit, value in enumerate(features):
            state.apply_matrix(gates.ry(math.pi * float(value)), (qubit,))
        cursor = 0
        for _ in range(self.num_layers):
            for qubit in range(self.num_features):
                state.apply_matrix(gates.crx(float(parameters[cursor])), (qubit, readout))
                cursor += 1
            state.apply_matrix(gates.rx(float(parameters[cursor])), (readout,))
            cursor += 1
        return state.expectation_z(readout)

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw readout expectations in ``[-1, 1]`` for each sample."""
        features = self._check_features(features)
        return np.array(
            [self._readout_expectation(row, self.parameters_) for row in features], dtype=float
        )

    def _probabilities(self, features: np.ndarray, parameters: np.ndarray) -> np.ndarray:
        expectations = np.array(
            [self._readout_expectation(row, parameters) for row in features], dtype=float
        )
        return (1.0 - expectations) / 2.0

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of class 1 for each sample."""
        features = self._check_features(features)
        return self._probabilities(features, self.parameters_)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted labels (0 or 1)."""
        return (self.predict_proba(features) >= 0.5).astype(int)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy."""
        labels = np.asarray(labels, dtype=int)
        return float(np.mean(self.predict(features) == labels))

    def _check_features(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.num_features:
            raise ValidationError(
                f"model expects {self.num_features} features, got {features.shape[1]}"
            )
        return features

    # ------------------------------------------------------------------ #
    def _loss(self, parameters: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        return binary_cross_entropy(labels, self._probabilities(features, parameters))

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 10,
        learning_rate: float = 0.3,
        batch_size: int = 8,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        rng: RandomState = None,
    ) -> TFQHistory:
        """Train with the parameter-shift rule on binary cross-entropy."""
        features = self._check_features(features)
        labels = np.asarray(labels, dtype=int)
        if set(np.unique(labels)) - {0, 1}:
            raise TrainingError(
                "TFQLikeClassifier is binary-only: labels must be 0/1 "
                f"(got {sorted(set(labels.tolist()))})"
            )
        if labels.shape != (features.shape[0],):
            raise TrainingError("labels must have one entry per sample")
        # Constructor-seeded default stream (see DNNClassifier.fit).
        generator = ensure_rng(rng) if rng is not None else self._rng
        history = TFQHistory()
        shift = math.pi / 2.0

        for _ in range(epochs):
            order = generator.permutation(features.shape[0])
            for start in range(0, features.shape[0], batch_size):
                batch_index = order[start : start + batch_size]
                x_batch = features[batch_index]
                y_batch = labels[batch_index]
                gradient = np.zeros_like(self.parameters_)
                for index in range(self.parameters_.size):
                    forward = self.parameters_.copy()
                    backward = self.parameters_.copy()
                    forward[index] += shift
                    backward[index] -= shift
                    gradient[index] = 0.5 * (
                        self._loss(forward, x_batch, y_batch)
                        - self._loss(backward, x_batch, y_batch)
                    )
                self.parameters_ -= learning_rate * gradient
            history.losses.append(self._loss(self.parameters_, features, labels))
            history.train_accuracies.append(self.score(features, labels))
            history.validation_accuracies.append(
                self.score(*validation_data) if validation_data is not None else None
            )
        return history
