"""QuantumFlow-like (QF-pNet) baseline surrogate.

QuantumFlow (Jiang et al., 2020) — the paper's strongest quantum competitor —
trains a "quantum-friendly" network classically and then maps it onto a
circuit.  Its characteristic building block (the *p-layer*) computes, for a
unit-normalised input vector ``x`` and unit-normalised weight vector ``w``,
the squared inner product ``(w . x)^2`` — exactly the quantity a quantum
circuit realises as a state overlap.  The published source and trained
weights are not available offline, so this module provides a behavioural
surrogate with the same structure:

* inputs are L2-normalised (amplitude-encoding semantics),
* a hidden p-layer of ``(w_j . x)^2`` neurons with unit-norm weights,
* a softmax output layer,
* classical SGD training on cross-entropy (QuantumFlow's training is fully
  classical — the paper criticises precisely this point).

The surrogate reproduces the *comparative* behaviour the paper reports
(competitive on binary tasks, degrading as the class count grows because the
squared-overlap features lose sign information), not QuantumFlow's absolute
published numbers; EXPERIMENTS.md spells this out per figure.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError, ValidationError
from repro.utils.math import one_hot, softmax
from repro.utils.rng import RandomState, ensure_rng


@dataclasses.dataclass
class QFHistory:
    """Per-epoch metrics of a QF-pNet-like training run."""

    losses: List[float] = dataclasses.field(default_factory=list)
    train_accuracies: List[float] = dataclasses.field(default_factory=list)
    validation_accuracies: List[Optional[float]] = dataclasses.field(default_factory=list)


class QFpNetLikeClassifier:
    """Surrogate of QuantumFlow's QF-pNet.

    Parameters
    ----------
    num_features:
        Input dimensionality.
    num_classes:
        Number of output classes.
    hidden_units:
        Number of p-layer neurons.
    seed:
        Weight-initialisation seed.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden_units: int = 8,
        seed: RandomState = None,
    ) -> None:
        if num_features <= 0 or hidden_units <= 0 or num_classes < 2:
            raise ValidationError(
                "num_features and hidden_units must be positive and num_classes >= 2 "
                f"(got {num_features}, {num_classes}, {hidden_units})"
            )
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.hidden_units = int(hidden_units)
        self._rng = ensure_rng(seed)
        rng = self._rng
        self.weights_p = rng.normal(0.0, 1.0, size=(hidden_units, num_features))
        self.weights_output = rng.normal(0.0, 1.0 / np.sqrt(hidden_units), size=(hidden_units, num_classes))
        self.bias_output = np.zeros(num_classes)

    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return int(self.weights_p.size + self.weights_output.size + self.bias_output.size)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms = np.where(norms == 0.0, 1.0, norms)
        return matrix / norms

    def _forward(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Forward pass; returns normalised inputs, overlaps, p-activations, probabilities."""
        x_hat = self._normalize_rows(features)
        w_hat = self._normalize_rows(self.weights_p)
        overlaps = x_hat @ w_hat.T                       # (n, hidden)
        activations = overlaps**2                        # the p-layer: squared state overlap
        logits = activations @ self.weights_output + self.bias_output
        return x_hat, overlaps, activations, softmax(logits, axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities."""
        features = self._check_features(features)
        return self._forward(features)[3]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return np.argmax(self.predict_proba(features), axis=1)

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
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 25,
        learning_rate: float = 0.05,
        batch_size: int = 8,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        rng: RandomState = None,
    ) -> QFHistory:
        """Classical SGD training on the categorical cross-entropy."""
        features = self._check_features(features)
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (features.shape[0],):
            raise TrainingError("labels must have one entry per sample")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise TrainingError(
                f"labels must lie in [0, {self.num_classes - 1}], got "
                f"[{labels.min()}, {labels.max()}]"
            )
        targets = one_hot(labels, self.num_classes)
        # Constructor-seeded default stream (see DNNClassifier.fit).
        generator = ensure_rng(rng) if rng is not None else self._rng
        history = QFHistory()

        for _ in range(epochs):
            order = generator.permutation(features.shape[0])
            epoch_loss = 0.0
            batches = 0
            for start in range(0, features.shape[0], batch_size):
                batch_index = order[start : start + batch_size]
                x_batch = features[batch_index]
                y_batch = targets[batch_index]
                x_hat, overlaps, activations, probabilities = self._forward(x_batch)
                batch_loss = -np.mean(
                    np.sum(y_batch * np.log(np.clip(probabilities, 1e-12, 1.0)), axis=1)
                )
                epoch_loss += float(batch_loss)
                batches += 1

                n = x_batch.shape[0]
                delta_logits = (probabilities - y_batch) / n        # (n, classes)
                grad_w_out = activations.T @ delta_logits           # (hidden, classes)
                grad_b_out = delta_logits.sum(axis=0)
                # Backprop through the squared overlap: d(a_j)/d(overlap_j) = 2 * overlap_j.
                delta_act = delta_logits @ self.weights_output.T    # (n, hidden)
                delta_overlap = delta_act * 2.0 * overlaps          # (n, hidden)
                # Gradient w.r.t. the *unnormalised* weight rows, through the
                # row normalisation w_hat = w / ||w||.
                w_hat = self._normalize_rows(self.weights_p)
                norms = np.linalg.norm(self.weights_p, axis=1, keepdims=True)
                norms = np.where(norms == 0.0, 1.0, norms)
                grad_w_hat = delta_overlap.T @ x_hat                # (hidden, features)
                projection = np.sum(grad_w_hat * w_hat, axis=1, keepdims=True)
                grad_w_p = (grad_w_hat - projection * w_hat) / norms

                self.weights_output -= learning_rate * grad_w_out
                self.bias_output -= learning_rate * grad_b_out
                self.weights_p -= learning_rate * grad_w_p
            history.losses.append(epoch_loss / max(batches, 1))
            history.train_accuracies.append(self.score(features, labels))
            history.validation_accuracies.append(
                self.score(*validation_data) if validation_data is not None else None
            )
        return history
