"""Classical deep-neural-network baseline (the paper's ``DNN-kP`` models).

The paper compares QuClassi against fully classical multilayer perceptrons
named by their total parameter count (DNN-12, DNN-28, ..., DNN-1218) and
trained with the same SGD learning rate and the same normalised, PCA-reduced
inputs.  :class:`DNNClassifier` is a from-scratch NumPy MLP with one hidden
layer (sigmoid activation) and a softmax output, and
:func:`dnn_for_parameter_budget` picks the hidden width that brings the total
parameter count as close as possible to a requested budget, mirroring how the
paper sizes its comparison networks.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.optimizers import SGD
from repro.exceptions import TrainingError, ValidationError
from repro.utils.math import one_hot, sigmoid, softmax
from repro.utils.rng import RandomState, ensure_rng


@dataclasses.dataclass
class DNNHistory:
    """Per-epoch metrics of a classical baseline run."""

    losses: List[float] = dataclasses.field(default_factory=list)
    train_accuracies: List[float] = dataclasses.field(default_factory=list)
    validation_accuracies: List[Optional[float]] = dataclasses.field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("history is empty")
        return self.losses[-1]


class DNNClassifier:
    """One-hidden-layer MLP with sigmoid activation and softmax output.

    Parameters
    ----------
    num_features:
        Input dimensionality.
    num_classes:
        Number of output classes (softmax width).
    hidden_units:
        Width of the hidden layer.
    seed:
        Seed for weight initialisation.
    """

    def __init__(self, num_features: int, num_classes: int, hidden_units: int, seed: RandomState = None) -> None:
        if num_features <= 0 or num_classes < 2 or hidden_units <= 0:
            raise ValidationError(
                "num_features and hidden_units must be positive and num_classes >= 2 "
                f"(got {num_features}, {num_classes}, {hidden_units})"
            )
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.hidden_units = int(hidden_units)
        self._rng = ensure_rng(seed)
        rng = self._rng
        scale_hidden = 1.0 / np.sqrt(num_features)
        scale_output = 1.0 / np.sqrt(hidden_units)
        self.weights_hidden = rng.normal(0.0, scale_hidden, size=(num_features, hidden_units))
        self.bias_hidden = np.zeros(hidden_units)
        self.weights_output = rng.normal(0.0, scale_output, size=(hidden_units, num_classes))
        self.bias_output = np.zeros(num_classes)

    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count (the ``k`` in ``DNN-kP``)."""
        return int(
            self.weights_hidden.size
            + self.bias_hidden.size
            + self.weights_output.size
            + self.bias_output.size
        )

    # ------------------------------------------------------------------ #
    def _forward(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hidden = sigmoid(features @ self.weights_hidden + self.bias_hidden)
        logits = hidden @ self.weights_output + self.bias_output
        return hidden, softmax(logits, axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities, shape ``(n_samples, n_classes)``."""
        features = self._check_features(features)
        return self._forward(features)[1]

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
        learning_rate: float = 0.01,
        batch_size: int = 8,
        momentum: float = 0.0,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        rng: RandomState = None,
    ) -> DNNHistory:
        """Train with minibatch SGD on the categorical cross-entropy."""
        features = self._check_features(features)
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (features.shape[0],):
            raise TrainingError("labels must have one entry per sample")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise TrainingError(
                f"labels must lie in [0, {self.num_classes - 1}], got "
                f"[{labels.min()}, {labels.max()}]"
            )
        if epochs <= 0 or batch_size <= 0:
            raise TrainingError("epochs and batch_size must be positive")
        targets = one_hot(labels, self.num_classes)
        optimizer = SGD(learning_rate=learning_rate, momentum=momentum)
        # Default to the constructor-seeded stream: a bare ``fit()`` must be
        # deterministic given the model seed, or figure sweeps cannot be
        # reproduced bit-for-bit.
        generator = ensure_rng(rng) if rng is not None else self._rng
        history = DNNHistory()

        for _ in range(epochs):
            order = generator.permutation(features.shape[0])
            epoch_loss = 0.0
            batches = 0
            for start in range(0, features.shape[0], batch_size):
                batch_index = order[start : start + batch_size]
                x_batch = features[batch_index]
                y_batch = targets[batch_index]
                hidden, probabilities = self._forward(x_batch)
                batch_loss = -np.mean(
                    np.sum(y_batch * np.log(np.clip(probabilities, 1e-12, 1.0)), axis=1)
                )
                epoch_loss += float(batch_loss)
                batches += 1

                # Backpropagation for softmax + cross-entropy.
                delta_output = (probabilities - y_batch) / x_batch.shape[0]
                grad_weights_output = hidden.T @ delta_output
                grad_bias_output = delta_output.sum(axis=0)
                delta_hidden = (delta_output @ self.weights_output.T) * hidden * (1.0 - hidden)
                grad_weights_hidden = x_batch.T @ delta_hidden
                grad_bias_hidden = delta_hidden.sum(axis=0)

                optimizer.step(
                    [self.weights_hidden, self.bias_hidden, self.weights_output, self.bias_output],
                    [grad_weights_hidden, grad_bias_hidden, grad_weights_output, grad_bias_output],
                )
            optimizer.end_epoch()
            history.losses.append(epoch_loss / max(batches, 1))
            history.train_accuracies.append(self.score(features, labels))
            history.validation_accuracies.append(
                self.score(*validation_data) if validation_data is not None else None
            )
        return history


def hidden_units_for_budget(num_features: int, num_classes: int, parameter_budget: int) -> int:
    """Hidden width whose total parameter count best matches ``parameter_budget``.

    The total count of a one-hidden-layer MLP is
    ``h * (num_features + num_classes + 1) + num_classes``.
    """
    if parameter_budget <= num_classes:
        raise ValidationError(
            f"parameter_budget={parameter_budget} is too small for {num_classes} output biases"
        )
    per_unit = num_features + num_classes + 1
    exact = (parameter_budget - num_classes) / per_unit
    best = max(1, int(round(exact)))
    return best


def dnn_for_parameter_budget(
    num_features: int,
    num_classes: int,
    parameter_budget: int,
    seed: RandomState = None,
) -> DNNClassifier:
    """Build a ``DNN-kP``-style classifier with roughly ``parameter_budget`` parameters."""
    hidden = hidden_units_for_budget(num_features, num_classes, parameter_budget)
    return DNNClassifier(num_features, num_classes, hidden_units=hidden, seed=seed)
