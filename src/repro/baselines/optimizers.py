"""Optimisers for the classical baselines.

The paper trains its classical comparison networks with plain stochastic
gradient descent using the same learning rate as QuClassi; SGD (optionally
with momentum) is therefore the only optimiser the baselines need, but the
interface is kept generic so the baselines stay readable.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.exceptions import TrainingError


class Optimizer:
    """Base class: updates a list of parameter arrays in place from gradients."""

    def step(self, parameters: List[np.ndarray], gradients: List[np.ndarray]) -> None:
        """Apply one update.  ``parameters[i]`` is modified in place."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and LR decay.

    Parameters
    ----------
    learning_rate:
        Step size.
    momentum:
        Momentum coefficient in ``[0, 1)``; 0 disables momentum.
    decay:
        Multiplicative learning-rate decay applied per epoch via
        :meth:`end_epoch`.
    """

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0, decay: float = 1.0) -> None:
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must lie in [0, 1), got {momentum}")
        if not 0.0 < decay <= 1.0:
            raise TrainingError(f"decay must lie in (0, 1], got {decay}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.decay = float(decay)
        self._velocities: Dict[int, np.ndarray] = {}

    def step(self, parameters: List[np.ndarray], gradients: List[np.ndarray]) -> None:
        if len(parameters) != len(gradients):
            raise TrainingError("parameters and gradients must have the same length")
        for index, (param, grad) in enumerate(zip(parameters, gradients)):
            if param.shape != grad.shape:
                raise TrainingError(
                    f"gradient shape {grad.shape} does not match parameter shape {param.shape}"
                )
            if self.momentum > 0:
                velocity = self._velocities.get(index)
                if velocity is None:
                    velocity = np.zeros_like(param)
                velocity = self.momentum * velocity - self.learning_rate * grad
                self._velocities[index] = velocity
                param += velocity
            else:
                param -= self.learning_rate * grad

    def end_epoch(self) -> None:
        """Apply the per-epoch learning-rate decay."""
        self.learning_rate *= self.decay
