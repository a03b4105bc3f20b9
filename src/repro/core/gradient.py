"""Gradient rules for the quantum parameters (paper Eq. 15).

The paper differentiates the cost with a central-difference-style rule whose
shift shrinks with the training epoch:

``dCost/dtheta_i ≈ (f(theta_i + pi / (2 sqrt(epoch))) - f(theta_i - pi / (2 sqrt(epoch)))) / 2``

The epoch-dependent shift starts wide (broad search of the cost landscape)
and narrows as training proceeds, which the authors credit for stable
convergence.  The classic parameter-shift rule (fixed shift ``pi / 2``) is
provided as the ablation baseline, and a small-step central finite
difference as a numerical cross-check used in tests.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Callable

import numpy as np

from repro.exceptions import ValidationError

#: A loss functional of the flat parameter vector.
LossFunction = Callable[[np.ndarray], float]

#: A vectorised loss functional: maps a ``(batch, P)`` parameter matrix to a
#: length-``batch`` loss vector (one loss per row).
MultiLossFunction = Callable[[np.ndarray], np.ndarray]


class GradientRule(abc.ABC):
    """Estimates the gradient of a loss with respect to circuit parameters."""

    @abc.abstractmethod
    def shift(self, epoch: int) -> float:
        """Parameter shift used at the given (1-based) epoch."""

    def gradient(self, loss: LossFunction, parameters: np.ndarray, epoch: int = 1) -> np.ndarray:
        """Estimate the full gradient vector at ``parameters``.

        Evaluates the loss twice per parameter (forward and backward shift),
        exactly as Algorithm 1 does with its ``delta_fwd`` / ``delta_bck``
        circuit evaluations.
        """
        parameters = np.asarray(parameters, dtype=float)
        if parameters.ndim != 1:
            raise ValidationError(f"parameters must be a flat vector, got shape {parameters.shape}")
        shift = self.shift(epoch)
        gradient = np.zeros_like(parameters)
        for index in range(parameters.size):
            forward = parameters.copy()
            backward = parameters.copy()
            forward[index] += shift
            backward[index] -= shift
            gradient[index] = 0.5 * (loss(forward) - loss(backward))
        return gradient

    def shifted_parameter_matrix(self, parameters: np.ndarray, epoch: int = 1) -> np.ndarray:
        """All ``2P`` shifted parameter vectors of one gradient evaluation.

        Row ``i`` (``i < P``) is ``parameters`` with ``+shift`` on parameter
        ``i``; row ``P + i`` carries the matching ``-shift``.  Feeding this
        matrix to a vectorised multi-loss callable turns the whole sweep into
        one batched pass.
        """
        parameters = np.asarray(parameters, dtype=float)
        if parameters.ndim != 1:
            raise ValidationError(f"parameters must be a flat vector, got shape {parameters.shape}")
        shift = self.shift(epoch)
        offsets = np.eye(parameters.size) * shift
        return np.concatenate([parameters + offsets, parameters - offsets], axis=0)

    def gradient_batched(
        self, multi_loss: MultiLossFunction, parameters: np.ndarray, epoch: int = 1
    ) -> np.ndarray:
        """Batched counterpart of :meth:`gradient`.

        Builds the ``2P`` shifted vectors at once, evaluates them with a
        single call to ``multi_loss``, and combines forward/backward halves
        exactly like the loop path — same estimator, one vectorised pass.
        Both fidelity estimators feed this through one tiled compile-once
        sweep: the analytic engine evolves the whole shift matrix through
        its compiled :class:`~repro.quantum.program.SweepProgram`, and the
        SWAP-test estimator hands the full (shift-row x sample) grid to its
        backend's whole-grid program, tiled under the estimator's amplitude
        budget.
        """
        parameters = np.asarray(parameters, dtype=float)
        stacked = self.shifted_parameter_matrix(parameters, epoch)
        losses = np.asarray(multi_loss(stacked), dtype=float).reshape(-1)
        if losses.shape[0] != stacked.shape[0]:
            raise ValidationError(
                f"multi_loss returned {losses.shape[0]} losses for "
                f"{stacked.shape[0]} parameter rows"
            )
        half = parameters.size
        return 0.5 * (losses[:half] - losses[half:])


@dataclasses.dataclass(frozen=True)
class EpochScaledShiftRule(GradientRule):
    """The paper's rule: shift ``pi / (2 sqrt(epoch))`` (Eq. 15).

    Attributes
    ----------
    base_shift:
        Numerator of the shift; ``pi / 2`` reproduces the paper.
    minimum_shift:
        Lower bound that keeps very long runs from collapsing the shift to
        numerical noise.
    """

    base_shift: float = math.pi / 2.0
    minimum_shift: float = 1e-3

    def shift(self, epoch: int) -> float:
        if epoch < 1:
            raise ValidationError(f"epoch must be >= 1, got {epoch}")
        return max(self.base_shift / math.sqrt(epoch), self.minimum_shift)


@dataclasses.dataclass(frozen=True)
class ParameterShiftRule(GradientRule):
    """Classic fixed parameter-shift rule with shift ``pi / 2`` (ablation)."""

    fixed_shift: float = math.pi / 2.0

    def shift(self, epoch: int) -> float:
        if epoch < 1:
            raise ValidationError(f"epoch must be >= 1, got {epoch}")
        return self.fixed_shift


@dataclasses.dataclass(frozen=True)
class FiniteDifferenceRule(GradientRule):
    """Small-step central finite difference (numerical cross-check).

    Unlike the shift rules, the returned values approximate the true local
    derivative (divided by the step), so this rule rescales the half-difference
    accordingly.
    """

    step: float = 1e-4

    def shift(self, epoch: int) -> float:
        if epoch < 1:
            raise ValidationError(f"epoch must be >= 1, got {epoch}")
        return self.step

    def gradient(self, loss: LossFunction, parameters: np.ndarray, epoch: int = 1) -> np.ndarray:
        raw = super().gradient(loss, parameters, epoch)
        return raw / self.step

    def gradient_batched(
        self, multi_loss: "MultiLossFunction", parameters: np.ndarray, epoch: int = 1
    ) -> np.ndarray:
        raw = super().gradient_batched(multi_loss, parameters, epoch)
        return raw / self.step


def resolve_gradient_rule(rule: "str | GradientRule") -> GradientRule:
    """Resolve a gradient-rule specification into an instance.

    Accepts ``"epoch_scaled"`` (paper default), ``"parameter_shift"``,
    ``"finite_difference"``, or an existing :class:`GradientRule`.
    """
    if isinstance(rule, GradientRule):
        return rule
    name = str(rule).strip().lower()
    if name in ("epoch_scaled", "epoch", "quclassi"):
        return EpochScaledShiftRule()
    if name in ("parameter_shift", "shift"):
        return ParameterShiftRule()
    if name in ("finite_difference", "fd"):
        return FiniteDifferenceRule()
    raise ValidationError(f"unknown gradient rule '{rule}'")
