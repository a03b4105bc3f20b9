"""QuClassi training loop (paper Algorithm 1).

The trainer owns the optimisation of a :class:`~repro.core.model.QuClassi`
model's per-class parameter vectors.  For every epoch and every class it
estimates the gradient of the fidelity cross-entropy with the configured
gradient rule — two loss evaluations per parameter, exactly the
``delta_fwd`` / ``delta_bck`` circuit pair of Algorithm 1 — and applies a
plain SGD step with learning rate ``alpha``.

Two update granularities are supported:

* ``"batch"`` (default) — the loss inside the gradient rule averages over the
  whole epoch batch (or a minibatch); one update per class per (mini)batch.
  Mathematically equivalent in expectation to the paper's loop but far fewer
  circuit evaluations, which is what makes the simulator benchmarks tractable.
* ``"stochastic"`` — one update per sample, the literal reading of
  Algorithm 1; used by the hardware-style experiments with small subsamples.

Each gradient evaluation runs through :meth:`GradientRule.gradient_batched`:
all ``2P`` shifted parameter vectors are stacked into one matrix and
evaluated with a single ``fidelity_matrix`` call, which is numerically
equivalent to the per-shift loop (same shifts, same reduction order).  The
analytic estimator evolves the whole matrix in one statevector pass; the
SWAP-test estimator runs the full (shift-row x sample) grid as one tiled
compile-once program — see ``docs/compile_once_programs.md``.  Custom
estimators that only implement ``fidelity`` get the base class's per-row
``fidelity_matrix`` loop.

Per-class random streams (order independence)
---------------------------------------------
Each class's training consumes its *own* random stream, spawned once per
:meth:`Trainer.fit` call via ``SeedSequence.spawn`` — one child per class —
rather than threading one shared generator through the sequential per-class
loop.  With a shared generator, class ``c``'s minibatch shuffles depended on
how many draws the classes trained before it had consumed, so per-class
trajectories changed with training order.  With spawned child streams, every
class's trajectory is a pure function of (its initial parameters, the data,
its own stream): training the classes in any order produces identical
per-class results.

.. note:: **Compatibility.** This changed the mapping from a fit-level seed
   to the realised shuffles once: histories produced by earlier versions
   (one shared generator drawing one permutation per epoch) are not
   seed-for-seed reproducible by this trainer, although both are valid draws
   of the same training distribution.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.callbacks import Callback, EpochRecord, Timer, TrainingHistory
from repro.core.cost import CostFunction, resolve_cost
from repro.core.gradient import GradientRule, resolve_gradient_rule
from repro.exceptions import TrainingError
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs


@dataclasses.dataclass
class TrainerConfig:
    """Hyper-parameters of a training run.

    Defaults follow the paper: learning rate 0.01, 25 epochs, the
    epoch-scaled shift rule, fidelity cross-entropy.  Updates default to
    minibatches of 8 samples (``batch_size=None`` gives full-batch updates,
    ``update="stochastic"`` the paper's literal per-sample loop).
    """

    learning_rate: float = 0.01
    epochs: int = 25
    gradient_rule: str | GradientRule = "epoch_scaled"
    cost: str | CostFunction = "cross_entropy"
    update: str = "batch"
    batch_size: Optional[int] = 8
    one_vs_rest: bool = True
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {self.epochs}")
        if self.update not in ("batch", "stochastic"):
            raise TrainingError(f"update must be 'batch' or 'stochastic', got {self.update!r}")
        if self.batch_size is not None and self.batch_size <= 0:
            raise TrainingError(f"batch_size must be positive, got {self.batch_size}")


# --------------------------------------------------------------------------- #
# Per-class training kernel
# --------------------------------------------------------------------------- #


def _multi_loss_closure(estimator, cost_function, features: np.ndarray, targets: np.ndarray):
    """Vectorised loss over a ``(batch, params)`` parameter matrix."""
    batched_cost = getattr(cost_function, "batched", None)

    def multi_loss(parameter_matrix: np.ndarray) -> np.ndarray:
        fidelity_matrix = estimator.fidelity_matrix(parameter_matrix, features)
        if batched_cost is not None:
            return batched_cost(fidelity_matrix, targets)
        return np.array([cost_function(row, targets) for row in fidelity_matrix], dtype=float)

    return multi_loss


def _class_epoch_update(
    estimator,
    gradient_rule: GradientRule,
    cost_function,
    config: TrainerConfig,
    parameters: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    epoch: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float]:
    """One epoch of SGD updates for one class.

    Pure with respect to everything outside its arguments: all randomness
    (the minibatch shuffle) comes from the class's own ``rng`` stream, so a
    class's trajectory does not depend on which classes trained before it.
    Returns ``(updated_parameters, squared_gradient_norm)``.
    """
    if config.shuffle:
        order = rng.permutation(features.shape[0])
        features = features[order]
        targets = targets[order]
    if not config.one_vs_rest:
        mask = targets > 0.5
        if not mask.any():
            return parameters, 0.0
        features = features[mask]
        targets = targets[mask]

    if config.update == "stochastic":
        batches = [(features[i : i + 1], targets[i : i + 1]) for i in range(features.shape[0])]
    else:
        size = config.batch_size or features.shape[0]
        batches = [
            (features[start : start + size], targets[start : start + size])
            for start in range(0, features.shape[0], size)
        ]

    accumulated_norm_sq = 0.0
    for batch_features, batch_targets in batches:
        gradient = gradient_rule.gradient_batched(
            _multi_loss_closure(estimator, cost_function, batch_features, batch_targets),
            parameters,
            epoch=epoch,
        )
        parameters = parameters - config.learning_rate * gradient
        accumulated_norm_sq += float(np.dot(gradient, gradient))
    return parameters, accumulated_norm_sq


class Trainer:
    """Optimises a QuClassi model's per-class trained states."""

    def __init__(
        self,
        model,
        config: Optional[TrainerConfig] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        rng: RandomState = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else TrainerConfig()
        self.callbacks: List[Callback] = list(callbacks) if callbacks else []
        self.rng = ensure_rng(rng)
        self.gradient_rule = resolve_gradient_rule(self.config.gradient_rule)
        self.cost_function = resolve_cost(self.config.cost)

    # ------------------------------------------------------------------ #
    # Loss helpers
    # ------------------------------------------------------------------ #
    def _class_targets(self, labels: np.ndarray, class_index: int) -> np.ndarray:
        """One-vs-rest targets for a class's discriminator state."""
        return (labels == class_index).astype(float)

    def _class_loss(
        self,
        class_index: int,
        parameters: np.ndarray,
        features: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        fidelities = self.model.estimator.fidelities(parameters, features)
        return self.cost_function(fidelities, targets)

    # ------------------------------------------------------------------ #
    # Fit loop
    # ------------------------------------------------------------------ #
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> TrainingHistory:
        """Train the model in place and return the per-epoch history."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise TrainingError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise TrainingError("labels must have one entry per sample")
        if features.shape[1] != self.model.num_features:
            raise TrainingError(
                f"model expects {self.model.num_features} features, got {features.shape[1]}"
            )
        if labels.max() >= self.model.num_classes or labels.min() < 0:
            raise TrainingError(
                f"labels must lie in [0, {self.model.num_classes - 1}] "
                f"(got range [{labels.min()}, {labels.max()}])"
            )

        # One independent stream per class (SeedSequence.spawn): class c's
        # shuffles cannot depend on which classes trained before it, which is
        # what makes any class order give bit-identical results.
        class_rngs = spawn_rngs(self.rng, self.model.num_classes)

        history = TrainingHistory()
        for callback in self.callbacks:
            callback.on_train_begin(self)

        for epoch in range(1, self.config.epochs + 1):
            timer = Timer()
            gradient_norm_sq = 0.0
            for class_index in range(self.model.num_classes):
                parameters, norm_sq = _class_epoch_update(
                    self.model.estimator,
                    self.gradient_rule,
                    self.cost_function,
                    self.config,
                    self.model.parameters_[class_index],
                    features,
                    self._class_targets(labels, class_index),
                    epoch,
                    class_rngs[class_index],
                )
                self.model.parameters_[class_index] = parameters
                gradient_norm_sq += norm_sq

            record = self._epoch_record(
                epoch, features, labels, validation_data, gradient_norm_sq, timer.elapsed()
            )
            history.append(record)
            for callback in self.callbacks:
                callback.on_epoch_end(self, record)
            if any(callback.should_stop() for callback in self.callbacks):
                break

        for callback in self.callbacks:
            callback.on_train_end(self, history)
        return history

    # ------------------------------------------------------------------ #
    def _epoch_record(
        self,
        epoch: int,
        features: np.ndarray,
        labels: np.ndarray,
        validation_data,
        gradient_norm_sq: float,
        elapsed_seconds: float,
    ) -> EpochRecord:
        """End-of-epoch metrics for the model's *current* parameters."""
        per_class_loss = [
            self._class_loss(
                class_index,
                self.model.parameters_[class_index],
                features,
                self._class_targets(labels, class_index),
            )
            for class_index in range(self.model.num_classes)
        ]
        train_accuracy = self.model.score(features, labels)
        validation_accuracy = (
            self.model.score(validation_data[0], validation_data[1])
            if validation_data is not None
            else None
        )
        return EpochRecord(
            epoch=epoch,
            loss=float(np.mean(per_class_loss)),
            per_class_loss=[float(value) for value in per_class_loss],
            train_accuracy=float(train_accuracy),
            validation_accuracy=(
                float(validation_accuracy) if validation_accuracy is not None else None
            ),
            gradient_norm=float(np.sqrt(gradient_norm_sq)),
            elapsed_seconds=elapsed_seconds,
        )
