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
trajectories changed with training order and could not be sharded.  With
spawned child streams, every class's trajectory is a pure function of (its
initial parameters, the data, its own stream): serial, reordered, and sharded
runs produce identical per-class results.

.. note:: **Compatibility.** This changed the mapping from a fit-level seed
   to the realised shuffles once: histories produced by earlier versions
   (one shared generator drawing one permutation per epoch) are not
   seed-for-seed reproducible by this trainer, although both are valid draws
   of the same training distribution.

Sharded execution
-----------------
``fit(..., executor=ShardExecutor("process", max_workers=4))`` distributes
the per-class training loops across a worker pool: each class is one shard
whose unit of work is the existing batched-gradient fast path.  Workers
rebuild their fidelity estimator from a picklable
:class:`~repro.parallel.plan.EstimatorSpec` (live backends are never
pickled) with a per-class spawned shot-sampling stream, return their
per-epoch parameter snapshots, and the parent reconstructs the usual
:class:`~repro.core.callbacks.TrainingHistory` from the snapshots — so the
sharded result is bit-identical across the ``serial``, ``thread``, and
``process`` strategies.  Hardware-style job ledgers are merged back in shard
(class) order.  Because shards train to completion before metrics are
reconstructed, callbacks fire *after* training: early stopping truncates the
reported history and restores the stop-epoch parameters but cannot save the
already-spent compute, and per-epoch ``elapsed_seconds`` records the
reconstruction cost, not the training cost.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.callbacks import Callback, EpochRecord, Timer, TrainingHistory
from repro.core.cost import CostFunction, resolve_cost
from repro.core.gradient import GradientRule, resolve_gradient_rule
from repro.exceptions import TrainingError
from repro.parallel import EstimatorSpec, ShardExecutor, ShardPlan
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
# Per-class training kernel (shared by the serial loop and shard workers)
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
    class's trajectory is identical whether this runs in the serial loop, a
    thread, or another process.  Returns ``(updated_parameters,
    squared_gradient_norm)``.
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


@dataclasses.dataclass
class _ClassShardTask:
    """Picklable description of one class's full training run."""

    class_index: int
    config: TrainerConfig
    gradient_rule: GradientRule
    cost_function: object
    builder: object
    estimator_spec: EstimatorSpec
    initial_parameters: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    rng: np.random.Generator


@dataclasses.dataclass
class _ClassShardResult:
    """What a class shard sends back to the parent."""

    class_index: int
    #: Per-epoch parameter snapshots, shape ``(epochs, params_per_class)``.
    parameter_snapshots: np.ndarray
    #: Per-epoch squared gradient norms, shape ``(epochs,)``.
    gradient_norms_sq: np.ndarray
    #: Job-ledger entries of the worker's backend, in submission order.
    ledger_records: list
    #: Circuits executed by the worker's estimator (cost accounting).
    circuits_executed: int


def _run_class_shard(shard) -> _ClassShardResult:
    """Worker entry point: train one class for every epoch.

    Reconstructs the fidelity estimator from its spec (fresh backend, the
    shard's own shot-sampling stream) and runs the same
    :func:`_class_epoch_update` kernel the serial loop uses, so the returned
    trajectory is bit-identical to serial execution of this class.
    """
    task: _ClassShardTask = shard.payload
    estimator = task.estimator_spec.build(task.builder)
    parameters = np.asarray(task.initial_parameters, dtype=float).copy()
    snapshots = []
    norms = []
    for epoch in range(1, task.config.epochs + 1):
        parameters, norm_sq = _class_epoch_update(
            estimator,
            task.gradient_rule,
            task.cost_function,
            task.config,
            parameters,
            task.features,
            task.targets,
            epoch,
            task.rng,
        )
        snapshots.append(parameters.copy())
        norms.append(norm_sq)
    ledger = getattr(getattr(estimator, "backend", None), "ledger", None)
    return _ClassShardResult(
        class_index=task.class_index,
        parameter_snapshots=np.array(snapshots, dtype=float),
        gradient_norms_sq=np.array(norms, dtype=float),
        ledger_records=list(ledger.records) if ledger is not None else [],
        circuits_executed=int(getattr(estimator, "circuits_executed", 0)),
    )


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
        executor: "Optional[ShardExecutor | str]" = None,
    ) -> TrainingHistory:
        """Train the model in place and return the per-epoch history.

        Parameters
        ----------
        features, labels, validation_data:
            The training task.
        executor:
            ``None`` (default) trains the per-class loops serially in
            process.  A :class:`~repro.parallel.ShardExecutor` (or a strategy
            string ``"serial"``/``"thread"``/``"process"``) shards the
            per-class training across its worker pool; results are
            bit-identical across strategies (see the module docstring for
            the callback/timing caveats of sharded mode).
        """
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
        # what makes serial, reordered, and sharded runs bit-identical.
        class_rngs = spawn_rngs(self.rng, self.model.num_classes)

        history = TrainingHistory()
        for callback in self.callbacks:
            callback.on_train_begin(self)

        if executor is not None:
            if not isinstance(executor, ShardExecutor):
                executor = ShardExecutor(executor)
            self._fit_sharded(
                features, labels, validation_data, executor, class_rngs, history
            )
        else:
            self._fit_serial(features, labels, validation_data, class_rngs, history)

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

    def _fit_serial(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation_data,
        class_rngs: List[np.random.Generator],
        history: TrainingHistory,
    ) -> None:
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

    def _fit_sharded(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation_data,
        executor: ShardExecutor,
        class_rngs: List[np.random.Generator],
        history: TrainingHistory,
    ) -> None:
        """Train every class as one shard; reconstruct the epoch history.

        Each shard reruns the exact serial kernel for its class with the
        class's own spawned streams, so results do not depend on the
        executor strategy or worker count.  Ledgers of hardware-style
        backends are merged back in shard (class) order, making the job
        sequence deterministic under concurrency.
        """
        num_classes = self.model.num_classes
        estimator_spec = EstimatorSpec.from_estimator(self.model.estimator)
        # Shot-sampling streams are spawned per class *after* the shuffle
        # streams, in class order — strategy-independent by construction.
        backend_rngs = (
            spawn_rngs(self.rng, num_classes) if estimator_spec.samples_shots else None
        )

        tasks = []
        for class_index in range(num_classes):
            spec = estimator_spec
            if backend_rngs is not None:
                spec = spec.with_backend_seed(backend_rngs[class_index])
            tasks.append(
                _ClassShardTask(
                    class_index=class_index,
                    config=self.config,
                    gradient_rule=self.gradient_rule,
                    cost_function=self.cost_function,
                    builder=self.model.builder,
                    estimator_spec=spec,
                    initial_parameters=self.model.parameters_[class_index],
                    features=features,
                    targets=self._class_targets(labels, class_index),
                    rng=class_rngs[class_index],
                )
            )
        plan = ShardPlan.from_items(
            tasks, keys=[("class", class_index) for class_index in range(num_classes)]
        )
        results: List[_ClassShardResult] = executor.map(_run_class_shard, plan)

        # Deterministic ledger merge: shard (class) order, then each worker's
        # submission order — identical for serial, thread, and process runs.
        parent_ledger = getattr(
            getattr(self.model.estimator, "backend", None), "ledger", None
        )
        if parent_ledger is not None:
            for result in results:
                parent_ledger.extend(result.ledger_records)
        if hasattr(self.model.estimator, "circuits_executed"):
            self.model.estimator.circuits_executed += sum(  # repro: noqa REP101 -- parent-side merge, runs in the submitting thread after executor.map returned
                result.circuits_executed for result in results
            )

        snapshots = np.stack(
            [result.parameter_snapshots for result in results]
        )  # (classes, epochs, params)
        norms_sq = np.stack(
            [result.gradient_norms_sq for result in results]
        )  # (classes, epochs)

        for epoch in range(1, self.config.epochs + 1):
            timer = Timer()
            self.model.parameters_ = snapshots[:, epoch - 1, :].copy()
            record = self._epoch_record(
                epoch,
                features,
                labels,
                validation_data,
                float(norms_sq[:, epoch - 1].sum()),
                timer.elapsed(),
            )
            history.append(record)
            for callback in self.callbacks:
                callback.on_epoch_end(self, record)
            if any(callback.should_stop() for callback in self.callbacks):
                # Training already ran to completion on the workers; honour
                # the stop by reporting and keeping the stop-epoch snapshot.
                break
