"""The QuClassi classifier (paper Section 4).

:class:`QuClassi` bundles everything the paper's architecture needs: one
trained quantum state per class (built from a stack of QC-S / QC-D / QC-E
layers), a data encoder, a fidelity estimator, softmax inference over the
per-class fidelities, and a scikit-learn-style ``fit`` / ``predict`` API.

Typical use::

    from repro.core import QuClassi
    from repro.datasets import load_iris, prepare_task

    data = prepare_task(load_iris(), n_components=None, rng=0)
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=0)
    model.fit(data.x_train, data.y_train, epochs=25)
    print(model.score(data.x_test, data.y_test))
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.callbacks import Callback, TrainingHistory
from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.inference import (
    accuracy,
    fidelities_to_probabilities,
    predict_from_fidelities,
)
from repro.core.layers import LayerStack
from repro.core.swap_test import (
    AnalyticFidelityEstimator,
    FidelityEstimator,
    SwapTestFidelityEstimator,
)
from repro.core.trainer import Trainer, TrainerConfig
from repro.encoding.angle import DualAngleEncoder
from repro.encoding.base import DataEncoder
from repro.exceptions import TrainingError, ValidationError
from repro.quantum.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector
from repro.utils.rng import RandomState, ensure_rng


class QuClassi:
    """Quantum-state-fidelity classifier for binary and multi-class problems.

    Parameters
    ----------
    num_features:
        Dimensionality of the (reduced, normalised-to-``[0, 1]``) inputs.
    num_classes:
        Number of classes; one trained state is maintained per class.
    architecture:
        Layer-stack string: ``"s"`` (QC-S, default), ``"sd"`` (QC-SD),
        ``"sde"`` (QC-SDE), or any combination of the codes ``s``/``d``/``e``.
    encoder:
        Classical-to-quantum data encoder; defaults to the paper's
        two-dimensions-per-qubit :class:`~repro.encoding.angle.DualAngleEncoder`.
    estimator:
        ``"analytic"`` (default) for closed-form fidelities, ``"swap_test"``
        for circuit execution on ``backend`` with ``shots`` shots, or a
        ready-made :class:`~repro.core.swap_test.FidelityEstimator`.
    backend, shots:
        Execution backend and shot count used when ``estimator="swap_test"``.
    temperature:
        Softmax temperature for multi-class inference.
    seed:
        Seed for parameter initialisation (uniform in ``[0, pi]``, as in
        Algorithm 1).
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        architecture: str = "s",
        encoder: Optional[DataEncoder] = None,
        estimator: "str | FidelityEstimator" = "analytic",
        backend: Optional[Backend] = None,
        shots: Optional[int] = 1024,
        temperature: float = 1.0,
        seed: RandomState = None,
    ) -> None:
        if num_classes < 2:
            raise ValidationError(f"num_classes must be at least 2, got {num_classes}")
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.architecture = architecture.strip().lower().replace("qc-", "")
        self.encoder = encoder if encoder is not None else DualAngleEncoder()
        self.temperature = float(temperature)
        self._rng = ensure_rng(seed)

        state_width = self.encoder.num_qubits(self.num_features)
        self.layer_stack = LayerStack.from_architecture(self.architecture, state_width)
        self.builder = DiscriminatorCircuitBuilder(self.layer_stack, self.encoder, self.num_features)
        self.estimator = self._resolve_estimator(estimator, backend, shots)

        #: Per-class trainable parameters, shape ``(num_classes, params_per_class)``.
        self.parameters_ = self._rng.uniform(
            0.0, np.pi, size=(self.num_classes, self.builder.num_parameters)
        )
        #: History of the most recent :meth:`fit` call (``None`` before training).
        self.history_: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _resolve_estimator(
        self,
        estimator: "str | FidelityEstimator",
        backend: Optional[Backend],
        shots: Optional[int],
    ) -> FidelityEstimator:
        if isinstance(estimator, FidelityEstimator):
            return estimator
        name = str(estimator).strip().lower()
        if name == "analytic":
            return AnalyticFidelityEstimator(self.builder)
        if name in ("swap_test", "swap-test", "sampled"):
            return SwapTestFidelityEstimator(self.builder, backend=backend, shots=shots)
        raise ValidationError(f"unknown estimator '{estimator}'")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def parameters_per_class(self) -> int:
        """Trainable parameters of one class's state."""
        return self.builder.num_parameters

    @property
    def num_parameters(self) -> int:
        """Total trainable parameters across every class."""
        return self.parameters_per_class * self.num_classes

    @property
    def num_qubits(self) -> int:
        """Qubits of one discriminator circuit: ancilla + trained + data registers."""
        return self.builder.layout.total_qubits

    def trained_statevector(self, class_index: int) -> Statevector:
        """The trained state ``|omega_c>`` of one class (analytic form)."""
        self._check_class_index(class_index)
        circuit = self.builder.trained_state_circuit(self.parameters_[class_index])
        return Statevector(circuit.num_qubits).evolve(circuit)

    def discriminator_circuit(self, class_index: int, features: Sequence[float]) -> QuantumCircuit:
        """Fully bound SWAP-test discriminator circuit for one class and sample."""
        self._check_class_index(class_index)
        return self.builder.build(
            features,
            parameter_values=self.parameters_[class_index],
            name=f"quclassi_class{class_index}",
        )

    def _check_class_index(self, class_index: int) -> None:
        if not 0 <= class_index < self.num_classes:
            raise ValidationError(
                f"class_index must lie in [0, {self.num_classes - 1}], got {class_index}"
            )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 25,
        learning_rate: float = 0.01,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        gradient_rule: str = "epoch_scaled",
        cost: str = "cross_entropy",
        update: str = "batch",
        batch_size: Optional[int] = 8,
        one_vs_rest: bool = True,
        callbacks: Optional[Sequence[Callback]] = None,
        rng: RandomState = None,
        executor=None,
    ) -> TrainingHistory:
        """Train the per-class states; see :class:`~repro.core.trainer.Trainer`.

        ``executor`` optionally shards the per-class training loops across a
        :class:`~repro.parallel.ShardExecutor` worker pool (or a strategy
        string ``"serial"``/``"thread"``/``"process"``); the result is
        bit-identical across the three strategies (and matches
        ``executor=None`` whenever training draws no shot-sampling
        randomness — see :mod:`repro.parallel`).
        """
        config = TrainerConfig(
            learning_rate=learning_rate,
            epochs=epochs,
            gradient_rule=gradient_rule,
            cost=cost,
            update=update,
            batch_size=batch_size,
            one_vs_rest=one_vs_rest,
        )
        trainer = Trainer(self, config=config, callbacks=callbacks, rng=rng if rng is not None else self._rng)
        self.history_ = trainer.fit(
            features, labels, validation_data=validation_data, executor=executor
        )
        return self.history_

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def class_fidelities(self, features: np.ndarray) -> np.ndarray:
        """Per-class SWAP-test fidelities, shape ``(n_samples, n_classes)``."""
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.num_features:
            raise ValidationError(
                f"model expects {self.num_features} features, got {features.shape[1]}"
            )
        # One (class-row x sample) fidelity matrix: the per-class parameter
        # matrix is already the batch.
        return self.estimator.fidelity_matrix(self.parameters_, features).T

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmaxed class probabilities, shape ``(n_samples, n_classes)``."""
        return fidelities_to_probabilities(self.class_fidelities(features), self.temperature)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return predict_from_fidelities(self.class_fidelities(features))

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(features, labels)``."""
        labels = np.asarray(labels, dtype=int)
        return accuracy(self.predict(features), labels)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def get_weights(self) -> np.ndarray:
        """Copy of the per-class parameter matrix."""
        return self.parameters_.copy()

    def set_weights(self, weights: np.ndarray) -> None:
        """Overwrite the per-class parameter matrix (shape-checked)."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.parameters_.shape:
            raise TrainingError(
                f"weights shape {weights.shape} does not match expected {self.parameters_.shape}"
            )
        self.parameters_ = weights.copy()

    def save(self, path: str) -> None:
        """Serialise the model configuration and weights to a JSON file."""
        from repro.core.serialization import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path: str) -> "QuClassi":
        """Load a model previously stored with :meth:`save`."""
        from repro.core.serialization import load_model

        return load_model(path)
