"""Tests for the trainer and its configuration."""

import itertools

import numpy as np
import pytest

from repro.core import QuClassi
from repro.core.callbacks import Callback
from repro.core.swap_test import FidelityEstimator
from repro.core.trainer import Trainer, TrainerConfig, _class_epoch_update
from repro.datasets import load_iris, prepare_task
from repro.exceptions import TrainingError
from repro.hardware import IBMQBackend
from repro.quantum.backend import SampledBackend
from repro.utils.rng import spawn_rngs


class RowLoopEstimator(FidelityEstimator):
    """Implements only ``fidelity``/``fidelities``: ``fidelity_matrix`` is the
    base class's per-row loop, the path custom estimators take."""

    def __init__(self, inner):
        super().__init__(inner.builder)
        self.inner = inner

    def fidelity(self, parameter_values, features):
        return self.inner.fidelity(parameter_values, features)

    def fidelities(self, parameter_values, feature_matrix):
        return self.inner.fidelities(parameter_values, feature_matrix)


def separable_task(seed: int = 0, samples: int = 12):
    rng = np.random.default_rng(seed)
    low = rng.uniform(0.05, 0.3, size=(samples, 4))
    high = rng.uniform(0.7, 0.95, size=(samples, 4))
    features = np.vstack([low, high])
    labels = np.array([0] * samples + [1] * samples)
    return features, labels


class TestTrainerConfig:
    def test_defaults_follow_paper(self):
        config = TrainerConfig()
        assert config.learning_rate == pytest.approx(0.01)
        assert config.epochs == 25
        assert config.gradient_rule == "epoch_scaled"
        assert config.cost == "cross_entropy"

    def test_invalid_learning_rate(self):
        with pytest.raises(TrainingError):
            TrainerConfig(learning_rate=0.0)

    def test_invalid_epochs(self):
        with pytest.raises(TrainingError):
            TrainerConfig(epochs=0)

    def test_invalid_update_mode(self):
        with pytest.raises(TrainingError):
            TrainerConfig(update="minibatch")

    def test_invalid_batch_size(self):
        with pytest.raises(TrainingError):
            TrainerConfig(batch_size=-1)


class TestTrainerFit:
    def test_history_length_matches_epochs(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=3, learning_rate=0.1), rng=0)
        history = trainer.fit(features, labels)
        assert len(history.records) == 3
        assert history.epochs == [1, 2, 3]

    def test_per_class_losses_recorded(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=2, learning_rate=0.1), rng=0)
        history = trainer.fit(features, labels)
        assert history.per_class_losses().shape == (2, 2)

    def test_gradient_norm_positive_while_learning(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1, learning_rate=0.1), rng=0)
        history = trainer.fit(features, labels)
        assert history.records[0].gradient_norm > 0

    def test_one_vs_rest_disabled_trains_on_own_class_only(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        config = TrainerConfig(epochs=2, learning_rate=0.1, one_vs_rest=False)
        history = Trainer(model, config, rng=0).fit(features, labels)
        assert len(history.records) == 2

    def test_parameters_change_during_training(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        before = model.get_weights()
        Trainer(model, TrainerConfig(epochs=1, learning_rate=0.1), rng=0).fit(features, labels)
        assert not np.allclose(before, model.parameters_)

    def test_label_validation(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1), rng=0)
        with pytest.raises(TrainingError):
            trainer.fit(features, labels * 3)

    def test_feature_validation(self):
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1), rng=0)
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((3, 2)), np.array([0, 1, 0]))

    def test_labels_length_validation(self):
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1), rng=0)
        with pytest.raises(TrainingError):
            trainer.fit(np.full((3, 4), 0.5), np.array([0, 1]))

    def test_reproducible_given_seeds(self):
        features, labels = separable_task()
        runs = []
        for _ in range(2):
            model = QuClassi(num_features=4, num_classes=2, seed=5)
            Trainer(model, TrainerConfig(epochs=2, learning_rate=0.1), rng=11).fit(features, labels)
            runs.append(model.get_weights())
        np.testing.assert_allclose(runs[0], runs[1])

    def test_callback_hooks_invoked_and_early_stopping(self):
        class StopAfterOne(Callback):
            def __init__(self):
                self.begun = False
                self.epochs_seen = 0
                self.ended = False

            def on_train_begin(self, trainer):
                self.begun = True

            def on_epoch_end(self, trainer, record):
                self.epochs_seen += 1

            def on_train_end(self, trainer, history):
                self.ended = True

            def should_stop(self):
                return self.epochs_seen >= 1

        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        callback = StopAfterOne()
        history = Trainer(
            model, TrainerConfig(epochs=10, learning_rate=0.1), callbacks=[callback], rng=0
        ).fit(features, labels)
        assert callback.begun and callback.ended
        assert len(history.records) == 1


class TestPerClassRngStreams:
    """Per-class training draws from spawned child streams, not a shared rng."""

    def test_class_streams_are_independent_of_training_order(self):
        """Exhausting one class's stream must not perturb another's.

        Under the old shared-``self.rng`` threading, every draw any class
        made shifted the stream every later class saw; with per-class
        ``SeedSequence.spawn`` children the streams are disjoint by
        construction.
        """
        from repro.utils.rng import spawn_rngs

        streams_a = spawn_rngs(11, 3)
        streams_b = spawn_rngs(11, 3)
        # Drain class 0's stream heavily in one run only.
        streams_a[0].permutation(1000)
        np.testing.assert_array_equal(
            streams_a[2].permutation(24), streams_b[2].permutation(24)
        )

    def test_shuffled_fit_reproducible_and_shuffle_matters(self):
        features, labels = separable_task()

        def run(shuffle):
            model = QuClassi(num_features=4, num_classes=2, seed=5)
            config = TrainerConfig(epochs=2, learning_rate=0.1, shuffle=shuffle, batch_size=4)
            Trainer(model, config, rng=11).fit(features, labels)
            return model.get_weights()

        np.testing.assert_array_equal(run(True), run(True))
        assert not np.array_equal(run(True), run(False))

    def test_fit_level_rng_controls_shuffles_not_initialisation(self):
        features, labels = separable_task()
        weights = []
        for fit_seed in (1, 2):
            model = QuClassi(num_features=4, num_classes=2, seed=5)
            config = TrainerConfig(epochs=2, learning_rate=0.1, batch_size=4)
            Trainer(model, config, rng=fit_seed).fit(features, labels)
            weights.append(model.get_weights())
        assert not np.array_equal(weights[0], weights[1])


class TestTrainerOrderIndependence:
    """Per-class streams, not one shared ``self.rng``, drive each class's shuffles."""

    @pytest.fixture(scope="class")
    def iris(self):
        return prepare_task(load_iris(), samples_per_class=8, test_fraction=0.25, rng=0)

    @staticmethod
    def _fit(iris, architecture="s", epochs=3):
        model = QuClassi(num_features=4, num_classes=3, architecture=architecture, seed=3)
        model.fit(
            iris.x_train, iris.y_train, epochs=epochs, learning_rate=0.1, rng=7,
            validation_data=(iris.x_test, iris.y_test),
        )
        return model

    @staticmethod
    def _train_classes_alone(iris, order, architecture="s", epochs=3):
        """Each class's parameters after ``_class_epoch_update`` alone, in ``order``."""
        reference = QuClassi(num_features=4, num_classes=3, architecture=architecture, seed=3)
        config = TrainerConfig(epochs=epochs, learning_rate=0.1)
        trainer = Trainer(reference, config=config, rng=7)
        class_rngs = spawn_rngs(trainer.rng, reference.num_classes)
        features = np.asarray(iris.x_train, dtype=float)
        trained = {}
        for class_index in order:
            parameters = reference.parameters_[class_index]
            targets = (np.asarray(iris.y_train) == class_index).astype(float)
            for epoch in range(1, config.epochs + 1):
                parameters, _ = _class_epoch_update(
                    reference.estimator,
                    trainer.gradient_rule,
                    trainer.cost_function,
                    config,
                    parameters,
                    features,
                    targets,
                    epoch,
                    class_rngs[class_index],
                )
            trained[class_index] = parameters
        return trained

    @pytest.fixture(scope="class")
    def fitted(self, iris):
        return self._fit(iris)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_classes_trained_out_of_order_match_fit(self, iris, fitted, order):
        """Training class c alone, in any class order, matches class c in ``fit``.

        With one shared generator threaded through the class loop this could
        not hold: class 1's shuffles depended on class 0 having drawn first.
        """
        for class_index, parameters in self._train_classes_alone(iris, order).items():
            np.testing.assert_array_equal(parameters, fitted.parameters_[class_index])

    @pytest.mark.parametrize("architecture", ["s", "sd", "sde"])
    def test_out_of_order_classes_match_fit_for_every_architecture(self, iris, architecture):
        fitted = self._fit(iris, architecture, epochs=2)
        trained = self._train_classes_alone(iris, [2, 0, 1], architecture, epochs=2)
        for class_index, parameters in trained.items():
            np.testing.assert_array_equal(parameters, fitted.parameters_[class_index])

    def test_early_stop_halts_training_at_the_stop_epoch(self, iris):
        """Callbacks fire during training, so a stop saves the remaining epochs."""

        class StopAfterFirstEpoch(Callback):
            def should_stop(self):
                return True

        def fit(epochs, callbacks):
            model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=3)
            config = TrainerConfig(epochs=epochs, learning_rate=0.1)
            history = Trainer(model, config, callbacks=callbacks, rng=7).fit(
                iris.x_train, iris.y_train
            )
            return model, history

        stopped, history = fit(5, [StopAfterFirstEpoch()])
        one_epoch, _ = fit(1, [])
        assert len(history.records) == 1
        np.testing.assert_array_equal(stopped.parameters_, one_epoch.parameters_)

    def test_rerun_with_same_seed_is_identical(self, iris, fitted):
        assert_same_run(fitted, self._fit(iris))


def assert_same_run(reference, other):
    np.testing.assert_array_equal(reference.parameters_, other.parameters_)
    assert reference.history_.losses == other.history_.losses
    assert (
        reference.history_.per_class_losses().tolist()
        == other.history_.per_class_losses().tolist()
    )
    assert reference.history_.train_accuracies == other.history_.train_accuracies


class TestShotSampledFitReproducibility:
    """Shot-sampled fits repeat exactly: same counts, losses and job ledgers."""

    @pytest.fixture(scope="class")
    def iris(self):
        return prepare_task(load_iris(), samples_per_class=8, test_fraction=0.25, rng=0)

    @staticmethod
    def _fit(iris, backend):
        model = QuClassi(
            num_features=4, num_classes=3, architecture="s", seed=3,
            estimator="swap_test", backend=backend, shots=128,
        )
        model.fit(
            iris.x_train, iris.y_train, epochs=2, learning_rate=0.1, rng=7,
            batch_size=None,
        )
        return model

    @staticmethod
    def _ledger_signature(model):
        return [
            (record.job_id, record.circuit_name, record.shots, record.cx_count, record.depth)
            for record in model.estimator.backend.ledger.records
        ]

    def test_sampled_backend_rerun_is_identical(self, iris):
        assert_same_run(
            self._fit(iris, SampledBackend(shots=128, seed=11)),
            self._fit(iris, SampledBackend(shots=128, seed=11)),
        )

    def test_noisy_backend_rerun_is_identical_with_the_same_ledger(self, iris):
        first = self._fit(iris, IBMQBackend("ibmq_london", seed=11))
        second = self._fit(iris, IBMQBackend("ibmq_london", seed=11))
        assert_same_run(first, second)
        jobs = self._ledger_signature(first)
        assert jobs, "training should have ledgered jobs"
        assert jobs == self._ledger_signature(second)
        assert [job[0] for job in jobs] == list(range(len(jobs)))

    def test_noisy_fit_ledgers_the_backend_latency(self, iris):
        backend = IBMQBackend("ibmq_london", seed=11)
        backend.properties.queue_latency_seconds = 0.001
        model = self._fit(iris, backend)
        latencies = {
            record.queue_latency_seconds
            for record in model.estimator.backend.ledger.records
        }
        assert latencies == {0.001}


class TestBatchedLoopEquivalence:
    """The vectorised analytic estimator must reproduce the trajectory of the
    base class's per-row ``fidelity_matrix`` loop."""

    def _fit(self, force_loop: bool, **fit_kwargs):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=3)
        if force_loop:
            model.estimator = RowLoopEstimator(model.estimator)
        history = model.fit(
            features,
            labels,
            epochs=3,
            rng=np.random.default_rng(7),
            **fit_kwargs,
        )
        return model, history

    def test_analytic_estimator_uses_batched_path(self):
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0)
        rows = []
        sweep = model.estimator.fidelity_matrix

        def recording_sweep(parameter_matrix, features):
            rows.append(parameter_matrix.shape[0])
            return sweep(parameter_matrix, features)

        model.estimator.fidelity_matrix = recording_sweep
        features, labels = separable_task()
        Trainer(model, TrainerConfig(epochs=1)).fit(features, labels)
        assert 2 * model.builder.num_parameters in rows

    def test_identical_parameter_trajectories(self):
        batched_model, batched_history = self._fit(force_loop=False)
        loop_model, loop_history = self._fit(force_loop=True)
        np.testing.assert_allclose(
            batched_model.parameters_, loop_model.parameters_, atol=1e-10
        )
        for batched_record, loop_record in zip(batched_history.records, loop_history.records):
            assert batched_record.loss == pytest.approx(loop_record.loss, abs=1e-10)
            assert batched_record.gradient_norm == pytest.approx(
                loop_record.gradient_norm, abs=1e-10
            )

    def test_identical_trajectories_stochastic_update(self):
        batched_model, _ = self._fit(force_loop=False, update="stochastic")
        loop_model, _ = self._fit(force_loop=True, update="stochastic")
        np.testing.assert_allclose(
            batched_model.parameters_, loop_model.parameters_, atol=1e-10
        )

    def test_identical_trajectories_negative_fidelity_cost(self):
        batched_model, _ = self._fit(force_loop=False, cost="negative_fidelity")
        loop_model, _ = self._fit(force_loop=True, cost="negative_fidelity")
        np.testing.assert_allclose(
            batched_model.parameters_, loop_model.parameters_, atol=1e-10
        )

    def test_batched_inference_matches_loop(self):
        features, labels = separable_task()
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=3)
        batched = model.class_fidelities(features)
        model.estimator = RowLoopEstimator(model.estimator)
        loop = model.class_fidelities(features)
        np.testing.assert_allclose(batched, loop, atol=1e-12)
