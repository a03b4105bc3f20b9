"""Sharded execution must be bit-identical to the serial path.

The whole point of ``repro.parallel`` is distributing the per-class training
and figure sweeps *without changing the science*: same losses, same
parameters, same sampled counts, same job ledgers — for both executor
strategies.  These tests pin that guarantee on the Iris workloads
(``QuClassi.fit`` per-class sharding and a fig6b-sized sweep), plus the
trainer-level order-independence it rests on.
"""

import numpy as np
import pytest

from repro.core import QuClassi
from repro.core.trainer import Trainer, TrainerConfig, _run_class_shard
from repro.datasets import load_iris, prepare_task
from repro.experiments import fig6b_iris_accuracy
from repro.hardware import IBMQBackend
from repro.parallel import EstimatorSpec, ShardExecutor, ShardPlan
from repro.quantum.backend import SampledBackend
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def iris():
    return prepare_task(load_iris(), samples_per_class=8, test_fraction=0.25, rng=0)


def _fit_analytic(iris, executor):
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=3)
    model.fit(
        iris.x_train, iris.y_train, epochs=3, learning_rate=0.1, rng=7,
        validation_data=(iris.x_test, iris.y_test), executor=executor,
    )
    return model


def _fit_sampled(iris, executor, backend_factory):
    model = QuClassi(
        num_features=4, num_classes=3, architecture="s", seed=3,
        estimator="swap_test", backend=backend_factory(), shots=128,
    )
    model.fit(
        iris.x_train, iris.y_train, epochs=2, learning_rate=0.1, rng=7,
        batch_size=None, executor=executor,
    )
    return model


def _assert_same_run(reference, other):
    np.testing.assert_array_equal(reference.parameters_, other.parameters_)
    assert reference.history_.losses == other.history_.losses
    assert (
        reference.history_.per_class_losses().tolist()
        == other.history_.per_class_losses().tolist()
    )
    assert (
        reference.history_.train_accuracies == other.history_.train_accuracies
    )


class TestFitEquivalenceAnalytic:
    def test_plain_serial_equals_serial_executor(self, iris):
        _assert_same_run(
            _fit_analytic(iris, None), _fit_analytic(iris, ShardExecutor("serial"))
        )

    def test_thread_equals_serial(self, iris):
        _assert_same_run(
            _fit_analytic(iris, None),
            _fit_analytic(iris, ShardExecutor("thread", max_workers=2)),
        )

    def test_strategy_string_is_accepted(self, iris):
        _assert_same_run(_fit_analytic(iris, None), _fit_analytic(iris, "thread"))


class TestFitEquivalenceSampled:
    """Shot-sampled training: identical counts, losses, and ledgers."""

    def test_thread_equals_serial_executor_on_sampled_backend(self, iris):
        serial = _fit_sampled(iris, ShardExecutor("serial"), lambda: SampledBackend(shots=128, seed=11))
        threaded = _fit_sampled(
            iris, ShardExecutor("thread", max_workers=3), lambda: SampledBackend(shots=128, seed=11)
        )
        _assert_same_run(serial, threaded)

    def test_thread_equals_serial_executor_on_noisy_backend(self, iris):
        serial = _fit_sampled(iris, ShardExecutor("serial"), lambda: IBMQBackend("ibmq_london", seed=11))
        threaded = _fit_sampled(
            iris, ShardExecutor("thread", max_workers=3), lambda: IBMQBackend("ibmq_london", seed=11)
        )
        _assert_same_run(serial, threaded)


class TestLedgerMergeDeterminism:
    """Regression: concurrent shards must ledger the same job sequence as serial."""

    def _ledger_signature(self, model):
        return [
            (record.job_id, record.circuit_name, record.shots, record.cx_count, record.depth)
            for record in model.estimator.backend.ledger.records
        ]

    def test_two_worker_run_ledgers_same_sequence_as_serial(self, iris):
        serial = _fit_sampled(iris, ShardExecutor("serial"), lambda: IBMQBackend("ibmq_london", seed=11))
        threaded = _fit_sampled(
            iris, ShardExecutor("thread", max_workers=2), lambda: IBMQBackend("ibmq_london", seed=11)
        )
        serial_jobs = self._ledger_signature(serial)
        assert serial_jobs, "training should have ledgered jobs"
        assert serial_jobs == self._ledger_signature(threaded)

    def test_job_ids_are_contiguous_after_merge(self, iris):
        model = _fit_sampled(
            iris, ShardExecutor("thread", max_workers=3), lambda: IBMQBackend("ibmq_london", seed=11)
        )
        job_ids = [record.job_id for record in model.estimator.backend.ledger.records]
        assert job_ids == list(range(len(job_ids)))


class TestProviderConfigurationCarriesOver:
    """Regression: shard backends used to drop a changed queue latency."""

    @staticmethod
    def _fast_queue_london():
        backend = IBMQBackend("ibmq_london", seed=11)
        backend.properties.queue_latency_seconds = 0.001
        return backend

    def _ledgered_latencies(self, iris, executor):
        model = _fit_sampled(iris, executor, self._fast_queue_london)
        return [
            record.queue_latency_seconds
            for record in model.estimator.backend.ledger.records
        ]

    def test_thread_shards_ledger_the_parent_latency(self, iris):
        plain = self._ledgered_latencies(iris, None)
        threaded = self._ledgered_latencies(
            iris, ShardExecutor("thread", max_workers=2)
        )
        assert plain and set(plain) == {0.001}
        assert threaded == plain


class TestTrainerOrderIndependence:
    """The bugfix under the tentpole: per-class streams, not one shared rng."""

    def test_single_class_shard_reproduces_full_run_trajectory(self, iris):
        """Training class c alone matches class c inside the full serial fit.

        With the old shared-generator threading this could not hold: class
        1's shuffles depended on class 0 having drawn first.
        """
        model = _fit_analytic(iris, None)

        reference = QuClassi(num_features=4, num_classes=3, architecture="s", seed=3)
        config = TrainerConfig(epochs=3, learning_rate=0.1)
        trainer = Trainer(reference, config=config, rng=7)
        class_rngs = spawn_rngs(trainer.rng, reference.num_classes)

        for class_index in [2, 0, 1]:  # deliberately out of order
            from repro.core.trainer import _ClassShardTask

            task = _ClassShardTask(
                class_index=class_index,
                config=config,
                gradient_rule=trainer.gradient_rule,
                cost_function=trainer.cost_function,
                builder=reference.builder,
                estimator_spec=EstimatorSpec.from_estimator(reference.estimator),
                initial_parameters=reference.parameters_[class_index],
                features=np.asarray(iris.x_train, dtype=float),
                targets=(np.asarray(iris.y_train) == class_index).astype(float),
                rng=class_rngs[class_index],
            )
            shard = ShardPlan.from_items([task])[0]
            result = _run_class_shard(shard)
            np.testing.assert_array_equal(
                result.parameter_snapshots[-1], model.parameters_[class_index]
            )

    def test_rerun_with_same_seed_is_identical(self, iris):
        _assert_same_run(_fit_analytic(iris, None), _fit_analytic(iris, None))


class TestSweepEquivalence:
    """fig6b-sized sweep through run_cells: serial vs thread."""

    def _sweep(self, executor):
        return fig6b_iris_accuracy(
            architectures=("s", "sd"), dnn_budgets=(56,), epochs=2, executor=executor
        )

    def test_thread_sweep_matches_serial(self):
        assert self._sweep(None).rows == self._sweep(ShardExecutor("thread", max_workers=3)).rows


class TestShardedModeBehaviour:
    def test_callbacks_fire_and_early_stop_truncates(self, iris):
        from repro.core.callbacks import Callback

        class StopAfterOne(Callback):
            def __init__(self):
                self.epochs_seen = 0

            def on_epoch_end(self, trainer, record):
                self.epochs_seen += 1

            def should_stop(self):
                return self.epochs_seen >= 1

        model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=3)
        callback = StopAfterOne()
        trainer = Trainer(
            model, TrainerConfig(epochs=4, learning_rate=0.1), callbacks=[callback], rng=7
        )
        history = trainer.fit(
            iris.x_train, iris.y_train, executor=ShardExecutor("thread", max_workers=2)
        )
        assert len(history.records) == 1
        # Parameters must match the epoch-1 snapshot of an uninterrupted run.
        reference = QuClassi(num_features=4, num_classes=3, architecture="s", seed=3)
        Trainer(reference, TrainerConfig(epochs=1, learning_rate=0.1), rng=7).fit(
            iris.x_train, iris.y_train
        )
        np.testing.assert_array_equal(model.parameters_, reference.parameters_)

    def test_circuits_executed_accounting_is_merged(self, iris):
        serial = _fit_sampled(iris, ShardExecutor("serial"), lambda: SampledBackend(shots=64, seed=1))
        threaded = _fit_sampled(
            iris, ShardExecutor("thread", max_workers=3), lambda: SampledBackend(shots=64, seed=1)
        )
        assert serial.estimator.circuits_executed == threaded.estimator.circuits_executed
        assert serial.estimator.circuits_executed > 0
