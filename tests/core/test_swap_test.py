"""Tests for the fidelity estimators used during training."""

import numpy as np
import pytest

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.encoding import AmplitudeEncoder, DualAngleEncoder
from repro.exceptions import ValidationError
from repro.hardware import ibmq_london
from repro.quantum.backend import IdealBackend, SampledBackend


def make_builder(
    num_features: int = 4, architecture: str = "s", encoder=None
) -> DiscriminatorCircuitBuilder:
    encoder = encoder if encoder is not None else DualAngleEncoder()
    stack = LayerStack.from_architecture(architecture, encoder.num_qubits(num_features))
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


@pytest.fixture()
def builder():
    return make_builder()


@pytest.fixture()
def parameters(builder):
    rng = np.random.default_rng(1)
    return rng.uniform(0, np.pi, builder.num_parameters)


@pytest.fixture()
def samples():
    rng = np.random.default_rng(2)
    return rng.uniform(0.05, 0.95, size=(6, 4))


class TestAnalyticEstimator:
    def test_fidelity_in_unit_interval(self, builder, parameters, samples):
        estimator = AnalyticFidelityEstimator(builder)
        values = estimator.fidelities(parameters, samples)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_batch_matches_single_sample_calls(self, builder, parameters, samples):
        estimator = AnalyticFidelityEstimator(builder)
        batch = estimator.fidelities(parameters, samples)
        singles = [estimator.fidelity(parameters, row) for row in samples]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_agrees_with_swap_test_circuit(self, builder, parameters, samples):
        analytic = AnalyticFidelityEstimator(builder)
        circuit_based = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        np.testing.assert_allclose(
            analytic.fidelities(parameters, samples),
            circuit_based.fidelities(parameters, samples),
            atol=1e-9,
        )

    def test_agrees_with_swap_test_for_deeper_architecture(self, samples):
        builder = make_builder(architecture="sde")
        rng = np.random.default_rng(5)
        parameters = rng.uniform(0, np.pi, builder.num_parameters)
        analytic = AnalyticFidelityEstimator(builder)
        circuit_based = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        np.testing.assert_allclose(
            analytic.fidelities(parameters, samples),
            circuit_based.fidelities(parameters, samples),
            atol=1e-9,
        )

    def test_data_state_cache_reused(self, builder, parameters, samples):
        estimator = AnalyticFidelityEstimator(builder)
        estimator.fidelities(parameters, samples)
        cache_size = len(estimator._data_matrix_cache)
        estimator.fidelities(parameters + 0.1, samples)
        assert len(estimator._data_matrix_cache) == cache_size == 1

    def test_clear_cache(self, builder, parameters, samples):
        estimator = AnalyticFidelityEstimator(builder)
        estimator.fidelities(parameters, samples)
        estimator.clear_cache()
        assert len(estimator._data_matrix_cache) == 0

    def test_perfect_match_gives_unit_fidelity(self, builder):
        encoder = DualAngleEncoder()
        features = np.array([0.2, 0.5, 0.8, 0.3])
        angles = encoder.angles(features)
        estimator = AnalyticFidelityEstimator(builder)
        assert estimator.fidelity(angles, features) == pytest.approx(1.0, abs=1e-9)

    def test_compiled_program_matches_circuit_path(self, builder, parameters):
        estimator = AnalyticFidelityEstimator(builder)
        from repro.quantum.statevector import Statevector

        fast = estimator.trained_statevector(parameters)
        slow = Statevector(2).evolve(builder.trained_state_circuit(parameters))
        assert fast.fidelity(slow) == pytest.approx(1.0, abs=1e-12)


class TestSwapTestEstimator:
    def test_shot_noise_stays_close_to_exact(self, builder, parameters, samples):
        analytic = AnalyticFidelityEstimator(builder)
        sampled = SwapTestFidelityEstimator(builder, backend=IdealBackend(seed=0), shots=20000)
        exact = analytic.fidelities(parameters, samples)
        estimated = sampled.fidelities(parameters, samples)
        assert np.max(np.abs(exact - estimated)) < 0.05

    def test_counts_circuits_executed(self, builder, parameters, samples):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(seed=0), shots=128)
        estimator.fidelities(parameters, samples)
        assert estimator.circuits_executed == len(samples)

    def test_invalid_shots_rejected(self, builder):
        with pytest.raises(ValidationError):
            SwapTestFidelityEstimator(builder, shots=0)

    def test_noisy_backend_biases_fidelity_downwards(self, builder):
        """Hardware noise dilutes the SWAP-test signal towards 0.5 ancilla probability."""
        encoder = DualAngleEncoder()
        features = np.array([0.2, 0.5, 0.8, 0.3])
        angles = encoder.angles(features)  # perfect match: ideal fidelity 1.0
        noisy = SwapTestFidelityEstimator(builder, backend=ibmq_london(seed=0), shots=None)
        value = noisy.fidelity(angles, features)
        assert value < 0.999
        assert value > 0.3


class TestAnalyticBatchedPath:
    def test_trained_statevectors_match_per_row(self, builder, samples):
        estimator = AnalyticFidelityEstimator(builder)
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0, np.pi, size=(6, builder.num_parameters))
        batch = estimator.trained_statevectors(matrix)
        for index, row in enumerate(matrix):
            single = estimator.trained_statevector(row)
            np.testing.assert_allclose(
                batch.statevector(index).data, single.data, atol=1e-12
            )

    def test_fidelity_matrix_matches_loop(self, builder, samples):
        estimator = AnalyticFidelityEstimator(builder)
        rng = np.random.default_rng(10)
        matrix = rng.uniform(0, np.pi, size=(5, builder.num_parameters))
        batched = estimator.fidelity_matrix(matrix, samples)
        loop = np.stack([estimator.fidelities(row, samples) for row in matrix])
        assert batched.shape == (5, len(samples))
        np.testing.assert_allclose(batched, loop, atol=1e-12)

    def test_fidelity_matrix_deeper_architecture(self, samples):
        deep_builder = make_builder(architecture="sde")
        estimator = AnalyticFidelityEstimator(deep_builder)
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0, np.pi, size=(4, deep_builder.num_parameters))
        np.testing.assert_allclose(
            estimator.fidelity_matrix(matrix, samples),
            np.stack([estimator.fidelities(row, samples) for row in matrix]),
            atol=1e-12,
        )

    def test_parameter_matrix_validation(self, builder, parameters, samples):
        estimator = AnalyticFidelityEstimator(builder)
        with pytest.raises(ValidationError):
            estimator.trained_statevectors(parameters)  # 1-D
        with pytest.raises(ValidationError):
            estimator.trained_statevectors(np.zeros((2, builder.num_parameters + 1)))

    @pytest.mark.parametrize("encoder", [DualAngleEncoder(), AmplitudeEncoder()])
    def test_feature_width_validation(self, encoder):
        """A matrix of the wrong width raises; amplitude encoding would zero-pad it."""
        builder = make_builder(encoder=encoder)
        parameters = np.zeros((1, builder.num_parameters))
        narrow = np.full((2, 3), 0.5)
        analytic = AnalyticFidelityEstimator(builder)
        swap_test = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        for call in (
            lambda: analytic.fidelity_matrix(parameters, narrow),
            lambda: analytic.data_state_matrix(narrow),
            lambda: swap_test.fidelity_matrix(parameters, narrow),
            lambda: builder.grid_bindings(parameters, narrow),
        ):
            with pytest.raises(ValidationError, match="expected 4 feature column"):
                call()

    def test_swap_test_fidelity_matrix_matches_loop(self, builder, samples, run_reference):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        rng = np.random.default_rng(12)
        matrix = rng.uniform(0, np.pi, size=(2, builder.num_parameters))
        batched = estimator.fidelity_matrix(matrix, samples)
        loop = run_reference(builder, IdealBackend(), None, matrix, samples)
        np.testing.assert_allclose(batched, loop, atol=1e-12)


class TestDataStateCacheBound:
    def test_cache_is_bounded_lru(self, builder, parameters):
        estimator = AnalyticFidelityEstimator(builder, data_matrix_cache_size=2)
        rng = np.random.default_rng(13)
        for _ in range(5):
            estimator.data_state_matrix(rng.uniform(0.05, 0.95, size=(3, 4)))
        assert len(estimator._data_matrix_cache) == 2

    def test_recently_used_entries_survive(self, builder):
        estimator = AnalyticFidelityEstimator(builder, data_matrix_cache_size=2)
        a = np.array([[0.1, 0.2, 0.3, 0.4]])
        b = np.array([[0.5, 0.6, 0.7, 0.8]])
        c = np.array([[0.9, 0.1, 0.2, 0.3]])
        estimator.data_state_matrix(a)
        estimator.data_state_matrix(b)
        estimator.data_state_matrix(a)  # refresh a
        estimator.data_state_matrix(c)  # evicts b
        assert (a.shape, a.tobytes()) in estimator._data_matrix_cache
        assert (b.shape, b.tobytes()) not in estimator._data_matrix_cache

    def test_eviction_does_not_change_values(self, builder, parameters):
        bounded = AnalyticFidelityEstimator(builder, data_matrix_cache_size=1)
        unbounded = AnalyticFidelityEstimator(builder)
        rng = np.random.default_rng(14)
        samples = rng.uniform(0.05, 0.95, size=(4, 4))
        bounded.fidelities(parameters, samples)
        bounded.fidelities(parameters, samples[::-1])  # evicts the first stack
        np.testing.assert_array_equal(
            bounded.fidelities(parameters, samples),
            unbounded.fidelities(parameters, samples),
        )

    def test_invalid_cache_size_rejected(self, builder):
        with pytest.raises(ValidationError):
            AnalyticFidelityEstimator(builder, data_matrix_cache_size=0)


class TestSwapTestBatchedPath:
    """The SWAP-test estimator runs whole sweeps as one grid program.

    The reference is the per-circuit loop: one ``Backend.run`` per
    (parameter row, sample) pair on a same-seeded twin backend.
    """

    def test_exact_fidelities_match_per_circuit_loop(
        self, builder, parameters, samples, run_reference
    ):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        batched = estimator.fidelities(parameters, samples)
        loop = run_reference(builder, IdealBackend(), None, parameters[None, :], samples)
        np.testing.assert_allclose(batched, loop[0], atol=1e-12)

    def test_sampled_sweep_seed_matches_per_circuit_loop(
        self, builder, parameters, samples, run_reference
    ):
        batched_estimator = SwapTestFidelityEstimator(
            builder, backend=SampledBackend(shots=400, seed=21), shots=400
        )
        batched = batched_estimator.fidelities(parameters, samples)
        loop = run_reference(
            builder, SampledBackend(shots=400, seed=21), 400, parameters[None, :], samples
        )
        np.testing.assert_array_equal(batched, loop[0])

    def test_noisy_sweep_seed_matches_per_circuit_loop(
        self, builder, parameters, samples, run_reference
    ):
        batched_estimator = SwapTestFidelityEstimator(
            builder, backend=ibmq_london(seed=5), shots=256
        )
        batched = batched_estimator.fidelities(parameters, samples[:3])
        loop = run_reference(
            builder, ibmq_london(seed=5), 256, parameters[None, :], samples[:3]
        )
        np.testing.assert_array_equal(batched, loop[0])
        # The whole-grid path transpiles ONE symbolic template for the sweep;
        # a second sweep reuses it from the cache.
        stats = batched_estimator.backend.transpile_cache_stats
        assert stats["misses"] == 1
        batched_estimator.fidelities(parameters, samples[:3])
        assert batched_estimator.backend.transpile_cache_stats["hits"] >= 1

    def test_fidelity_matrix_sampled_seed_matches_loop(self, builder, samples, run_reference):
        rng = np.random.default_rng(22)
        matrix = rng.uniform(0, np.pi, size=(4, builder.num_parameters))
        batched_estimator = SwapTestFidelityEstimator(
            builder, backend=SampledBackend(shots=300, seed=33), shots=300
        )
        batched = batched_estimator.fidelity_matrix(matrix, samples)
        loop = run_reference(builder, SampledBackend(shots=300, seed=33), 300, matrix, samples)
        np.testing.assert_array_equal(batched, loop)

    def test_chunked_batches_stay_equivalent(self, builder, parameters, samples):
        whole = SwapTestFidelityEstimator(
            builder, backend=SampledBackend(shots=200, seed=8), shots=200
        )
        chunked = SwapTestFidelityEstimator(
            builder,
            backend=SampledBackend(shots=200, seed=8),
            shots=200,
            max_batch_amplitudes=2 ** builder.layout.total_qubits * 2,  # 2 circuits/chunk
        )
        np.testing.assert_array_equal(
            whole.fidelities(parameters, samples), chunked.fidelities(parameters, samples)
        )

    def test_fidelity_matrix_counts_circuits(self, builder, samples):
        rng = np.random.default_rng(23)
        matrix = rng.uniform(0, np.pi, size=(3, builder.num_parameters))
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        estimator.fidelity_matrix(matrix, samples)
        assert estimator.circuits_executed == 3 * len(samples)

    def test_invalid_configuration_rejected(self, builder):
        with pytest.raises(ValidationError):
            SwapTestFidelityEstimator(builder, max_batch_amplitudes=0)

    def test_parameter_matrix_must_be_2d(self, builder, parameters, samples):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        with pytest.raises(ValidationError):
            estimator.fidelity_matrix(parameters, samples)

    def test_trainer_selects_batched_path_for_simulator_backends(self):
        from repro.core.model import QuClassi
        from repro.core.trainer import Trainer, TrainerConfig

        model = QuClassi(
            num_features=4,
            num_classes=2,
            architecture="s",
            estimator="swap_test",
            backend=SampledBackend(shots=64, seed=0),
            shots=64,
            seed=0,
        )
        rows = []
        sweep = model.estimator.fidelity_matrix

        def recording_sweep(parameter_matrix, features):
            rows.append(parameter_matrix.shape[0])
            return sweep(parameter_matrix, features)

        model.estimator.fidelity_matrix = recording_sweep
        features = np.random.default_rng(25).uniform(0.05, 0.95, size=(4, 4))
        Trainer(model, TrainerConfig(epochs=1)).fit(features, np.array([0, 1, 0, 1]))
        # Every gradient evaluation is one sweep over all 2P shifted rows.
        assert 2 * model.builder.num_parameters in rows
