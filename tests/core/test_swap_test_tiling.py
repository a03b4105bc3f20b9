"""Tiled (parameter-row x data-sample) sweep execution of the estimators.

Covers the compile-once / execute-many refactor at the estimator level:
tiled-vs-untiled identity across the analytic, sampled, and noisy paths,
compile-cache behaviour on repeat sweeps, the two-axis amplitude budget, and
the 17-qubit MNIST memory smoke (``slow`` marker).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.encoding import DualAngleEncoder
from repro.exceptions import ValidationError
from repro.hardware import ibmq_london
from repro.quantum.backend import IdealBackend, SampledBackend


def make_builder(num_features: int = 4, architecture: str = "s") -> DiscriminatorCircuitBuilder:
    encoder = DualAngleEncoder()
    stack = LayerStack.from_architecture(architecture, encoder.num_qubits(num_features))
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


@pytest.fixture()
def builder():
    return make_builder()


@pytest.fixture()
def parameter_matrix(builder):
    rng = np.random.default_rng(3)
    return rng.uniform(0, np.pi, size=(5, builder.num_parameters))


@pytest.fixture()
def samples():
    rng = np.random.default_rng(4)
    return rng.uniform(0.05, 0.95, size=(4, 4))


class TestTiledSwapTestIdentity:
    """Tiled-vs-untiled bit identity, seed for seed, on every engine."""

    def test_exact_tiled_matches_untiled_bitwise(self, builder, parameter_matrix, samples):
        untiled = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        whole = untiled.fidelity_matrix(parameter_matrix, samples)
        for budget in (2**5, 2**7, 2**9):
            tiled = SwapTestFidelityEstimator(
                builder, backend=IdealBackend(), shots=None, max_batch_amplitudes=budget
            )
            np.testing.assert_array_equal(
                tiled.fidelity_matrix(parameter_matrix, samples), whole
            )

    def test_sampled_tiled_counts_seed_identical(self, builder, parameter_matrix, samples):
        whole = SwapTestFidelityEstimator(
            builder, backend=SampledBackend(shots=300, seed=17), shots=300
        ).fidelity_matrix(parameter_matrix, samples)
        for budget in (2**5, 2**8):
            tiled = SwapTestFidelityEstimator(
                builder,
                backend=SampledBackend(shots=300, seed=17),
                shots=300,
                max_batch_amplitudes=budget,
            ).fidelity_matrix(parameter_matrix, samples)
            np.testing.assert_array_equal(tiled, whole)

    def test_noisy_tiled_counts_seed_identical(self, builder, parameter_matrix, samples):
        rows = parameter_matrix[:3]
        whole = SwapTestFidelityEstimator(
            builder, backend=ibmq_london(seed=23), shots=128
        ).fidelity_matrix(rows, samples)
        tiled = SwapTestFidelityEstimator(
            builder,
            backend=ibmq_london(seed=23),
            shots=128,
            max_batch_amplitudes=2 ** (2 * builder.layout.total_qubits) * 3,
        ).fidelity_matrix(rows, samples)
        np.testing.assert_array_equal(tiled, whole)

    def test_tiled_matches_per_circuit_loop(
        self, run_reference, builder, parameter_matrix, samples
    ):
        """The tiled grid stays draw-for-draw equal to one ``Backend.run`` per element."""
        tiled = SwapTestFidelityEstimator(
            builder,
            backend=SampledBackend(shots=200, seed=9),
            shots=200,
            max_batch_amplitudes=2**builder.layout.total_qubits * 2,
        ).fidelity_matrix(parameter_matrix, samples)
        loop = run_reference(
            builder, SampledBackend(shots=200, seed=9), 200, parameter_matrix, samples
        )
        np.testing.assert_array_equal(tiled, loop)


class TestAnalyticTiling:
    def test_tiled_matches_untiled(self, builder, parameter_matrix, samples):
        whole = AnalyticFidelityEstimator(builder).fidelity_matrix(
            parameter_matrix, samples
        )
        for budget in (8, 16, 24):
            tiled = AnalyticFidelityEstimator(
                builder, max_batch_amplitudes=budget
            ).fidelity_matrix(parameter_matrix, samples)
            # Tiled matmul blocks may differ from the one-shot matmul at the
            # last ULP (BLAS kernel selection); values are exact to fp noise.
            np.testing.assert_allclose(tiled, whole, atol=1e-12)

    def test_budget_counts_both_operand_axes(self, builder):
        """Many samples alone must push the sweep into tiled execution."""
        rng = np.random.default_rng(5)
        rows = rng.uniform(0, np.pi, size=(2, builder.num_parameters))
        many_samples = rng.uniform(0.05, 0.95, size=(64, 4))
        state = 2**builder.layout.state_width
        # Budget fits the two trained rows comfortably but not the 64 data
        # columns: (2 + 64) * state > budget > (2 + sample_tile) * state.
        estimator = AnalyticFidelityEstimator(
            builder, max_batch_amplitudes=16 * state
        )
        whole = AnalyticFidelityEstimator(builder).fidelity_matrix(rows, many_samples)
        np.testing.assert_allclose(
            estimator.fidelity_matrix(rows, many_samples), whole, atol=1e-12
        )

    def test_budget_validated(self, builder):
        with pytest.raises(ValidationError):
            AnalyticFidelityEstimator(builder, max_batch_amplitudes=0)


class TestCompileOnceCaches:
    def test_noisy_repeat_sweeps_reuse_one_template_program(self, builder, parameter_matrix, samples):
        estimator = SwapTestFidelityEstimator(
            builder, backend=ibmq_london(seed=3), shots=64
        )
        estimator.fidelity_matrix(parameter_matrix[:2], samples)
        cache = estimator.backend._transpile_cache
        assert len(cache) == 1
        entry = next(iter(cache._entries._entries.values()))
        program_first = entry.ensure_program()
        engine = estimator.backend._simulator._program_engine()
        assert engine.plans_compiled == 1
        estimator.fidelity_matrix(parameter_matrix[:2], samples)
        estimator.fidelity_matrix(parameter_matrix, samples)
        assert entry.ensure_program() is program_first
        assert engine.plans_compiled == 1  # no re-planning on repeat sweeps
        stats = estimator.backend.transpile_cache_stats
        assert stats["misses"] == 1
        # The whole-grid path resolves the symbolic template once per SWEEP
        # (three sweeps: one miss + two hits), not once per grid element.
        assert stats["hits"] == 2

    def test_statevector_simulator_program_cache_hits_on_repeat(self, builder, parameter_matrix, samples):
        backend = IdealBackend()
        estimator = SwapTestFidelityEstimator(builder, backend=backend, shots=None)
        estimator.fidelity_matrix(parameter_matrix, samples)
        first = backend._simulator.program_cache_stats
        assert first["misses"] == 1
        estimator.fidelity_matrix(parameter_matrix, samples)
        second = backend._simulator.program_cache_stats
        assert second["misses"] == 1
        assert second["hits"] > first["hits"]

    def test_ledger_records_every_sweep_element(self, builder, parameter_matrix, samples):
        backend = ibmq_london(seed=11)
        estimator = SwapTestFidelityEstimator(builder, backend=backend, shots=32)
        estimator.fidelity_matrix(parameter_matrix[:2], samples)
        assert backend.ledger.num_jobs == 2 * samples.shape[0]
        record = backend.ledger.records[0]
        assert record.shots == 32
        assert record.cx_count > 0


@pytest.mark.slow
class TestMnistSeventeenQubitSmoke:
    def test_tiled_sweep_stays_under_memory_budget(self):
        """17-qubit MNIST sweep under a budget the untiled path exceeds."""
        from repro.core.model import QuClassi
        from repro.datasets import generate_synthetic_mnist, prepare_task

        data = prepare_task(
            generate_synthetic_mnist(digits=(3, 6), samples_per_digit=16, rng=0),
            n_components=16,
            rng=0,
        )
        model = QuClassi(num_features=16, num_classes=2, architecture="s", seed=0)
        assert model.num_qubits == 17
        rng = np.random.default_rng(0)
        rows = rng.uniform(0, np.pi, size=(4, model.parameters_per_class))
        features = data.x_train[:16]
        budget = 2**20  # 1M amplitudes = 16 MiB of complex128 per tile
        untiled_bytes = rows.shape[0] * features.shape[0] * 2**17 * 16
        estimator = SwapTestFidelityEstimator(
            model.builder,
            backend=SampledBackend(shots=128, seed=0),
            shots=128,
            max_batch_amplitudes=budget,
        )
        tracemalloc.start()
        fidelities = estimator.fidelity_matrix(rows, features)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert fidelities.shape == (4, 16)
        assert np.all((fidelities >= 0.0) & (fidelities <= 1.0))
        # The tiled working set is a handful of tile-sized buffers (the
        # state stack plus einsum temporaries), far below the untiled
        # requirement that the budget is a fraction of.
        budget_bytes = budget * 16
        assert untiled_bytes >= 8 * budget_bytes
        assert peak < 6 * budget_bytes
        assert peak < untiled_bytes * 0.75
