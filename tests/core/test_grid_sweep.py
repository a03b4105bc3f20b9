"""Whole-grid SweepProgram route of the SWAP-test estimator.

The guarantee: routing a ``(rows x samples)`` fidelity sweep through ONE
compiled program — encoder angles as bind columns, trained prefix evolved
once per grid row of each tile and repeated — must agree with the per-circuit reference,
one bound discriminator and one ``Backend.run`` per grid element in
row-major order (``tests/core/conftest.py``).  Sampled and noisy fidelities
match draw for draw on same-seeded backends; exact fidelities match within
``atol=1e-12``.  This holds on every backend (the noisy one through the
density engine's composed schedule), under any tile budget, and for every
layer architecture.
"""

import numpy as np
import pytest

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.encoding import DualAngleEncoder, SingleAngleEncoder
from repro.hardware import ibmq_london
from repro.quantum.backend import IdealBackend, SampledBackend


def make_builder(encoder=None, num_features: int = 4, architecture: str = "s"):
    encoder = encoder if encoder is not None else DualAngleEncoder()
    stack = LayerStack.from_architecture(architecture, encoder.num_qubits(num_features))
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


@pytest.fixture()
def builder():
    return make_builder()


@pytest.fixture()
def parameter_matrix(builder):
    rng = np.random.default_rng(41)
    return rng.uniform(0, np.pi, size=(3, builder.num_parameters))


@pytest.fixture()
def samples():
    rng = np.random.default_rng(42)
    return rng.uniform(0.05, 0.95, size=(4, 4))


BACKENDS = {
    "analytic": lambda: (IdealBackend(), None),
    "sampled": lambda: (SampledBackend(shots=200, seed=9), 200),
    "noisy": lambda: (ibmq_london(seed=9), 128),
}
#: Budgets spanning one-element tiles up to the whole grid in one tile.
#: ``tight`` holds four statevector elements (one grid row per tile), or
#: exactly one density element on the noisy backend: a budget below one
#: element raises.
BUDGETS = {
    "tight": lambda builder, noisy: (
        4 ** builder.layout.total_qubits if noisy else 2 ** builder.layout.total_qubits * 4
    ),
    "medium": lambda builder, noisy: 2 ** (2 * builder.layout.total_qubits) * 4,
    "roomy": lambda builder, noisy: SwapTestFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES,
}


def grid_and_reference(run_reference, builder, backend_key, budget, parameter_matrix, samples):
    """(estimator fidelity matrix, per-circuit ``run`` reference) on twin backends."""
    backend, shots = BACKENDS[backend_key]()
    grid = SwapTestFidelityEstimator(
        builder, backend=backend, shots=shots, max_batch_amplitudes=budget
    ).fidelity_matrix(parameter_matrix, samples)
    reference_backend, _ = BACKENDS[backend_key]()
    reference = run_reference(builder, reference_backend, shots, parameter_matrix, samples)
    return grid, reference


def assert_route_agreement(backend_key, grid, reference):
    if backend_key == "analytic":
        np.testing.assert_allclose(grid, reference, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(grid, reference)


class TestGridMatchesRunBitwise:
    @pytest.mark.parametrize("architecture", ["s", "d", "e"])
    @pytest.mark.parametrize("backend_key", sorted(BACKENDS))
    @pytest.mark.parametrize("budget_key", sorted(BUDGETS))
    def test_grid_sweep_is_bit_identical_to_run(
        self, samples, backend_key, budget_key, architecture, run_reference,
    ):
        builder = make_builder(architecture=architecture)
        rng = np.random.default_rng(41)
        parameter_matrix = rng.uniform(0, np.pi, size=(3, builder.num_parameters))
        grid, reference = grid_and_reference(
            run_reference,
            builder,
            backend_key,
            BUDGETS[budget_key](builder, backend_key == "noisy"),
            parameter_matrix,
            samples,
        )
        assert_route_agreement(backend_key, grid, reference)

    def test_single_angle_encoder_grid_matches_run(self, run_reference):
        builder = make_builder(SingleAngleEncoder())
        rng = np.random.default_rng(43)
        matrix = rng.uniform(0, np.pi, size=(2, builder.num_parameters))
        features = rng.uniform(0.05, 0.95, size=(3, 4))
        grid, reference = grid_and_reference(
            run_reference, builder, "sampled", 2**20, matrix, features
        )
        np.testing.assert_array_equal(grid, reference)

    def test_fidelities_row_delegates_to_the_grid(self, builder, samples, run_reference):
        rng = np.random.default_rng(44)
        values = rng.uniform(0, np.pi, builder.num_parameters)
        row = SwapTestFidelityEstimator(
            builder, backend=ibmq_london(seed=9), shots=128
        ).fidelities(values, samples)
        grid, _ = grid_and_reference(
            run_reference, builder, "noisy", 2**23, values[None, :], samples
        )
        np.testing.assert_array_equal(row, grid[0])

    def test_empty_grid_short_circuits(self, builder, parameter_matrix):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        empty = estimator.fidelity_matrix(parameter_matrix, np.zeros((0, 4)))
        assert empty.shape == (parameter_matrix.shape[0], 0)
        assert estimator.circuits_executed == 0

    def test_grid_builds_no_per_sample_circuits(
        self, builder, parameter_matrix, samples, monkeypatch
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("the grid route built a per-sample circuit")

        monkeypatch.setattr(builder, "build", no_build)
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        estimator.fidelity_matrix(parameter_matrix, samples)
        assert estimator.circuits_executed == parameter_matrix.shape[0] * samples.shape[0]


class TestGridBindings:
    def test_row_major_layout_matches_the_run_order(self, builder, parameter_matrix, samples):
        bindings = builder.grid_bindings(parameter_matrix, samples)
        rows, params = parameter_matrix.shape
        angles = builder.encoder.angle_matrix(samples)
        assert bindings.shape == (rows * samples.shape[0], params + angles.shape[1])
        for row in range(rows):
            for sample in range(samples.shape[0]):
                flat = row * samples.shape[0] + sample
                np.testing.assert_array_equal(bindings[flat, :params], parameter_matrix[row])
                np.testing.assert_array_equal(bindings[flat, params:], angles[sample])

    def test_angle_columns_are_bitwise_the_loop_angles(self, builder, samples):
        from repro.encoding.angle import rotation_angle

        angles = builder.encoder.angle_matrix(samples)
        for row in range(samples.shape[0]):
            for column in range(samples.shape[1]):
                assert angles[row, column] == rotation_angle(samples[row, column])


class TestVectorisedDataStates:
    def test_batched_matrix_matches_the_per_state_reference(self, builder, samples):
        from repro.quantum.statevector import Statevector

        batched = AnalyticFidelityEstimator(builder).data_state_matrix(samples)
        reference = np.stack(
            [
                Statevector(builder.layout.state_width)
                .evolve(builder.data_state_circuit(row))
                .data
                for row in samples
            ]
        )
        np.testing.assert_allclose(batched, reference, atol=1e-12)

    def test_data_statevector_is_a_one_row_matrix(self, builder, samples):
        estimator = AnalyticFidelityEstimator(builder)
        np.testing.assert_array_equal(
            estimator.data_statevector(samples[1]).data,
            estimator.data_state_matrix(samples[1:2])[0],
        )
