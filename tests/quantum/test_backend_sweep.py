"""Tests for the backends' whole-grid route
(:meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`).

The reference is the per-element batch of :meth:`Backend.run` calls on a
same-seeded twin backend: exact readouts agree within ``1e-12`` and sampled
readouts draw for draw.
"""

import numpy as np
import pytest

from repro.exceptions import BackendError, SimulationError
from repro.hardware import IBMQBackend
from repro.quantum.backend import IdealBackend, SampledBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import TilePlan
from repro.quantum.register import ClassicalRegister, QuantumRegister

PARAMS = [Parameter(name) for name in "abcd"]


def discriminator(angles) -> QuantumCircuit:
    """Minimal SWAP-test discriminator: ancilla + two 1-qubit registers."""
    qreg = QuantumRegister(3, "q")
    creg = ClassicalRegister(1, "c")
    circuit = QuantumCircuit(qreg, creg, name="disc")
    circuit.h(0)
    circuit.ry(angles[0], 1).rz(angles[1], 1)
    circuit.ry(angles[2], 2).rz(angles[3], 2)
    circuit.cswap(0, 1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    return circuit


def bindings(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def grid(backend, rows, **kwargs):
    return backend.sweep_grid_zero_probabilities(
        discriminator(PARAMS), PARAMS, rows, **kwargs
    )


def run_loop(backend, rows, **kwargs):
    return np.array(
        [backend.ancilla_zero_probability(discriminator(row), **kwargs) for row in rows]
    )


class TestStatevectorBackends:
    def test_ideal_sweep_matches_batch_path_exact(self):
        rows = bindings(6, seed=0)
        swept = grid(IdealBackend(), rows, shots=None)
        looped = run_loop(IdealBackend(), rows, shots=None)
        np.testing.assert_allclose(swept, looped, atol=1e-12)

    def test_sampled_sweep_seed_matches_batch_path(self):
        rows = bindings(5, seed=1)
        swept = grid(SampledBackend(shots=400, seed=7), rows)
        np.testing.assert_array_equal(swept, run_loop(SampledBackend(shots=400, seed=7), rows))

    def test_tile_plan_does_not_change_draws(self):
        rows = bindings(6, seed=2)
        plan = TilePlan(rows=6, samples=1, row_tile=2, sample_tile=1)
        tiled = grid(SampledBackend(shots=300, seed=5), rows, tile_plan=plan)
        whole = grid(SampledBackend(shots=300, seed=5), rows)
        np.testing.assert_array_equal(tiled, whole)

    def test_empty_sweep(self):
        assert grid(IdealBackend(), np.zeros((0, 4)), shots=None).shape == (0,)

    def test_parameter_outside_the_ordering_rejected(self):
        stray = Parameter("stray")
        with pytest.raises(SimulationError, match="not in the provided parameter ordering"):
            IdealBackend().sweep_grid_zero_probabilities(
                discriminator(PARAMS[:3] + [stray]), PARAMS, bindings(2, seed=3)
            )

    def test_shots_validated(self):
        with pytest.raises(BackendError, match="shots must be positive"):
            grid(IdealBackend(), bindings(2, seed=4), shots=0)


class TestNoisyBackend:
    def test_sweep_seed_matches_batch_path(self):
        rows = bindings(4, seed=5)
        swept = grid(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        looped = run_loop(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        np.testing.assert_array_equal(swept, looped)

    def test_sweep_ledgers_every_element_with_transpile_stats(self):
        backend = IBMQBackend("ibmq_london", seed=1)
        grid(backend, bindings(3, seed=6), shots=64)
        assert backend.ledger.num_jobs == 3
        for record in backend.ledger.records:
            assert record.shots == 64
            assert record.cx_count > 0
            assert record.circuit_name == "disc_basis_routed"
        assert backend.last_transpile_stats["cx_count"] > 0

    def test_sweep_rejects_one_dimensional_bindings(self):
        backend = IBMQBackend("ibmq_london", seed=2)
        with pytest.raises(BackendError, match="grid bindings must be 2-D"):
            grid(backend, np.zeros(4), shots=64)
        assert backend.ledger.num_jobs == 0

    def test_sweep_respects_device_width(self):
        wide = QuantumCircuit(9, 1, name="too_wide")
        wide.ry(PARAMS[0], 0).measure(0, 0)
        backend = IBMQBackend("ibmq_london", seed=0)
        with pytest.raises(BackendError, match="has 5 qubits, circuit needs 9"):
            backend.sweep_grid_zero_probabilities(wide, PARAMS[:1], np.zeros((1, 1)), shots=64)

    def test_empty_sweep(self):
        backend = IBMQBackend("ibmq_london", seed=0)
        assert grid(backend, np.zeros((0, 4)), shots=64).shape == (0,)
        assert backend.ledger.num_jobs == 0

    def test_tiled_sweep_seed_matches_whole(self):
        rows = bindings(4, seed=8)
        plan = TilePlan(rows=4, samples=1, row_tile=1, sample_tile=1)
        tiled = grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128, tile_plan=plan)
        whole = grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128)
        np.testing.assert_array_equal(tiled, whole)
