"""Tests for execution backends and their two routes.

Every SWAP-test fidelity reaches a backend either through the whole-grid
program route (``sweep_grid_zero_probabilities``, and the simulators'
``run_sweep_program`` beneath it) or through one ``run`` per circuit.  The
grid route is checked against a loop of ``run`` calls on a same-seeded
twin: exact read-outs agree within ``1e-12`` and sampled read-outs draw for
draw.  ``run`` itself is checked against the per-state reference classes in
``test_run_reference.py``.
"""

import numpy as np
import pytest

from repro.exceptions import BackendError, SimulationError
from repro.hardware import IBMQBackend
from repro.quantum.backend import (
    Backend,
    DeviceProperties,
    IdealBackend,
    NoisyBackend,
    SampledBackend,
    validate_shots,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import clbit_key
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.operations import Parameter
from repro.quantum.program import StatevectorEngine, TilePlan
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.topology import CouplingMap


def ghz_circuit(num_qubits: int = 3) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits, name="ghz")
    qc.h(0)
    for qubit in range(num_qubits - 1):
        qc.cx(qubit, qubit + 1)
    qc.measure_all()
    return qc


def make_device(name: str = "test_device", num_qubits: int = 5, noisy: bool = True) -> DeviceProperties:
    noise = NoiseModel.from_error_rates(0.001, 0.01, 0.02) if noisy else NoiseModel.ideal()
    return DeviceProperties(
        name=name,
        num_qubits=num_qubits,
        coupling_map=CouplingMap.linear(num_qubits),
        noise_model=noise,
        max_shots=4096,
        queue_latency_seconds=42.0,
    )


class TestIdealBackend:
    def test_exact_run(self):
        result = IdealBackend().run(ghz_circuit())
        assert result.probabilities["000"] == pytest.approx(0.5)
        assert result.probabilities["111"] == pytest.approx(0.5)

    def test_sampled_run(self):
        result = IdealBackend(seed=0).run(ghz_circuit(), shots=100)
        assert result.counts.shots == 100

    def test_not_noisy(self):
        assert IdealBackend().is_noisy is False

    def test_ancilla_zero_probability(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        assert IdealBackend().ancilla_zero_probability(qc) == pytest.approx(1.0)


class TestSampledBackend:
    def test_always_samples(self):
        backend = SampledBackend(shots=256, seed=0)
        result = backend.run(ghz_circuit())
        assert result.counts.shots == 256

    def test_explicit_shots_override_default(self):
        backend = SampledBackend(shots=256, seed=0)
        assert backend.run(ghz_circuit(), shots=64).counts.shots == 64

    def test_invalid_shots(self):
        with pytest.raises(BackendError):
            SampledBackend(shots=0)


class TestNoisyBackend:
    def test_runs_and_reports_transpile_stats(self):
        backend = NoisyBackend(make_device(), seed=0)
        result = backend.run(ghz_circuit(), shots=512)
        assert result.counts.shots == 512
        assert backend.last_transpile_stats["cx_count"] >= 2
        assert result.metadata["backend"] == "test_device"
        assert result.metadata["queue_latency_seconds"] == 42.0

    def test_is_noisy(self):
        assert NoisyBackend(make_device()).is_noisy is True

    def test_noise_degrades_ghz_parity(self):
        noisy = NoisyBackend(make_device(noisy=True), seed=0).run(ghz_circuit(), shots=None)
        clean = NoisyBackend(make_device(noisy=False), seed=0).run(ghz_circuit(), shots=None)
        clean_mass = clean.probabilities.get("000", 0) + clean.probabilities.get("111", 0)
        noisy_mass = noisy.probabilities.get("000", 0) + noisy.probabilities.get("111", 0)
        assert clean_mass == pytest.approx(1.0, abs=1e-9)
        assert noisy_mass < clean_mass

    def test_shot_limit_enforced(self):
        backend = NoisyBackend(make_device())
        with pytest.raises(BackendError):
            backend.run(ghz_circuit(), shots=100000)

    def test_too_wide_circuit_rejected(self):
        backend = NoisyBackend(make_device(num_qubits=2))
        with pytest.raises(BackendError):
            backend.run(ghz_circuit(3))

    def test_small_circuit_on_large_device_uses_small_region(self):
        """A 2-qubit circuit on a 5-qubit device must not simulate 5 qubits of state."""
        backend = NoisyBackend(make_device(num_qubits=5), seed=0)
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure_all()
        result = backend.run(qc, shots=None)
        assert result.density_matrix.num_qubits == 2
        assert sum(result.probabilities.values()) == pytest.approx(1.0)


def rotation_circuit(angles) -> QuantumCircuit:
    """Two-qubit rotation circuit with a shared structure across angle sets."""
    qc = QuantumCircuit(2, 1, name="rotations")
    qc.ry(angles[0], 0).rz(angles[1], 0).ry(angles[2], 1)
    qc.cx(0, 1)
    qc.measure(0, 0)
    return qc


PARAMS = [Parameter(name) for name in "abc"]


def bindings(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 3))


def grid(backend, rows, **kwargs):
    """Whole-grid readouts of :func:`rotation_circuit` over ``rows`` of angles."""
    return backend.sweep_grid_zero_probabilities(
        rotation_circuit(PARAMS), PARAMS, rows, **kwargs
    )


class TestShotsValidation:
    """shots=0 must raise, never silently fall back to a default count."""

    def test_validate_shots_helper(self):
        assert validate_shots(None, "b") is None
        assert validate_shots(128, "b") == 128
        for bad in (0, -1, 1.5, "64", True):
            with pytest.raises(BackendError):
                validate_shots(bad, "b")

    def test_ideal_backend_rejects_zero_shots(self):
        with pytest.raises(BackendError):
            IdealBackend().run(ghz_circuit(), shots=0)

    def test_sampled_backend_zero_shots_does_not_fall_back_to_default(self):
        """Regression: ``shots or self.shots`` used to run 256 shots for shots=0."""
        backend = SampledBackend(shots=256, seed=0)
        with pytest.raises(BackendError):
            backend.run(ghz_circuit(), shots=0)

    def test_noisy_backend_rejects_zero_shots(self):
        with pytest.raises(BackendError):
            NoisyBackend(make_device(), seed=0).run(ghz_circuit(), shots=0)

    def test_grid_sweep_rejects_zero_shots(self):
        for backend in (
            IdealBackend(),
            SampledBackend(shots=64, seed=0),
            NoisyBackend(make_device(), seed=0),
        ):
            with pytest.raises(BackendError, match="shots must be positive"):
                grid(backend, bindings(1, seed=0), shots=0)

    def test_negative_shots_rejected_everywhere(self):
        for backend in (
            IdealBackend(),
            SampledBackend(shots=64, seed=0),
            NoisyBackend(make_device(), seed=0),
        ):
            with pytest.raises(BackendError):
                backend.run(ghz_circuit(), shots=-8)


class RecordingBackend(NoisyBackend):
    """Noisy backend that keeps every job it ledgers."""

    def __init__(self, properties, seed=None):
        super().__init__(properties, seed=seed)
        self.jobs = []

    def _record_job(self, circuit_name, shots, transpile_stats):
        self.jobs.append((circuit_name, shots, dict(transpile_stats)))


def element_outcomes(readout, element, array):
    """Row ``element`` of a read-out array keyed like ``run``'s dictionaries."""
    row = array[element]
    return {
        clbit_key(int(column), readout.clbits, readout.num_clbits): row[column]
        for column in np.flatnonzero(row > 0)
    }


class TestGridRouteMatchesRun:
    """The whole-grid route against a per-element loop of :meth:`Backend.run`."""

    def test_exact_batch_matches_per_circuit_runs(self):
        rows = bindings(7, seed=5)
        swept = grid(IdealBackend(), rows, shots=None)
        for row, zero in zip(rows, swept):
            single = IdealBackend().run(rotation_circuit(row), shots=None)
            assert zero == pytest.approx(single.marginal_probability(0, 0), abs=1e-12)

    def test_sampled_batch_seed_matches_per_circuit_loop(self):
        rows = bindings(5, seed=6)
        swept = grid(SampledBackend(shots=300, seed=9), rows)
        loop_backend = SampledBackend(shots=300, seed=9)
        looped = [loop_backend.ancilla_zero_probability(rotation_circuit(r)) for r in rows]
        np.testing.assert_array_equal(swept, looped)

    def test_grid_readouts_match_scalar_helper(self):
        rows = bindings(4, seed=7)
        backend = IdealBackend()
        vector = grid(backend, rows, shots=None)
        scalars = [
            backend.ancilla_zero_probability(rotation_circuit(r), shots=None) for r in rows
        ]
        np.testing.assert_allclose(vector, scalars, atol=1e-12)

    def test_empty_batch_yields_empty_results_on_every_backend(self):
        for backend in (
            IdealBackend(),
            SampledBackend(shots=64, seed=0),
            NoisyBackend(make_device(), seed=0),
        ):
            assert grid(backend, np.zeros((0, 3))).shape == (0,)

    def test_noisy_batch_seed_matches_per_circuit_loop(self):
        rows = bindings(4, seed=8)
        swept = grid(NoisyBackend(make_device(), seed=3), rows, shots=200)
        loop_backend = NoisyBackend(make_device(), seed=3)
        looped = [
            loop_backend.ancilla_zero_probability(rotation_circuit(r), shots=200)
            for r in rows
        ]
        np.testing.assert_array_equal(swept, looped)

    def test_noisy_batch_exact_probabilities_match_loop(self):
        rows = bindings(5, seed=12)
        backend = NoisyBackend(make_device(), seed=0)
        grid(backend, rows)
        program = backend._transpile_cache.symbolic_template(
            rotation_circuit(PARAMS), PARAMS, backend._local_coupling_map(2)
        ).ensure_program()
        readout = backend._simulator.run_sweep_program(program, rows, shots=None)
        loop_backend = NoisyBackend(make_device(), seed=0)
        for element, row in enumerate(rows):
            probabilities = element_outcomes(readout, element, readout.probabilities)
            single = loop_backend.run(rotation_circuit(row))
            assert set(probabilities) == set(single.probabilities)
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_noisy_batch_is_vectorised_and_reports_metadata(self):
        """One grid sweep is one compiled program with one ledger entry per element."""
        backend = RecordingBackend(make_device(), seed=0)
        grid(backend, bindings(3, seed=13), shots=100)
        assert len(backend.jobs) == 3
        for name, shots, stats in backend.jobs:
            assert name == "rotations_basis_routed"
            assert shots == 100
            assert stats == backend.last_transpile_stats
            assert stats["cx_count"] >= 0
        # One symbolic transpilation, reused by the next sweep.
        stats = backend.transpile_cache_stats
        assert (stats["hits"], stats["misses"]) == (0, 1)
        grid(backend, bindings(2, seed=14), shots=100)
        stats = backend.transpile_cache_stats
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_noisy_batch_enforces_shot_limit(self):
        backend = NoisyBackend(make_device(), seed=0)
        with pytest.raises(BackendError, match="at most 4096 shots"):
            grid(backend, bindings(1, seed=0), shots=100_000)

    def test_noisy_batch_rejects_too_wide_circuit(self):
        backend = NoisyBackend(make_device(num_qubits=3), seed=0)
        with pytest.raises(BackendError, match="has 3 qubits, circuit needs 4"):
            backend.sweep_grid_zero_probabilities(ghz_circuit(4), [], np.zeros((1, 0)))

    def test_noisy_batch_default_shots_match_run_default(self):
        row = np.array([0.4, 0.8, 1.2])
        backend = RecordingBackend(make_device(), seed=2)
        (zero,) = grid(backend, row[None, :])
        single = NoisyBackend(make_device(), seed=2).run(rotation_circuit(row))
        assert backend.jobs[0][1] == single.shots == 1024
        assert zero == single.marginal_probability(0, 0)

    def test_grid_entry_points_are_defined_on_each_class(self):
        # Defined on each class itself: tracing wraps ``vars(cls)`` entries.
        for cls in (IdealBackend, SampledBackend, NoisyBackend):
            assert "sweep_grid_zero_probabilities" in vars(cls)

    @pytest.mark.parametrize("shots", [None, 64])
    def test_the_base_default_equals_the_run_loop(self, shots):
        class MinimalBackend(Backend):
            def __init__(self):
                self._inner = SampledBackend(shots=64, seed=4) if shots else IdealBackend()

            def run(self, circuit, shots=None):
                return self._inner.run(circuit, shots=shots)

        rows = bindings(5, seed=0)
        reference = MinimalBackend()
        loop = [
            reference.run(rotation_circuit(row), shots=shots).marginal_probability(0, 0)
            for row in rows
        ]
        np.testing.assert_array_equal(grid(MinimalBackend(), rows, shots=shots), loop)
        assert grid(MinimalBackend(), np.zeros((0, 3)), shots=shots).shape == (0,)
        with pytest.raises(BackendError, match="grid bindings must be 2-D"):
            grid(MinimalBackend(), rows[0], shots=shots)

    def test_run_only_backend_serves_the_loop_route(self):
        from repro.core.circuit_builder import DiscriminatorCircuitBuilder
        from repro.core.layers import LayerStack
        from repro.core.swap_test import SwapTestFidelityEstimator
        from repro.encoding import BasisEncoder

        class CountingBackend(Backend):
            def __init__(self):
                self.calls = 0
                self._inner = IdealBackend()

            def run(self, circuit, shots=None):
                self.calls += 1
                return self._inner.run(circuit, shots=shots)

        encoder = BasisEncoder()
        builder = DiscriminatorCircuitBuilder(
            LayerStack.from_architecture("s", encoder.num_qubits(2)), encoder, 2
        )
        backend = CountingBackend()
        estimator = SwapTestFidelityEstimator(builder, backend=backend, shots=None)
        fidelities = estimator.fidelity_matrix(
            np.zeros((1, builder.num_parameters)), np.array([[0.1, 0.9], [0.9, 0.9]])
        )
        assert backend.calls == 2
        assert fidelities.shape == (1, 2)


class TestNoisyBackendTranspileCache:
    def test_repeat_structures_hit_the_cache(self):
        backend = NoisyBackend(make_device(), seed=0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            backend.run(rotation_circuit(rng.uniform(0, np.pi, 3)), shots=None)
        stats = backend.transpile_cache_stats
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_distinct_structures_miss_separately(self):
        backend = NoisyBackend(make_device(), seed=0)
        backend.run(rotation_circuit([0.1, 0.2, 0.3]), shots=None)
        backend.run(ghz_circuit(3), shots=None)
        assert backend.transpile_cache_stats["misses"] == 2

    def test_cache_hit_executes_identical_transpiled_circuit(self):
        """A cache hit must bind to the exact circuit a fresh transpile yields."""
        from repro.quantum.transpiler import transpile

        backend = NoisyBackend(make_device(), seed=1)
        rng = np.random.default_rng(10)
        first, second = (rotation_circuit(rng.uniform(0, np.pi, 3)) for _ in range(2))
        local_map = backend._local_coupling_map(first.num_qubits)
        backend._transpile_cache.transpile(first, local_map)  # prime (miss)
        hit = backend._transpile_cache.transpile(second, local_map)
        direct = transpile(second, local_map)
        assert backend.transpile_cache_stats["hits"] == 1
        assert len(hit.circuit.instructions) == len(direct.circuit.instructions)
        for cached_inst, direct_inst in zip(hit.circuit.instructions, direct.circuit.instructions):
            assert cached_inst.name == direct_inst.name
            assert cached_inst.qubits == direct_inst.qubits
            assert cached_inst.clbits == direct_inst.clbits
            np.testing.assert_allclose(
                [float(p) for p in cached_inst.params],
                [float(p) for p in direct_inst.params],
                atol=1e-15,
            )
        assert (hit.cx_count, hit.inserted_swaps, hit.depth) == (
            direct.cx_count,
            direct.inserted_swaps,
            direct.depth,
        )

    def test_region_cache_reuses_local_map(self):
        backend = NoisyBackend(make_device(num_qubits=5), seed=0)
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure_all()
        backend.run(qc, shots=None)
        first_map = backend._region_cache[2]
        backend.run(qc, shots=None)
        assert backend._region_cache[2] is first_map


# --------------------------------------------------------------------------- #
# The grid route on a SWAP-test discriminator: simulators and backends
# --------------------------------------------------------------------------- #

SWAP_PARAMS = [Parameter(name) for name in "abcd"]


def swap_discriminator(angles, name="disc") -> QuantumCircuit:
    """Minimal SWAP-test discriminator: ancilla + two 1-qubit registers."""
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.ry(angles[0], 1).rz(angles[1], 1)
    qc.ry(angles[2], 2).rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def swap_angles(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def noisy_model() -> NoiseModel:
    return NoiseModel.from_error_rates(
        0.01, 0.05, readout_error=0.04, t1=50.0, t2=60.0, gate_time=0.1
    )


#: The two simulators, the density one under gate noise and readout error.
SIMULATORS = {
    "statevector": lambda seed=None: StatevectorSimulator(seed=seed),
    "density": lambda seed=None: DensityMatrixSimulator(noisy_model(), seed=seed),
}


def swap_program(simulator):
    return simulator._grid_program(swap_discriminator(SWAP_PARAMS), SWAP_PARAMS)


def simulator_grid(simulator, angles, shots):
    return simulator.run_sweep_program(swap_program(simulator), angles, shots=shots)


def assert_simulator_counts_match_run(simulator_factory, seed, angles, shots):
    readout = simulator_grid(simulator_factory(seed), angles, shots)
    loop_simulator = simulator_factory(seed)
    looped = [loop_simulator.run(swap_discriminator(row), shots=shots) for row in angles]
    counts = [
        element_outcomes(readout, element, readout.counts) for element in range(len(angles))
    ]
    assert counts == [r.counts.data for r in looped]
    return readout, looped


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
class TestSimulatorGridRoute:
    """``run_sweep_program`` on each simulator against its own ``run``."""

    def test_exact_probabilities_match_run(self, kind):
        angles = swap_angles(7, seed=0)
        readout = simulator_grid(SIMULATORS[kind](), angles, None)
        for element, row in enumerate(angles):
            probabilities = element_outcomes(readout, element, readout.probabilities)
            single = SIMULATORS[kind]().run(swap_discriminator(row), shots=None)
            assert set(probabilities) == set(single.probabilities)
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_sampled_counts_seed_match_run(self, kind):
        """One stacked multinomial call must consume the RNG like the loop."""
        assert_simulator_counts_match_run(SIMULATORS[kind], 11, swap_angles(6, seed=2), 500)

    def test_identical_parameters_share_one_matrix(self, kind):
        """All-equal angles take the shared-matrix branch and stay correct."""
        angles = np.tile([0.3, 0.7, 0.3, 0.7], (3, 1))
        readout = simulator_grid(SIMULATORS[kind](), angles, None)
        single = SIMULATORS[kind]().run(swap_discriminator(angles[0]), shots=None)
        for element in range(len(angles)):
            probabilities = element_outcomes(readout, element, readout.probabilities)
            for key, value in single.probabilities.items():
                assert probabilities[key] == pytest.approx(value, abs=1e-12)

    def test_empty_batch_yields_empty_results(self, kind):
        readout = simulator_grid(SIMULATORS[kind](), np.zeros((0, 4)), shots=16)
        assert readout.probabilities.shape == readout.counts.shape == (0, 2)

    def test_zero_shots_rejected(self, kind):
        with pytest.raises(SimulationError, match="shots must be positive"):
            simulator_grid(SIMULATORS[kind](), swap_angles(2, seed=5), shots=0)

    def test_unbound_parameters_rejected(self, kind):
        with pytest.raises(SimulationError, match="binding column"):
            simulator_grid(SIMULATORS[kind](), np.zeros((2, 3)), shots=None)

    def test_shots_without_measurement_rejected(self, kind):
        t = Parameter("t")
        qc = QuantumCircuit(1)
        qc.ry(t, 0)
        simulator = SIMULATORS[kind]()
        program = simulator._grid_program(qc, [t])
        with pytest.raises(SimulationError, match="without measurements"):
            simulator.run_sweep_program(program, np.zeros((2, 1)), shots=16)

    def test_double_measurement_rejected(self, kind):
        t = Parameter("t")
        qc = QuantumCircuit(2, 2)
        qc.ry(t, 0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError, match="measured more than"):
            SIMULATORS[kind]()._grid_program(qc, [t])


class TestSimulatorGridStates:
    def test_statevectors_match_run(self):
        angles = swap_angles(4, seed=1)
        states = swap_program(StatevectorSimulator()).evolve(angles, StatevectorEngine())
        for element, row in enumerate(angles):
            single = StatevectorSimulator().run(swap_discriminator(row), shots=None)
            np.testing.assert_allclose(
                states.statevector(element).data, single.statevector.data, atol=1e-12
            )

    def test_density_matrices_match_run(self):
        angles = swap_angles(4, seed=1)
        simulator = DensityMatrixSimulator(noisy_model())
        states = swap_program(simulator).evolve(angles, simulator._program_engine())
        for element, row in enumerate(angles):
            single = DensityMatrixSimulator(noisy_model()).run(
                swap_discriminator(row), shots=None
            )
            np.testing.assert_allclose(
                states.density_matrix(element).data,
                single.density_matrix.data,
                atol=1e-12,
            )


class TestDensitySimulatorNoiseModels:
    """Draw-for-draw agreement holds for every kind of noise."""

    @staticmethod
    def factory(noise):
        return lambda seed: DensityMatrixSimulator(noise, seed=seed)

    def test_seed_match_with_gate_noise_only(self):
        noise = NoiseModel().add_all_qubit_error(depolarizing_kraus(0.02), 1)
        assert_simulator_counts_match_run(self.factory(noise), 5, swap_angles(5, seed=3), 256)

    def test_seed_match_with_readout_error_only(self):
        noise = NoiseModel().add_readout_error(ReadoutError(0.08, 0.03))
        readout, looped = assert_simulator_counts_match_run(
            self.factory(noise), 6, swap_angles(5, seed=4), 256
        )
        for element, loop_result in enumerate(looped):
            probabilities = element_outcomes(readout, element, readout.probabilities)
            assert probabilities == pytest.approx(loop_result.probabilities)

    def test_ideal_model_matches_run(self):
        assert_simulator_counts_match_run(
            self.factory(NoiseModel.ideal()), 3, swap_angles(4, seed=5), 128
        )

    def test_grid_ledgers_one_job_per_element(self):
        backend = RecordingBackend(
            DeviceProperties(
                name="line3",
                num_qubits=3,
                coupling_map=CouplingMap.linear(3),
                noise_model=noisy_model(),
            ),
            seed=0,
        )
        backend.sweep_grid_zero_probabilities(
            swap_discriminator(SWAP_PARAMS), SWAP_PARAMS, swap_angles(2, seed=6), shots=64
        )
        assert [job[:2] for job in backend.jobs] == [("disc_basis_routed", 64)] * 2
        assert all(job[2] == backend.last_transpile_stats for job in backend.jobs)


def swap_grid(backend, rows, **kwargs):
    return backend.sweep_grid_zero_probabilities(
        swap_discriminator(SWAP_PARAMS), SWAP_PARAMS, rows, **kwargs
    )


def swap_run_loop(backend, rows, **kwargs):
    return np.array(
        [backend.ancilla_zero_probability(swap_discriminator(row), **kwargs) for row in rows]
    )


class TestStatevectorBackendGridRoute:
    def test_ideal_sweep_matches_run_loop_exact(self):
        rows = swap_angles(6, seed=0)
        swept = swap_grid(IdealBackend(), rows, shots=None)
        looped = swap_run_loop(IdealBackend(), rows, shots=None)
        np.testing.assert_allclose(swept, looped, atol=1e-12)

    def test_sampled_sweep_seed_matches_run_loop(self):
        rows = swap_angles(5, seed=1)
        swept = swap_grid(SampledBackend(shots=400, seed=7), rows)
        looped = swap_run_loop(SampledBackend(shots=400, seed=7), rows)
        np.testing.assert_array_equal(swept, looped)

    def test_tile_plan_does_not_change_draws(self):
        rows = swap_angles(6, seed=2)
        plan = TilePlan(rows=6, samples=1, row_tile=2, sample_tile=1)
        tiled = swap_grid(SampledBackend(shots=300, seed=5), rows, tile_plan=plan)
        whole = swap_grid(SampledBackend(shots=300, seed=5), rows)
        np.testing.assert_array_equal(tiled, whole)

    def test_parameter_outside_the_ordering_rejected(self):
        stray = Parameter("stray")
        with pytest.raises(SimulationError, match="not in the provided parameter ordering"):
            IdealBackend().sweep_grid_zero_probabilities(
                swap_discriminator(SWAP_PARAMS[:3] + [stray]),
                SWAP_PARAMS,
                swap_angles(2, seed=3),
            )

    def test_shots_validated(self):
        with pytest.raises(BackendError, match="shots must be positive"):
            swap_grid(IdealBackend(), swap_angles(2, seed=4), shots=0)


class TestDeviceBackendGridRoute:
    """The grid route on an emulated IBM-Q device (transpiled, noisy, ledgered)."""

    def test_sweep_seed_matches_run_loop(self):
        rows = swap_angles(4, seed=5)
        swept = swap_grid(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        looped = swap_run_loop(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        np.testing.assert_array_equal(swept, looped)

    def test_sweep_ledgers_every_element_with_transpile_stats(self):
        backend = IBMQBackend("ibmq_london", seed=1)
        swap_grid(backend, swap_angles(3, seed=6), shots=64)
        assert backend.ledger.num_jobs == 3
        for record in backend.ledger.records:
            assert record.shots == 64
            assert record.cx_count > 0
            assert record.circuit_name == "disc_basis_routed"
        assert backend.last_transpile_stats["cx_count"] > 0

    def test_sweep_rejects_one_dimensional_bindings(self):
        backend = IBMQBackend("ibmq_london", seed=2)
        with pytest.raises(BackendError, match="grid bindings must be 2-D"):
            swap_grid(backend, np.zeros(4), shots=64)
        assert backend.ledger.num_jobs == 0

    def test_sweep_respects_device_width(self):
        wide = QuantumCircuit(9, 1, name="too_wide")
        wide.ry(SWAP_PARAMS[0], 0).measure(0, 0)
        backend = IBMQBackend("ibmq_london", seed=0)
        with pytest.raises(BackendError, match="has 5 qubits, circuit needs 9"):
            backend.sweep_grid_zero_probabilities(
                wide, SWAP_PARAMS[:1], np.zeros((1, 1)), shots=64
            )

    def test_empty_sweep_ledgers_nothing(self):
        backend = IBMQBackend("ibmq_london", seed=0)
        assert swap_grid(backend, np.zeros((0, 4)), shots=64).shape == (0,)
        assert backend.ledger.num_jobs == 0

    def test_tiled_sweep_seed_matches_whole(self):
        rows = swap_angles(4, seed=8)
        plan = TilePlan(rows=4, samples=1, row_tile=1, sample_tile=1)
        tiled = swap_grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128, tile_plan=plan)
        whole = swap_grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128)
        np.testing.assert_array_equal(tiled, whole)
