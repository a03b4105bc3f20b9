"""Tests for the compile-once sweep-program IR (:mod:`repro.quantum.program`)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel, depolarizing_kraus
from repro.quantum.operations import Parameter, ScaledParameter
from repro.quantum.program import (
    OPTIMIZE_PROGRAMS_ENV,
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    gate_noise_superoperator,
    optimization_enabled,
)
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator


def sweep_circuit(angles, name="sweep") -> QuantumCircuit:
    """SWAP-test-shaped circuit: shared skeleton, per-call rotation angles."""
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.ry(angles[0], 1).rz(angles[1], 1)
    qc.ry(angles[2], 2).rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def random_angles(count, seed) -> np.ndarray:
    """Binding rows of a sweep: one row of the four rotation angles per element."""
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def random_sweep(count, seed):
    """Bound sweep siblings built from :func:`random_angles`."""
    return [sweep_circuit(row) for row in random_angles(count, seed)]


def zero_one(result) -> np.ndarray:
    return np.array(
        [result.probabilities.get("0", 0.0), result.probabilities.get("1", 0.0)]
    )


NOISE = NoiseModel.from_error_rates(0.01, 0.02, readout_error=0.03)


class TestTilePlan:
    def test_circuit_sweep_full_rows_fit(self):
        plan = TilePlan.for_circuit_sweep(10, 4, element_amplitudes=8, max_amplitudes=80)
        assert plan.sample_tile == 4
        assert plan.row_tile == 2  # 10 elements of 8 amplitudes per tile
        tiles = list(plan.flat_tiles())
        assert tiles == [(0, 8), (8, 16), (16, 24), (24, 32), (32, 40)]

    def test_circuit_sweep_splits_rows_when_one_does_not_fit(self):
        plan = TilePlan.for_circuit_sweep(2, 10, element_amplitudes=8, max_amplitudes=32)
        assert plan.row_tile == 1
        assert plan.sample_tile == 4
        tiles = list(plan.flat_tiles())
        # Tiles never straddle a row boundary and cover everything contiguously.
        assert tiles[0] == (0, 4)
        assert (8, 10) in tiles  # clipped at the first row's end
        assert (10, 14) in tiles  # second row restarts its own tiling
        assert tiles[-1] == (18, 20)
        covered = [i for start, stop in tiles for i in range(start, stop)]
        assert covered == list(range(20))

    def test_circuit_sweep_budget_below_one_element_raises(self):
        with pytest.raises(SimulationError) as error:
            TilePlan.for_circuit_sweep(3, 2, element_amplitudes=8, max_amplitudes=1)
        assert str(error.value) == (
            "amplitude budget 1 cannot hold the smallest tile, 1 state(s) of 8 "
            "amplitudes; raise max_amplitudes to at least 8"
        )
        plan = TilePlan.for_circuit_sweep(3, 2, element_amplitudes=8, max_amplitudes=8)
        assert plan.tile_elements == 1
        assert len(list(plan.flat_tiles())) == 6

    def test_state_overlap_budget_below_a_row_and_a_sample_state_raises(self):
        with pytest.raises(SimulationError) as error:
            TilePlan.for_state_overlap(3, 2, state_amplitudes=4, max_amplitudes=7)
        assert str(error.value) == (
            "amplitude budget 7 cannot hold the smallest tile, 2 state(s) of 4 "
            "amplitudes; raise max_amplitudes to at least 8"
        )
        plan = TilePlan.for_state_overlap(3, 2, state_amplitudes=4, max_amplitudes=8)
        assert (plan.row_tile, plan.sample_tile) == (1, 1)

    def test_state_overlap_budgets_both_operands(self):
        plan = TilePlan.for_state_overlap(100, 50, state_amplitudes=4, max_amplitudes=80)
        # 20 states fit; the sample axis gets half, the rows the rest.
        assert plan.sample_tile == 10
        assert plan.row_tile == 10
        assert list(plan.sample_tiles())[0] == (0, 10)
        assert list(plan.row_tiles())[-1] == (90, 100)

    def test_state_overlap_is_one_tile_whenever_every_state_fits(self):
        # 20 states fit.  2 rows + 17 samples take one tile, although the
        # samples alone are more than half the budget.
        plan = TilePlan.for_state_overlap(2, 17, state_amplitudes=4, max_amplitudes=80)
        assert (plan.row_tile, plan.sample_tile, plan.num_tiles) == (2, 17, 1)
        # The edge: 3 + 17 states fill the budget exactly, still one tile.
        edge = TilePlan.for_state_overlap(3, 17, state_amplitudes=4, max_amplitudes=80)
        assert (edge.row_tile, edge.sample_tile, edge.num_tiles) == (3, 17, 1)
        # One state more and the samples split at half the budget.
        over = TilePlan.for_state_overlap(4, 17, state_amplitudes=4, max_amplitudes=80)
        assert (over.row_tile, over.sample_tile) == (4, 10)

    def test_empty_grid_yields_no_tiles(self):
        plan = TilePlan.for_circuit_sweep(0, 5, element_amplitudes=2, max_amplitudes=16)
        assert list(plan.flat_tiles()) == []
        assert plan.total_elements == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            TilePlan(rows=-1, samples=2, row_tile=1, sample_tile=1)
        with pytest.raises(SimulationError):
            TilePlan(rows=1, samples=2, row_tile=0, sample_tile=1)
        with pytest.raises(SimulationError):
            TilePlan.for_circuit_sweep(1, 1, element_amplitudes=0, max_amplitudes=8)
        with pytest.raises(SimulationError):
            TilePlan.for_state_overlap(1, 1, state_amplitudes=4, max_amplitudes=0)


RETIRED_KNOB_MESSAGE = (
    "REPRO_OPTIMIZE_PROGRAMS was removed: plan-time fusion is gone and density "
    "schedules now fold runs of fixed steps by default; unset "
    "REPRO_OPTIMIZE_PROGRAMS"
)


class TestRetiredOptimizeKnob:
    """The removed fusion switch fails closed instead of meaning nothing."""

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_compile_refuses_while_the_variable_is_set(self, value, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, value)
        assert optimization_enabled()
        with pytest.raises(SimulationError) as excinfo:
            SweepProgram.compile(sweep_circuit([0.1, 0.2, 0.3, 0.4]), bind_floats=True)
        assert str(excinfo.value) == RETIRED_KNOB_MESSAGE

    @pytest.mark.parametrize("value", ["", "0", "off"])
    def test_an_unset_or_false_variable_compiles(self, value, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, value)
        assert not optimization_enabled()
        SweepProgram.compile(sweep_circuit([0.1, 0.2, 0.3, 0.4]), bind_floats=True)

    @pytest.mark.parametrize(
        "simulator", [StatevectorSimulator, DensityMatrixSimulator], ids=["sv", "dm"]
    )
    def test_every_route_compiles_through_the_refusal(self, simulator, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, "1")
        with pytest.raises(SimulationError, match="REPRO_OPTIMIZE_PROGRAMS was removed"):
            simulator().run(sweep_circuit([0.1, 0.2, 0.3, 0.4]), shots=None)

    def test_the_knobs_are_not_accepted(self):
        with pytest.raises(TypeError):
            SweepProgram.compile(sweep_circuit([0.1] * 4), bind_floats=True, optimize=True)
        with pytest.raises(TypeError):
            StatevectorSimulator(optimize_programs=True)
        with pytest.raises(TypeError):
            DensityMatrixSimulator(optimize_programs=True)


class TestCompile:
    def test_bound_mode_columns_and_bindings(self):
        program = SweepProgram.compile(random_sweep(1, seed=0)[0], bind_floats=True)
        assert program.num_columns == 4
        assert program.parameters == ()
        assert program.measured_qubits == (0,)
        assert program.clbits == (0,)
        # Column order follows instruction order: ry, rz, ry, rz after the h.
        assert program.column_sites == ((1, 0), (2, 0), (3, 0), (4, 0))

    def test_bound_mode_fixed_gates_have_matrices(self):
        program = SweepProgram.compile(random_sweep(1, seed=1)[0], bind_floats=True)
        fixed = [step for step in program.steps if step.is_fixed]
        parametric = [step for step in program.steps if not step.is_fixed]
        assert {step.name for step in fixed} == {"h", "cswap"}
        assert {step.name for step in parametric} == {"ry", "rz"}

    def test_symbolic_mode_orders_columns_by_parameters(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        qc = QuantumCircuit(2, 1)
        qc.ry(theta, 0)
        qc.rz(ScaledParameter(phi, -0.5), 1)
        qc.rz(0.25, 1)  # structural constant -> fixed matrix
        qc.measure(0, 0)
        program = SweepProgram.compile(qc, bind_floats=False, parameters=[phi, theta])
        assert program.parameters == (phi, theta)
        ry = next(step for step in program.steps if step.name == "ry")
        assert ry.slots == (("column", 1, 1.0),)
        scaled_rz = next(
            step for step in program.steps if step.name == "rz" and not step.is_fixed
        )
        assert scaled_rz.slots == (("column", 0, -0.5),)
        fixed_rz = [s for s in program.steps if s.name == "rz" and s.is_fixed]
        assert len(fixed_rz) == 1  # the 0.25 structural constant

    def test_symbolic_mode_rejects_unknown_parameter(self):
        qc = QuantumCircuit(1, 1)
        qc.ry(Parameter("theta"), 0).measure(0, 0)
        with pytest.raises(SimulationError):
            SweepProgram.compile(qc, bind_floats=False, parameters=[Parameter("other")])

    def test_bound_mode_rejects_symbolic(self):
        qc = QuantumCircuit(1, 1)
        qc.ry(Parameter("theta"), 0).measure(0, 0)
        with pytest.raises(SimulationError):
            SweepProgram.compile(qc, bind_floats=True)

    def test_resets_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).reset(0).measure(0, 0)
        with pytest.raises(SimulationError):
            SweepProgram.compile(qc, bind_floats=True)

    def test_double_measurement_rejected(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            SweepProgram.compile(qc, bind_floats=True)


class TestExecutionEquivalence:
    def test_statevector_matches_per_circuit_loop(self):
        angles = random_angles(6, seed=4)
        circuits = [sweep_circuit(row) for row in angles]
        program = SweepProgram.compile(circuits[0], bind_floats=True)
        joint = program.execute(angles, StatevectorEngine())
        for circuit, row in zip(circuits, joint):
            np.testing.assert_allclose(
                row, zero_one(StatevectorSimulator().run(circuit)), atol=1e-12
            )

    def test_density_precomposed_matches_per_circuit_loop(self):
        angles = random_angles(5, seed=5)
        circuits = [sweep_circuit(row) for row in angles]
        program = SweepProgram.compile(circuits[0], bind_floats=True)
        engine = DensitySuperoperatorEngine(NOISE)
        joint = program.execute(angles, engine)
        simulator = DensityMatrixSimulator(noise_model=NOISE)
        for circuit, row in zip(circuits, joint):
            np.testing.assert_allclose(
                row, zero_one(simulator.run(circuit, shots=None)), atol=1e-10
            )

    def test_execute_without_measurement_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        program = SweepProgram.compile(qc, bind_floats=True)
        with pytest.raises(SimulationError):
            program.execute(np.zeros((1, 0)), StatevectorEngine())

    def test_bindings_shape_validated(self):
        program = SweepProgram.compile(random_sweep(1, seed=6)[0], bind_floats=True)
        with pytest.raises(SimulationError):
            program.execute(np.zeros((2, 3)), StatevectorEngine())
        with pytest.raises(SimulationError):
            program.execute(np.zeros((0, 4)), StatevectorEngine())


class TestTiledExecution:
    def test_statevector_tiled_bit_identical(self):
        bindings = random_angles(7, seed=7)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        full = program.execute(bindings, StatevectorEngine())
        for row_tile in (1, 2, 3, 5):
            plan = TilePlan(rows=7, samples=1, row_tile=row_tile, sample_tile=1)
            tiled = program.execute(bindings, StatevectorEngine(), tile_plan=plan)
            np.testing.assert_array_equal(tiled, full)

    def test_density_tiled_matches_untiled(self):
        bindings = random_angles(6, seed=8)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        engine = DensitySuperoperatorEngine(NOISE)
        full = program.execute(bindings, engine)
        for row_tile in (1, 2, 4):
            plan = TilePlan(rows=6, samples=1, row_tile=row_tile, sample_tile=1)
            tiled = program.execute(bindings, engine, tile_plan=plan)
            # BLAS kernels vary with the batch extent, so the density path
            # guarantees agreement to floating-point noise (and hence
            # seed-identical sampled counts), not raw bit equality.
            np.testing.assert_allclose(tiled, full, atol=1e-12)

    def test_tile_plan_extent_mismatch_rejected(self):
        bindings = random_angles(3, seed=9)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        plan = TilePlan(rows=4, samples=1, row_tile=2, sample_tile=1)
        with pytest.raises(SimulationError):
            program.execute(bindings, StatevectorEngine(), tile_plan=plan)

    def test_shared_angle_sweep_keeps_shared_path_under_tiling(self):
        bindings = np.tile([0.3, 0.7, 0.2, 0.9], (4, 1))
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        full = program.execute(bindings, StatevectorEngine())
        plan = TilePlan(rows=4, samples=1, row_tile=3, sample_tile=1)
        np.testing.assert_array_equal(
            program.execute(bindings, StatevectorEngine(), tile_plan=plan), full
        )


class TestNoisePrecomposition:
    def test_gate_noise_superoperator_matches_sequential_channels(self):
        """The precomposed matrix equals channel-by-channel Kraus application."""
        noise = NoiseModel()
        noise.add_gate_error("cx", depolarizing_kraus(0.05, 2))
        noise.add_all_qubit_error(depolarizing_kraus(0.02, 1), 2)
        superop = gate_noise_superoperator("cx", (0, 1), noise)
        rng = np.random.default_rng(10)
        amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amplitudes /= np.linalg.norm(amplitudes)
        # Sequential application, exactly like the per-circuit simulator.
        sequential = DensityMatrix(np.outer(amplitudes, amplitudes.conj()))
        sequential.apply_kraus(depolarizing_kraus(0.05, 2), (0, 1))
        for qubit in (0, 1):
            sequential.apply_kraus(depolarizing_kraus(0.02, 1), (qubit,))
        vectorised = superop @ np.outer(amplitudes, amplitudes.conj()).reshape(-1)
        np.testing.assert_allclose(
            vectorised.reshape(4, 4), sequential.data, atol=1e-12
        )

    def test_ideal_model_precomposes_nothing(self):
        assert gate_noise_superoperator("h", (0,), NoiseModel.ideal()) is None

    def test_engine_plans_compile_once_per_program(self):
        bindings = random_angles(3, seed=11)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        engine = DensitySuperoperatorEngine(NOISE)
        for _ in range(3):
            program.execute(bindings, engine)
        assert engine.plans_compiled == 1

    def test_incompatible_channel_width_rejected(self):
        noise = NoiseModel()
        noise.add_gate_error("h", depolarizing_kraus(0.1, 2))
        with pytest.raises(SimulationError):
            gate_noise_superoperator("h", (0,), noise)

    def test_in_place_noise_mutation_invalidates_plans(self):
        """Mutating the model after a sweep must recompose the plans.

        ``NoiseModel`` is a chainable builder; a model attached to an engine
        can grow new channels in place, and the precomposed superoperator
        plans must track it exactly like the per-circuit loop does.
        """
        bindings = random_angles(3, seed=12)
        circuits = [sweep_circuit(row) for row in bindings]
        program = SweepProgram.compile(circuits[0], bind_floats=True)
        model = NoiseModel()
        engine = DensitySuperoperatorEngine(model)
        before = program.execute(bindings, engine)
        model.add_all_qubit_error(depolarizing_kraus(0.2, 1), 1)
        after = program.execute(bindings, engine)
        assert engine.plans_compiled == 2
        assert not np.allclose(before, after)
        simulator = DensityMatrixSimulator(noise_model=model)
        for circuit, row in zip(circuits, after):
            np.testing.assert_allclose(
                row, zero_one(simulator.run(circuit, shots=None)), atol=1e-10
            )


class TestNoiseModelPinnedPerSweep:
    """A sweep resolves its plans once; a model mutated inside it raises."""

    def mutating_engine(self, model, after_calls):
        """An engine whose ``apply_step`` grows the model on call ``after_calls``."""
        engine = DensitySuperoperatorEngine(model)
        real = engine.apply_step
        calls = []

        def apply_step(state, step, plan, matrix):
            calls.append(1)
            if len(calls) == after_calls:
                model.add_all_qubit_error(depolarizing_kraus(0.2, 1), 1)
            real(state, step, plan, matrix)

        engine.apply_step = apply_step
        return engine

    def test_mutation_inside_a_tile_names_both_versions(self):
        bindings = random_angles(4, seed=14)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        model = NoiseModel()
        engine = self.mutating_engine(model, after_calls=len(program.steps) + 1)
        plan = TilePlan.for_circuit_sweep(4, 1, 2**3, 2 * 2**3)
        with pytest.raises(SimulationError) as excinfo:
            program.execute(bindings, engine, tile_plan=plan)
        assert str(excinfo.value) == (
            "sweep(sweep): noise_model changed during the sweep (version 0 when "
            "its plans were resolved, 1 after tile [2, 4)); mutate a noise model "
            "between sweeps, not during one"
        )
        assert engine.plans_compiled == 1

    def test_evolve_pins_the_model_too(self):
        bindings = random_angles(2, seed=15)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        model = NoiseModel()
        with pytest.raises(SimulationError, match=r"version 0 when its plans were resolved, 1 after tile \[0, 2\)"):
            program.evolve(bindings, self.mutating_engine(model, after_calls=1))

    def test_plans_resolved_once_per_sweep(self, monkeypatch):
        bindings = random_angles(6, seed=16)
        program = SweepProgram.compile(sweep_circuit(bindings[0]), bind_floats=True)
        engine = DensitySuperoperatorEngine(NOISE)
        calls = []
        real = engine.step_plans
        monkeypatch.setattr(engine, "step_plans", lambda p: calls.append(1) or real(p))
        plan = TilePlan.for_circuit_sweep(6, 1, 2**3, 2**3)
        program.execute(bindings, engine, tile_plan=plan)
        assert plan.num_tiles == 6
        assert len(calls) == 1


class TestSimulatorTracksLiveNoiseModel:
    def test_grid_program_matches_run_after_in_place_mutation(self):
        """run() and the cached grid program must agree after the model grows
        channels: the noise version change replans the composed schedule."""
        params = [Parameter(name) for name in "abcd"]
        angles = np.random.default_rng(13).uniform(0, np.pi, size=(2, 4))
        model = NoiseModel()
        simulator = DensityMatrixSimulator(noise_model=model, seed=0)

        def sweep():
            program = simulator._grid_program(sweep_circuit(params), params)
            return simulator.run_sweep_program(program, angles, shots=None)

        sweep()  # plans the ideal model
        model.add_all_qubit_error(depolarizing_kraus(0.25, 1), 1)
        readout = sweep()
        for row, probabilities in zip(angles, readout.probabilities):
            loop = DensityMatrixSimulator(noise_model=model).run(
                sweep_circuit(row), shots=None
            )
            assert probabilities[0] == pytest.approx(loop.probabilities["0"], abs=1e-10)

