"""Tests for the static cost-model verifier (:mod:`repro.analysis.cost`).

Two halves: a malformed-plan corpus asserting that every budget-exceeding
``TilePlan`` is rejected with the exact VER2xx code, and the calibration
contract — the predicted peak bytes of the Iris-4 and MNIST-8 reference
programs must stay within 1.5x of a tracemalloc-measured tiled execution
(the factor ``benchmarks/bench_program_compile.py`` records alongside its
tracemalloc peaks).
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.cost import (
    COST_CODES,
    EINSUM_LIVE_ARRAYS,
    estimate_cost,
    reference_cost_reports,
    verify_cost,
    verify_reference_costs,
)
from repro.analysis.diagnostics import Severity
from repro.analysis.equiv import shared_prefix_length
from repro.core.model import QuClassi
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.program import (
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    factor_region,
)
from repro.utils.rng import ensure_rng

#: Calibration tolerance of the peak-bytes prediction (both directions).
ACCURACY_FACTOR = 1.5


def measure_a_register_qubit(circuit):
    """``circuit`` also measuring qubit 1, a register qubit, into a new clbit.

    The result is no SWAP test, so the statevector engine reads it out
    stepwise from the whole ``2**n`` state.
    """
    wider = QuantumCircuit(circuit.num_qubits, circuit.num_clbits + 1).compose(circuit)
    return wider.measure(1, circuit.num_clbits)


def compile_discriminator(num_features, architecture="s", seed=2022, stepwise=False):
    """One bound QuClassi discriminator program plus its bindings row.

    The discriminator is a SWAP test, which the statevector engine reads out
    as a register overlap; ``stepwise`` also measures a register qubit
    (:func:`measure_a_register_qubit`).
    """
    rng = ensure_rng(seed)
    builder = QuClassi(
        num_features=num_features, num_classes=2, architecture=architecture, seed=seed
    ).builder
    circuit = builder.build(
        rng.uniform(0.05, 1.0, size=num_features),
        rng.uniform(0.0, np.pi, size=len(builder.parameters)),
    )
    if stepwise:
        circuit = measure_a_register_qubit(circuit)
    program = SweepProgram.compile(circuit, bind_floats=True)
    row = [float(circuit.instructions[at].params[slot]) for at, slot in program.column_sites]
    return program, row


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


# --------------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------------- #


class TestEstimateCost:
    def test_statevector_element_is_2_to_n(self):
        program, _ = compile_discriminator(4, stepwise=True)
        plan = TilePlan.for_circuit_sweep(4, 8, 2**program.num_qubits, 2**20)
        report = estimate_cost(program, plan)
        assert report.element_amplitudes == 2**program.num_qubits
        assert report.peak_amplitudes == report.tile_elements * 2**program.num_qubits

    def test_an_overlap_tile_holds_both_registers_and_a_rows(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(4, 8, 2**program.num_qubits, 2**20)
        report = estimate_cost(program, plan)
        # An element is three 2-qubit registers, the unit the backends
        # budget grid tiles in; the working set is each element's two
        # registers plus register A's grid rows.
        assert report.element_amplitudes == 3 * 2**2
        assert report.peak_amplitudes == (2 * report.tile_elements + 4) * 2**2

    def test_density_element_is_4_to_n(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(4, 8, 4**program.num_qubits, 2**20)
        report = estimate_cost(program, plan, engine="density")
        assert report.element_amplitudes == 4**program.num_qubits
        assert report.superoperator_contractions == report.contractions

    @pytest.mark.parametrize("stepwise", [True, False])
    def test_contractions_scale_with_tiles(self, stepwise):
        program, _ = compile_discriminator(4, stepwise=stepwise)
        # Stepwise every step runs; the overlap runs the register steps only,
        # not the ancilla's two h steps and the two cswaps.
        dispatched = len(program.steps) - (0 if stepwise else 4)
        element = 2**program.num_qubits
        one_tile = estimate_cost(
            program, TilePlan.for_circuit_sweep(4, 8, element, element * 32)
        )
        many_tiles = estimate_cost(
            program, TilePlan.for_circuit_sweep(4, 8, element, element * 4)
        )
        assert one_tile.num_tiles == 1
        assert many_tiles.num_tiles > 1
        assert many_tiles.contractions == many_tiles.num_tiles * dispatched
        assert one_tile.contractions == dispatched

    def test_state_overlap_mode_sums_row_and_sample_tiles(self):
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        plan = TilePlan.for_state_overlap(6, 10, element, element * 8)
        report = estimate_cost(program, plan, mode="state_overlap")
        assert report.tile_elements == min(6, plan.row_tile) + min(
            10, plan.sample_tile
        )

    def test_unknown_engine_or_mode_rejected(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(2, 2, 2**program.num_qubits, 2**20)
        with pytest.raises(ValueError):
            estimate_cost(program, plan, engine="tensor-network")
        with pytest.raises(ValueError):
            estimate_cost(program, plan, mode="diagonal")

    def test_report_round_trips_to_dict(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(2, 2, 2**program.num_qubits, 2**20)
        payload = estimate_cost(program, plan).to_dict()
        for key in ("program", "engine", "mode", "peak_bytes", "contractions"):
            assert key in payload
        assert payload["shared_prefix_steps"] == 0

    @pytest.mark.parametrize("tile_elements,prefix_rows", [(8, 8), (12, 8), (3, 16)])
    def test_shared_prefix_steps_discount_element_contractions(
        self, tile_elements, prefix_rows
    ):
        program, _ = compile_discriminator(4, stepwise=True)
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(8, 4, element, element * tile_elements)
        baseline = estimate_cost(program, plan)
        assert baseline.element_contractions == plan.total_elements * len(
            program.steps
        )
        prefix = 3
        shared = estimate_cost(program, plan, shared_prefix_steps=prefix)
        assert shared.shared_prefix_steps == prefix
        # Prefix steps cost one element per grid row of each tile instead of
        # one per element: 8 rows over whole-row tiles, 16 when every row
        # is split in two.
        assert shared.element_contractions == (
            prefix_rows * prefix
            + plan.total_elements * (len(program.steps) - prefix)
        )
        assert shared.element_contractions < baseline.element_contractions
        # The einsum-call count is tiling-determined either way.
        assert shared.contractions == baseline.contractions

    @pytest.mark.parametrize("engine_name", ["statevector", "density"])
    def test_element_contractions_equal_the_traced_step_elements(self, engine_name):
        """On multi-row tiles the prediction counts what ``apply_step`` sees."""
        from repro.quantum.program import DensitySuperoperatorEngine

        rng = ensure_rng(6)
        builder = QuClassi(num_features=4, num_classes=2, architecture="d", seed=6).builder
        program = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
        )
        rows, samples = 3, 4
        bindings = builder.grid_bindings(
            rng.uniform(0.0, np.pi, size=(rows, len(builder.parameters))),
            rng.uniform(0.05, 0.95, size=(samples, 4)),
        )
        density = engine_name == "density"
        engine = DensitySuperoperatorEngine() if density else StatevectorEngine()
        element = (4 if density else 2) ** program.num_qubits
        plan = TilePlan.for_circuit_sweep(rows, samples, element, 8 * element)
        assert list(plan.flat_tiles()) == [(0, 8), (8, 12)]
        prefix = shared_prefix_length(program, bindings[:samples])
        assert 0 < prefix < len(program.steps)
        elements = []
        apply_step = engine.apply_step

        def traced(state, step, step_plan, matrix):
            elements.append(state.batch_size)
            return apply_step(state, step, step_plan, matrix)

        engine.apply_step = traced
        program.execute(bindings, engine, tile_plan=plan)
        report = estimate_cost(
            program, plan, engine=engine_name, shared_prefix_steps=prefix
        )
        assert report.element_contractions == sum(elements)
        # Plus one observable readout matmul per density tile.
        assert report.contractions == len(elements) + density * plan.num_tiles

    @pytest.mark.parametrize("num_features,architecture", [(4, "s"), (16, "s"), (16, "sde")])
    def test_overlap_predictions_equal_the_traced_register_kernels(
        self, num_features, architecture, monkeypatch
    ):
        """Iris QC-S and 17-qubit MNIST QC-S/QC-SDE read out as overlaps.

        The prediction charges register A's steps per grid row of each
        tile and register B's per element, on the register's width: the
        traced ``apply_step`` calls, their elements and the kernels'
        einsum and matmul calls all match it.
        """
        from repro import arrays

        rng = ensure_rng(9)
        builder = QuClassi(
            num_features=num_features, num_classes=2, architecture=architecture, seed=9
        ).builder
        program = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
        )
        rows, samples = 2, 16
        plan = TilePlan.for_grid_sweep(rows, samples, 2**program.num_qubits, 2**21)
        bindings = builder.grid_bindings(
            rng.uniform(0.0, np.pi, size=(rows, len(builder.parameters))),
            rng.uniform(0.05, 0.95, size=(samples, num_features)),
        )
        engine = StatevectorEngine()
        registers = engine.readout_plan(program).registers
        assert registers is not None
        for register in registers:
            engine.step_plans(register.program)  # certify before counting
        widths, calls = [], {"einsum": 0, "matmul": 0}
        apply_step = engine.apply_step

        def traced(state, step, step_plan, matrix):
            widths.append((state.num_qubits, state.batch_size))
            return apply_step(state, step, step_plan, matrix)

        def counting(name):
            original = getattr(arrays, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        engine.apply_step = traced
        for name in calls:
            monkeypatch.setattr(arrays, name, counting(name))
        program.execute(bindings, engine, tile_plan=plan)
        prefix = shared_prefix_length(program, bindings[:samples])
        report = estimate_cost(program, plan, shared_prefix_steps=prefix)
        # Factor steps run on one-qubit factors, the rest on the register,
        # and the prediction charges each step the bytes of its state.
        register_width = num_features // 2
        assert {width for width, _ in widths} <= {1, register_width}
        itemsize = report.bytes_per_amplitude
        assert sum(report.step_bytes_moved) == sum(
            2 * batch * 2**width * itemsize for width, batch in widths
        )
        assert report.contractions == len(widths)
        assert report.element_contractions == sum(batch for _, batch in widths)
        assert report.einsum_contractions == calls["einsum"] == 0
        assert report.matmul_contractions == calls["matmul"]
        # Register A, the trained prefix, runs once per grid row of a tile.
        tile_rows = sum(len(plan.tile_rows(*tile)[0]) for tile in plan.flat_tiles())
        assert tile_rows == rows
        assert sum(batch for _, batch in widths) == (
            tile_rows * len(registers[0].steps)
            + plan.total_elements * len(registers[1].steps)
        )

    def test_sde_trained_state_predictions_equal_the_traced_kernels(self, monkeypatch):
        """The analytic estimator's QC-SDE trained state, one 88-row evolve.

        Its one-qubit QC-S and dual layers run on one-qubit factors and the
        entangling layer on the 8-qubit register: the traced calls per
        kernel width, their elements, bytes and contraction calls all match
        the prediction.
        """
        from repro import arrays

        builder = QuClassi(num_features=16, num_classes=2, architecture="sde", seed=3).builder
        program = SweepProgram.compile(
            builder.trained_state_circuit(None),
            bind_floats=False,
            parameters=builder.parameters,
            name="trained_state",
        )
        rows = 88
        bindings = ensure_rng(3).uniform(0.0, np.pi, size=(rows, len(builder.parameters)))
        # ``evolve`` runs the whole batch as one tile of one-sample rows.
        plan = TilePlan.for_circuit_sweep(rows, 1, 2**program.num_qubits, 2**20)
        assert plan.num_tiles == 1
        engine = StatevectorEngine()
        engine.step_plans(program)  # certify before counting
        traced_steps, calls = [], {"einsum": 0, "matmul": 0}
        apply_step = engine.apply_step

        def traced(state, step, step_plan, matrix):
            traced_steps.append((len(step.qubits), state.num_qubits, state.batch_size))
            return apply_step(state, step, step_plan, matrix)

        def counting(name):
            original = getattr(arrays, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        engine.apply_step = traced
        for name in calls:
            monkeypatch.setattr(arrays, name, counting(name))
        program.evolve(bindings, engine)
        report = estimate_cost(program, plan)
        region = factor_region(program)
        assert 0 < region < len(program.steps)
        # Every one-qubit step precedes the entangling layer.
        widths = [(k, width) for k, width, _ in traced_steps]
        assert widths == [(1, 1)] * region + [(2, 8)] * (len(program.steps) - region)
        assert report.contractions == len(traced_steps)
        assert report.element_contractions == rows * len(traced_steps)
        assert report.einsum_contractions == calls["einsum"] == 0
        assert report.matmul_contractions == calls["matmul"]
        itemsize = report.bytes_per_amplitude
        assert sum(report.step_bytes_moved) == sum(
            2 * batch * 2**width * itemsize for _, width, batch in traced_steps
        )
        assert report.product_bytes_moved == 2 * rows * 2**8 * itemsize

    def test_shared_prefix_steps_out_of_range_rejected(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(2, 2, 2**program.num_qubits, 2**20)
        with pytest.raises(ValueError):
            estimate_cost(program, plan, shared_prefix_steps=-1)
        with pytest.raises(ValueError):
            estimate_cost(program, plan, shared_prefix_steps=len(program.steps) + 1)

    @pytest.mark.parametrize("architecture", ["s", "d", "e", "sde"])
    @pytest.mark.parametrize("readout,num_features", [("stepwise", 4), ("overlap", 8)])
    def test_predicted_einsum_and_matmul_calls_equal_the_traced_calls(
        self, readout, num_features, architecture, monkeypatch
    ):
        """Stepwise the whole program runs; an overlap runs its registers.

        The overlap case takes 8 features, so each 4-qubit register has an
        interior qubit whose one-qubit updates run the axpy.
        """
        from repro import arrays
        from repro.quantum import kernels

        rng = ensure_rng(5)
        builder = QuClassi(
            num_features=num_features, num_classes=2, architecture=architecture, seed=5
        ).builder
        circuit = builder.symbolic_discriminator()
        if readout == "stepwise":
            circuit = measure_a_register_qubit(circuit)
        program = SweepProgram.compile(
            circuit, bind_floats=False, parameters=builder.grid_parameters
        )
        rows, samples = 2, 6
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(rows, samples, element, 4 * element)
        bindings = builder.grid_bindings(
            rng.uniform(0.0, np.pi, size=(rows, len(builder.parameters))),
            rng.uniform(0.05, 0.95, size=(samples, num_features)),
        )
        engine = StatevectorEngine()
        assert engine.readout_plan(program).mode == readout
        # Certify the plans that run before counting: a certificate runs
        # its kernel.
        if readout == "stepwise":
            plans = list(engine.step_plans(program))
        else:
            registers = engine.readout_plan(program).registers
            plans = [p for r in registers for p in engine.step_plans(r.program)]
        calls = {"einsum": 0, "matmul": 0}

        def counting(name):
            original = getattr(arrays, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(arrays, name, counting(name))
        program.execute(bindings, engine, tile_plan=plan)
        report = estimate_cost(program, plan)
        assert report.einsum_contractions == calls["einsum"]
        assert report.matmul_contractions == calls["matmul"]
        assert 0 < report.matmul_contractions < report.contractions
        # Interior targets on the register run the axpy, no contraction
        # call: the entangling layer's controlled steps.  The one-qubit
        # steps before it run on their factors, a left matmul each.
        variants = {getattr(getattr(p, "update", None), "variant", None) for p in plans}
        assert (kernels.AXPY in variants) == ("e" in architecture)
        density = estimate_cost(program, plan, engine="density")
        assert density.matmul_contractions == density.contractions
        assert density.einsum_contractions == 0

    def test_wide_dense_steps_are_einsum_calls(self):
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        circuit.rxx(0.4, 1, 2)
        circuit.cry(0.3, 0, 3)
        program = SweepProgram.compile(circuit, bind_floats=True)
        plan = TilePlan.for_circuit_sweep(1, 3, 16, 64)
        report = estimate_cost(program, plan)
        # h(0) .. h(3): left matmuls on their one-qubit factors; rxx: the
        # einsum; cry on (0, 3): the right matmul of the control=1 half.
        assert (report.einsum_contractions, report.matmul_contractions) == (1, 5)


class TestDensityScheduleCount:
    """Density contractions are the prefix schedule's matmuls plus one readout."""

    def test_predicted_matmuls_equal_the_dispatched_steps_of_one_tile(
        self, london_template, monkeypatch
    ):
        from repro import arrays
        from repro.quantum.program import DensitySuperoperatorEngine

        program, noise = london_template
        bindings = ensure_rng(3).uniform(0.0, np.pi, size=(4, program.num_columns))
        element = 4**program.num_qubits
        plan = TilePlan.for_circuit_sweep(4, 1, element, 4 * element)
        report = estimate_cost(program, plan, engine="density")
        assert report.num_tiles == 1
        engine = DensitySuperoperatorEngine(noise)
        engine.step_plans(program)  # plan (and fold the tail) before counting
        calls, transposes, matmuls = [], [], []
        real = DensitySuperoperatorEngine.apply_step

        def counted(self, state, step, plan, matrix):
            calls.append(step.name)
            transposes.append(plan.layout.transpose is not None)
            return real(self, state, step, plan, matrix)

        matmul = arrays.matmul
        monkeypatch.setattr(DensitySuperoperatorEngine, "apply_step", counted)
        monkeypatch.setattr(
            arrays, "matmul", lambda *args, **kw: matmuls.append(1) or matmul(*args, **kw)
        )
        program.execute(bindings, engine, tile_plan=plan)
        assert len(program.steps) == 68
        # Steps 0-8 are dispatched; the fixed tail 9-67 is one readout matmul.
        assert len(calls) == 9
        assert report.contractions == report.superoperator_contractions == len(matmuls) == 10
        assert report.matmul_contractions == 10
        assert report.transposes == sum(transposes) == 5

    def test_every_tile_pays_the_schedule(self, london_template):
        program, _ = london_template
        element = 4**program.num_qubits
        one = estimate_cost(
            program, TilePlan.for_circuit_sweep(6, 1, element, 6 * element), engine="density"
        )
        many = estimate_cost(
            program, TilePlan.for_circuit_sweep(6, 1, element, 2 * element), engine="density"
        )
        assert many.num_tiles == 3
        assert many.contractions == 3 * one.contractions
        assert many.transposes == 3 * one.transposes
        statevector = estimate_cost(program, TilePlan.for_circuit_sweep(6, 1, 2, 12))
        assert statevector.contractions == len(program.steps)
        assert statevector.transposes == 0

    def test_shared_prefix_charges_only_dispatched_steps(self, london_template):
        from repro.quantum.program import density_readout_split, density_schedule

        program, _ = london_template
        _, heads = density_schedule(program)
        split, _ = density_readout_split(program)
        dispatched = [head == index and index < split for index, head in enumerate(heads)]
        element = 4**program.num_qubits
        plan = TilePlan.for_circuit_sweep(2, 4, element, 8 * element)
        assert plan.num_tiles == 1
        prefix = 5
        report = estimate_cost(program, plan, engine="density", shared_prefix_steps=prefix)
        # One tile of two grid rows: each prefix step evolves both rows.
        assert report.element_contractions == (
            2 * sum(dispatched[:prefix]) + plan.total_elements * sum(dispatched[prefix:])
        )

    def test_bytes_moved_follow_the_split(self, london_template):
        from repro.quantum.program import density_readout_split

        program, _ = london_template
        element = 4**program.num_qubits
        plan = TilePlan.for_circuit_sweep(4, 1, element, 4 * element)
        report = estimate_cost(program, plan, engine="density")
        split, _ = density_readout_split(program)
        state_bytes = element * report.bytes_per_amplitude
        moved = report.step_bytes_moved
        assert len(moved) == len(program.steps)
        assert not any(moved[split:])
        # Each prefix step reads and writes the 4-element tile, twice with
        # a transpose.
        assert sum(moved) == 2 * 4 * state_bytes * (9 + 5)
        # The readout reads the tile and the 2-row observable once.
        assert report.bytes_moved - sum(moved) == 4 * state_bytes + 2 * state_bytes
        statevector = estimate_cost(program, TilePlan.for_circuit_sweep(4, 1, 32, 128))
        # The leading one-qubit steps move their two-amplitude factors, the
        # rest the 32-amplitude register; the product is built once per
        # element.
        region = factor_region(program)
        assert 0 < region < 68
        bpa = report.bytes_per_amplitude
        assert statevector.step_bytes_moved == (
            (2 * 4 * 2 * bpa,) * region + (2 * 4 * 32 * bpa,) * (68 - region)
        )
        assert statevector.product_bytes_moved == 2 * 4 * 32 * bpa


# --------------------------------------------------------------------------- #
# The VER2xx budget corpus — every malformed plan must be rejected
# --------------------------------------------------------------------------- #


class TestVerifyCost:
    """Budgets count full ``2**n`` states, so the corpus runs stepwise programs."""

    def test_tile_over_budget_is_ver201_error(self):
        program, _ = compile_discriminator(4, stepwise=True)
        element = 2**program.num_qubits
        # Hand-built plan whose declared budget covers 4 elements but whose
        # tile holds 64 — the shape for_circuit_sweep would never produce.
        plan = TilePlan(
            rows=8, samples=8, row_tile=8, sample_tile=8, max_amplitudes=element * 4
        )
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER201"]
        assert diagnostics[0].severity is Severity.ERROR

    def test_single_element_over_budget_is_ver202_error(self):
        program, _ = compile_discriminator(4, stepwise=True)
        plan = TilePlan(
            rows=8,
            samples=8,
            row_tile=8,
            sample_tile=8,
            max_amplitudes=2**program.num_qubits - 1,
        )
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER202"]
        assert diagnostics[0].severity is Severity.ERROR

    def test_underutilised_tiling_is_ver203_warning(self):
        program, _ = compile_discriminator(4, stepwise=True)
        element = 2**program.num_qubits
        plan = TilePlan(
            rows=64, samples=8, row_tile=1, sample_tile=8, max_amplitudes=element * 512
        )
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER203"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_grid_plan_fills_the_budget_without_an_exemption(self):
        """Grid plans tile whole rows up to the budget, so VER203 stays quiet.

        The single-row twin of the same grid under the same budget is the
        under-utilised shape VER203 exists to flag.
        """
        program, _ = compile_discriminator(4, stepwise=True)
        element = 2**program.num_qubits
        grid_plan = TilePlan.for_grid_sweep(64, 8, element, element * 256)
        assert (grid_plan.row_tile, grid_plan.num_tiles) == (32, 2)
        assert verify_cost(program, grid_plan) == []
        twin = TilePlan(
            rows=64, samples=8, row_tile=1, sample_tile=8, max_amplitudes=element * 256
        )
        assert codes_of(verify_cost(program, twin)) == ["VER203"]

    def test_density_unrunnable_budget_is_ver205_warning(self):
        program, _ = compile_discriminator(16, stepwise=True)  # 17-qubit MNIST
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(6, 24, element, 2**21)
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER205"]
        assert 4**program.num_qubits > 2**21  # the property VER205 encodes

    def test_derived_plans_verify_clean(self):
        program, _ = compile_discriminator(4, stepwise=True)
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(16, 64, element, element * 64)
        assert verify_cost(program, plan) == []

    def test_undeclared_budget_verifies_vacuously(self):
        program, _ = compile_discriminator(4, stepwise=True)
        plan = TilePlan(rows=1024, samples=1024, row_tile=1024, sample_tile=1024)
        assert verify_cost(program, plan) == []

    def test_every_budget_exceeding_corpus_plan_is_rejected(self):
        """No budget violation slips through, across both engines."""
        program, _ = compile_discriminator(8, stepwise=True)
        element = 2**program.num_qubits
        corpus = [
            TilePlan(rows=4, samples=4, row_tile=4, sample_tile=4,
                     max_amplitudes=element),       # 16 elements, budget for 1
            TilePlan(rows=2, samples=2, row_tile=2, sample_tile=2,
                     max_amplitudes=element // 2),  # element itself too big
            TilePlan(rows=32, samples=32, row_tile=32, sample_tile=32,
                     max_amplitudes=element * 100),  # 1024 elements vs 100
        ]
        for plan in corpus:
            for engine in ("statevector", "density"):
                diagnostics = verify_cost(program, plan, engine=engine)
                assert any(
                    d.severity is Severity.ERROR and d.code in ("VER201", "VER202")
                    for d in diagnostics
                ), (plan, engine)

    def test_an_overlap_tile_under_uses_a_full_state_budget_ver203(self):
        """A plan cut in full states under-uses an overlap tile.

        An overlap tile of the 17-qubit MNIST discriminator holds two
        8-qubit registers per element, far under a budget cut in 2**17
        states, and VER203 reports it.  The SWAP-test estimator budgets in
        registers, so its own plan for this sweep is one tile
        (``test_the_17_qubit_mnist_sweep_is_one_tile_without_ver203``).
        """
        program, _ = compile_discriminator(16)
        plan = TilePlan.for_circuit_sweep(2, 16, 2**program.num_qubits, 2**21)
        assert plan.num_tiles == 2
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER203", "VER205"]
        assert "each uses only 8448 of 2097152 budgeted amplitudes" in (
            diagnostics[0].message
        )

    def test_catalogue_codes(self):
        assert sorted(COST_CODES) == ["VER201", "VER202", "VER203", "VER205"]


# --------------------------------------------------------------------------- #
# Reference suite + tracemalloc calibration
# --------------------------------------------------------------------------- #


class TestReferenceSuite:
    def test_reference_reports_cover_both_engines(self):
        reports = reference_cost_reports()
        assert len(reports) == 8  # 4 workloads x 2 engines
        assert {r.engine for r in reports} == {"statevector", "density"}
        assert all(r.max_amplitudes is not None for r in reports)

    def test_reference_plans_verify_clean(self):
        assert verify_reference_costs() == []

    def test_verification_checks_exactly_the_reported_pairs(self, monkeypatch):
        import repro.analysis.cost as cost

        def recorder(real, calls):
            def record(program, plan, **kwargs):
                calls.append((program, plan, kwargs["engine"]))
                return real(program, plan, **kwargs)

            return record

        reported, verified = [], []
        with monkeypatch.context() as patch:
            patch.setattr(cost, "estimate_cost", recorder(cost.estimate_cost, reported))
            reference_cost_reports()
        monkeypatch.setattr(cost, "verify_cost", recorder(cost.verify_cost, verified))
        verify_reference_costs()
        assert len(verified) == len(reported) == 8
        for (p1, plan1, e1), (p2, plan2, e2) in zip(reported, verified):
            assert p1 is p2 and plan1 is plan2 and e1 == e2

    def test_verification_does_not_recompile(self, monkeypatch):
        reference_cost_reports()

        def refuse(*args, **kwargs):
            raise AssertionError("verify_reference_costs recompiled a program")

        monkeypatch.setattr(SweepProgram, "compile", refuse)
        assert verify_reference_costs() == []


class TestTracemallocCalibration:
    """Predicted peak bytes within 1.5x of a measured tiled execution."""

    def measure(self, num_features, rows, samples, budget_amplitudes, stepwise):
        program, row = compile_discriminator(num_features, stepwise=stepwise)
        plan = TilePlan.for_circuit_sweep(
            rows, samples, 2**program.num_qubits, budget_amplitudes
        )
        report = estimate_cost(program, plan)
        engine = StatevectorEngine()
        tracemalloc.start()
        bindings = np.tile(np.asarray(row, dtype=float), (rows * samples, 1))
        program.execute(bindings, engine, tile_plan=plan)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return report, peak

    @pytest.mark.parametrize("stepwise", [True, False], ids=["stepwise", "overlap"])
    @pytest.mark.parametrize(
        "num_features,rows,samples,budget",
        [
            # Iris-4 discriminator: single-tile and tiled executions.
            (4, 64, 2048, 2**22),
            (4, 64, 2048, 2**19),
            # MNIST-8 discriminator: single-tile and tiled executions.
            (8, 16, 512, 2**22),
            (8, 16, 512, 2**20),
        ],
    )
    def test_predicted_peak_within_factor_of_tracemalloc(
        self, num_features, rows, samples, budget, stepwise
    ):
        report, measured = self.measure(num_features, rows, samples, budget, stepwise)
        assert measured > 0
        ratio = report.peak_bytes / measured
        assert 1 / ACCURACY_FACTOR <= ratio <= ACCURACY_FACTOR, (
            f"predicted {report.peak_bytes} vs measured {measured} "
            f"(ratio {ratio:.2f})"
        )


class TestDtypeAwareCost:
    """Peak-bytes predictions track the repro.arrays precision knob."""

    def _report(self):
        program, _ = compile_discriminator(4, stepwise=True)
        plan = TilePlan.for_circuit_sweep(4, 8, 2**program.num_qubits, 2**20)
        return estimate_cost(program, plan)

    def test_double_mode_is_16_bytes_per_amplitude(self):
        from repro import arrays

        report = self._report()
        assert report.bytes_per_amplitude == 16
        assert report.bytes_per_amplitude == arrays.complex_itemsize()

    def test_single_mode_halves_the_amplitude_term(self):
        from repro import arrays

        double = self._report()
        with arrays.precision("single"):
            single = self._report()
        assert single.bytes_per_amplitude == 8
        assert single.peak_amplitudes == double.peak_amplitudes
        # Only amplitude bytes follow the knob — the float64 bindings and
        # read-out buffers (the sampling boundary) are knob-independent,
        # so the delta is exactly the halved amplitude term.
        amplitude_term = EINSUM_LIVE_ARRAYS * double.peak_amplitudes * 16
        assert double.peak_bytes - single.peak_bytes == amplitude_term // 2
        assert single.peak_bytes < double.peak_bytes

    def test_bytes_per_amplitude_serialized(self):
        payload = self._report().to_dict()
        assert payload["bytes_per_amplitude"] == 16
