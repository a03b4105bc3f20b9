"""The factor prefix of the statevector and density engines.

Until a step acts on two or more qubits, every qubit evolves alone: the
statevector engine runs a program's leading one-qubit steps
(:func:`factor_region`) on per-qubit ``(batch, 2)`` factors and builds the
``2**n`` register once, as their Kronecker product; the density engine
does the same up to its readout split (:func:`density_factor_region`) on
``(batch, 4)`` density factors and builds the ``4**n`` stack in
:func:`product_layout`.  These tests pin, on the statevector engine:

* on random programs — a run of one-qubit steps with shared, row-constant,
  per-element and fixed operands, then multi-qubit and one-qubit steps;
  empty regions, all-factor programs, both precisions and random tile
  budgets — every element's state is within ``1e-12`` of
  :meth:`Statevector.evolve` (``sweep_atol`` in single precision), every
  tiling and the row-shared grid equal the untiled per-element pass bit for
  bit, and sampled grid counts are seed-identical to a loop of ``run``;
* factor steps are planned, certified and dispatched on one qubit, and
  the region is a rule on the program alone, computed once per program;
* VER409 passes the engine's Kronecker state and fails a reversed product.

And on the density engine:

* on random programs under the London calibration and a depolarizing plus
  amplitude-damping model — regions below the split, at the split, cut by
  it and empty — every element's state and readout is within ``1e-12`` of
  a per-state :class:`DensityMatrix` walk of gates and Kraus channels, and
  so is ``run``'s final state past the split; every tiling equals the
  untiled pass bit for bit, and grid counts are seed-identical to a loop
  of ``run``;
* region steps are planned on one qubit and dispatched on their factors,
  fixed steps fold only with steps on the same factor, a noise model
  mutated inside the region still fails closed, and the product refuses
  factors of different batches;
* VER409 passes the engine's Kronecker stack and fails a reversed or a
  canonical-layout product.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.analysis.equiv import verify_factor_prefix
from repro.exceptions import SimulationError
from repro.hardware.calibration import get_calibration
from repro.quantum import program as program_module
from repro.quantum.batched import BatchedStatevector
from repro.quantum.batched_density import (
    BatchedDensityMatrix,
    canonical_layout,
    plan_layout,
    product_layout,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping_kraus,
    apply_readout_error,
    depolarizing_kraus,
)
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    density_factor_region,
    density_readout_split,
    density_schedule,
    factor_region,
)
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.statevector import Statevector, marginal_probabilities

SHOTS = 64

#: One-qubit gates: name -> parametric.
ONE_QUBIT = {"ry": True, "rx": True, "rz": True, "h": False, "x": False, "s": False}
#: Multi-qubit gates: name -> (width, parametric).
MULTI_QUBIT = {
    "cry": (2, True),
    "crz": (2, True),
    "rzz": (2, True),
    "cx": (2, False),
    "cz": (2, False),
    "cswap": (3, False),
}
#: How a parametric gate binds its angle across the grid.
KINDS = ("shared", "rows", "element", "fixed")


@st.composite
def factor_programs(draw):
    """A program: one-qubit steps, then multi-qubit steps mixed with more."""
    num_qubits = draw(st.integers(1, 4))
    qubit = st.integers(0, num_qubits - 1)
    gates = [
        (draw(st.sampled_from(sorted(ONE_QUBIT))), (draw(qubit),))
        for _ in range(draw(st.integers(0, 6)))
    ]
    wide = [name for name, (width, _) in MULTI_QUBIT.items() if width <= num_qubits]
    if wide and draw(st.booleans()):
        for position in range(draw(st.integers(1, 5))):
            if position and draw(st.booleans()):
                gates.append((draw(st.sampled_from(sorted(ONE_QUBIT))), (draw(qubit),)))
                continue
            name = draw(st.sampled_from(wide))
            on = draw(st.permutations(range(num_qubits)))[: MULTI_QUBIT[name][0]]
            gates.append((name, tuple(on)))
    rows, samples = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    measured = draw(st.permutations(range(num_qubits)))
    return {
        "num_qubits": num_qubits,
        "gates": gates,
        "kinds": [draw(st.sampled_from(KINDS)) for _ in gates],
        "measured": measured[: draw(st.integers(1, num_qubits))],
        "rows": rows,
        "samples": samples,
        "tile_elements": draw(st.integers(1, rows * samples)),
        "precision": draw(st.sampled_from(["double", "single"])),
        "seed": draw(st.integers(0, 2**16)),
    }


def parametric(name):
    return ONE_QUBIT[name] if name in ONE_QUBIT else MULTI_QUBIT[name][1]


def build(case):
    """``(circuit, parameters, bindings)`` of one drawn program."""
    measured = case["measured"]
    circuit = QuantumCircuit(case["num_qubits"], len(measured), name="factors")
    rng = np.random.default_rng(case["seed"])
    rows, samples = case["rows"], case["samples"]
    parameters, columns = [], []
    for index, (name, on) in enumerate(case["gates"]):
        if not parametric(name):
            getattr(circuit, name)(*on)
            continue
        kind = case["kinds"][index]
        if kind == "fixed":
            getattr(circuit, name)(float(rng.uniform(0, 2 * np.pi)), *on)
            continue
        param = Parameter(f"p{index}")
        parameters.append(param)
        getattr(circuit, name)(param, *on)
        if kind == "shared":
            columns.append(np.full(rows * samples, rng.uniform(0, 2 * np.pi)))
        elif kind == "rows":
            columns.append(np.repeat(rng.uniform(0, 2 * np.pi, size=rows), samples))
        else:
            columns.append(rng.uniform(0, 2 * np.pi, size=rows * samples))
    for clbit, qubit in enumerate(measured):
        circuit.measure(qubit, clbit)
    bindings = np.stack(columns, axis=1) if columns else np.zeros((rows * samples, 0))
    return circuit, parameters, bindings


def bound(circuit, parameters, row):
    return circuit.bind_parameters(dict(zip(parameters, (float(v) for v in row))))


def reference_state(circuit, parameters, row):
    """The bound circuit's unitary part through :meth:`Statevector.evolve`."""
    unitary = QuantumCircuit(circuit.num_qubits)
    for instruction in bound(circuit, parameters, row).instructions:
        if not instruction.is_measurement:
            unitary.append(instruction)
    return Statevector.from_label("0" * circuit.num_qubits).evolve(unitary).data


def outcomes(row):
    """A read-out row keyed like ``run``'s dictionaries."""
    width = int(np.log2(len(row)))
    return {format(j, f"0{width}b"): int(v) for j, v in enumerate(row) if v > 0}


class TestDifferential:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=factor_programs())
    def test_factor_route_matches_statevector_and_every_route(self, case):
        circuit, parameters, bindings = build(case)
        rows, samples = case["rows"], case["samples"]
        expected = np.stack([reference_state(circuit, parameters, row) for row in bindings])
        with arrays.precision(case["precision"]):
            program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
            engine = StatevectorEngine()
            states = program.evolve(bindings, engine).amplitudes
            atol = max(1e-12, arrays.sweep_atol())
            np.testing.assert_allclose(states, expected, rtol=0, atol=atol)

            # Untiled, the prefix is per element; under a plan it is shared
            # per grid row, in one tile or in drawn ones.
            untiled = program.execute(bindings, engine)
            np.testing.assert_array_equal(
                untiled, program.evolve(bindings, engine).probabilities(case["measured"])
            )
            element = 2**program.num_qubits
            for tile_elements in (rows * samples, case["tile_elements"]):
                plan = TilePlan.for_circuit_sweep(
                    rows, samples, element, tile_elements * element
                )
                tiled = program.execute(bindings, engine, tile_plan=plan)
                np.testing.assert_array_equal(tiled, untiled)

            grid = StatevectorSimulator(seed=case["seed"]).run_sweep_program(
                program, bindings, shots=SHOTS, tile_plan=plan
            )
            loop = StatevectorSimulator(seed=case["seed"])
            for element_index, row in enumerate(bindings):
                result = loop.run(bound(circuit, parameters, row), shots=SHOTS)
                assert result.counts.data == outcomes(grid.counts[element_index])


def program_of(circuit, parameters=None):
    return SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)


def sde_like():
    """Rotations on three qubits, then a cry chain and a last rotation."""
    theta = [Parameter(f"t{i}") for i in range(7)]
    circuit = QuantumCircuit(3)
    for qubit in range(3):
        circuit.ry(theta[2 * qubit], qubit).rz(theta[2 * qubit + 1], qubit)
    circuit.cry(theta[6], 0, 1).cry(theta[6], 1, 2).ry(theta[0], 1)
    return circuit, theta


class TestEdgeCases:
    def test_an_empty_region_starts_from_the_initial_state(self, monkeypatch):
        theta = Parameter("theta")
        circuit = QuantumCircuit(3).cx(0, 1)
        circuit.ry(theta, 2).h(0)
        program = program_of(circuit)
        assert factor_region(program) == 0

        def no_product(cls, factors):
            raise AssertionError("an empty region builds no product")

        monkeypatch.setattr(BatchedStatevector, "from_product", classmethod(no_product))
        bindings = np.array([[0.3], [1.2]])
        states = program.evolve(bindings, StatevectorEngine()).amplitudes
        for state, row in zip(states, bindings):
            np.testing.assert_allclose(
                state, reference_state(circuit, [theta], row), rtol=0, atol=1e-12
            )

    def test_an_all_factor_program_is_the_product_of_its_qubits(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        circuit = QuantumCircuit(3)
        circuit.ry(theta, 0).h(2).rz(phi, 0).rx(phi, 2)
        program = program_of(circuit, [theta, phi])
        assert factor_region(program) == len(program.steps)
        bindings = np.array([[0.3, 1.1], [2.0, -0.4]])
        states = program.evolve(bindings, StatevectorEngine()).amplitudes
        for state, row in zip(states, bindings):
            np.testing.assert_allclose(
                state, reference_state(circuit, [theta, phi], row), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("precision", arrays.PRECISIONS)
    def test_row_shared_grid_tiles_equal_the_per_element_pass(self, precision):
        circuit, theta = sde_like()
        circuit = QuantumCircuit(3, 2).compose(circuit).measure(1, 0).measure(2, 1)
        rng = np.random.default_rng(4)
        rows, samples = 3, 4
        # Every angle is constant within a grid row except the last one's.
        bindings = np.repeat(rng.uniform(0, np.pi, size=(rows, 7)), samples, axis=0)
        bindings[:, 5] = rng.uniform(0, np.pi, size=rows * samples)
        with arrays.precision(precision):
            program = program_of(circuit, theta)
            engine = StatevectorEngine()
            untiled = program.execute(bindings, engine)
            for budget in (12, 5, 2, 1):
                plan = TilePlan.for_circuit_sweep(rows, samples, 8, budget * 8)
                np.testing.assert_array_equal(
                    program.execute(bindings, engine, tile_plan=plan), untiled
                )


class TestPlansAndDispatch:
    def test_factor_steps_are_planned_and_dispatched_on_one_qubit(self):
        circuit, theta = sde_like()
        program = program_of(circuit, theta)
        region = factor_region(program)
        assert region == 6
        engine = StatevectorEngine()
        plans = engine.step_plans(program)
        # ry on its factor is the left matmul; the same ry after the
        # entangling steps is an interior axpy on the register.
        assert [p.update.variant for p in plans[:region:2]] == ["matmul-left"] * 3
        assert plans[-1].update.variant == "axpy"
        widths = []
        apply_step = engine.apply_step

        def traced(state, step, plan, matrix):
            widths.append((step.qubits, state.num_qubits, state.batch_size))
            return apply_step(state, step, plan, matrix)

        engine.apply_step = traced
        program.evolve(np.zeros((5, 7)), engine)
        assert widths == [
            (step.qubits, 1 if index < region else 3, 5)
            for index, step in enumerate(program.steps)
        ]

    def test_the_region_is_computed_once_per_program(self):
        circuit, theta = sde_like()
        program = program_of(circuit, theta)
        assert program not in program_module._FACTOR_REGIONS
        assert StatevectorEngine().factor_region(program) == 6
        assert program_module._FACTOR_REGIONS[program] == 6

    def test_the_density_region_is_the_factor_region_cut_at_the_split(self):
        circuit, theta = sde_like()
        program = program_of(circuit, theta)
        # Nothing measured: stepwise readout, the whole factor region.
        assert DensitySuperoperatorEngine().factor_region(program) == 6
        # The last parametric step is ry(0): the split cuts the region.
        phi = Parameter("phi")
        circuit = QuantumCircuit(2, 1).ry(phi, 0).h(1).x(0).cx(0, 1).measure(1, 0)
        program = program_of(circuit, [phi])
        assert factor_region(program) == 3
        assert density_readout_split(program)[0] == 1
        assert DensitySuperoperatorEngine().factor_region(program) == 1
        assert program_module._DENSITY_FACTOR_REGIONS[program] == 1

    def test_the_product_puts_the_first_factor_most_significant(self):
        zero, one = BatchedStatevector(2, 1), BatchedStatevector(2, 1)
        one.apply_matrix(np.array([[0, 1], [1, 0]]), (0,))
        product = BatchedStatevector.from_product([zero, one, zero])
        assert product.num_qubits == 3
        np.testing.assert_array_equal(product.amplitudes, np.eye(8)[[2, 2]])


class TestVER409:
    def bindings(self):
        return np.random.default_rng(7).uniform(0, np.pi, size=(3, 7))

    def test_the_engine_route_certifies_clean(self):
        circuit, theta = sde_like()
        assert verify_factor_prefix(program_of(circuit, theta), self.bindings()) == []

    def test_a_reversed_kronecker_product_is_ver409(self, monkeypatch):
        circuit, theta = sde_like()
        program = program_of(circuit, theta)
        product = BatchedStatevector.from_product

        def reversed_product(cls, factors):
            return product(factors[::-1])

        monkeypatch.setattr(
            BatchedStatevector, "from_product", classmethod(reversed_product)
        )
        (finding,) = verify_factor_prefix(program, self.bindings())
        assert finding.code == "VER409"
        assert "6-step factor region" in finding.message


# --------------------------------------------------------------------------- #
# The density engine
# --------------------------------------------------------------------------- #


def damping_model():
    """Depolarizing and amplitude damping on every gate, plus readout error."""
    model = NoiseModel()
    model.add_all_qubit_error(depolarizing_kraus(0.03, 1), 1)
    model.add_all_qubit_error(amplitude_damping_kraus(0.06), 1)
    model.add_all_qubit_error(depolarizing_kraus(0.05, 2), 2)
    model.add_all_qubit_error(amplitude_damping_kraus(0.02), 3)
    model.add_readout_error(ReadoutError(0.04, 0.07))
    return model


NOISE = {
    "london": lambda: get_calibration("ibmq_london").noise_model(),
    "damping": damping_model,
}


def reference_density(circuit, parameters, row, model):
    """One bound row through :class:`DensityMatrix`: each gate, then its channels."""
    rho = DensityMatrix(circuit.num_qubits)
    for instruction in bound(circuit, parameters, row).instructions:
        if not instruction.is_gate:
            continue
        rho.apply_matrix(instruction.matrix(), instruction.qubits)
        k = len(instruction.qubits)
        for channel in model.gate_channels(instruction.name, k):
            if np.asarray(channel[0]).shape[0] == 2**k:
                rho.apply_kraus(channel, instruction.qubits)
            else:
                for qubit in instruction.qubits:
                    rho.apply_kraus(channel, (qubit,))
    return rho.data


def reference_readout(matrix, measured, model):
    diagonal = np.real(np.diag(matrix))[None, :]
    joint = marginal_probabilities(diagonal, measured, int(np.log2(len(matrix))))
    return apply_readout_error(joint, measured, model)[0]


@st.composite
def density_programs(draw):
    """A factor-program draw whose region sits below, at or past the split.

    ``tail`` fixes every angle after the one-qubit run (the split falls
    inside or at the end of the region) or keeps them drawn (below it);
    ``empty`` opens the program with a multi-qubit step.
    """
    case = draw(factor_programs())
    case["num_qubits"] = max(case["num_qubits"], 2)
    shape = draw(st.sampled_from(("drawn", "tail", "empty")))
    run = next(
        (i for i, (name, on) in enumerate(case["gates"]) if len(on) > 1), len(case["gates"])
    )
    kinds = list(case["kinds"][: len(case["gates"])])
    kinds += ["fixed"] * (len(case["gates"]) - len(kinds))
    if shape == "tail":
        kinds[run:] = ["fixed"] * (len(kinds) - run)
    elif shape == "empty":
        case["gates"].insert(0, ("cx", (0, 1)))
        kinds.insert(0, "fixed")
    case["kinds"] = kinds
    case["noise"] = draw(st.sampled_from(sorted(NOISE)))
    return case


class TestDensityDifferential:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=density_programs())
    def test_factor_route_matches_the_reference_and_every_route(self, case):
        circuit, parameters, bindings = build(case)
        rows, samples = case["rows"], case["samples"]
        model = NOISE[case["noise"]]()
        measured = case["measured"]
        expected = [reference_density(circuit, parameters, row, model) for row in bindings]
        with arrays.precision(case["precision"]):
            atol = max(1e-12, arrays.sweep_atol())
            program = program_of(circuit, parameters)
            engine = DensitySuperoperatorEngine(model)
            region = engine.factor_region(program)
            split = density_readout_split(program)[0]
            assert region == min(factor_region(program), split)
            np.testing.assert_allclose(
                program.evolve(bindings, engine).matrices,
                np.stack(expected),
                rtol=0,
                atol=atol,
            )
            untiled = program.execute(bindings, engine)
            np.testing.assert_allclose(
                untiled,
                np.stack([reference_readout(m, measured, model) for m in expected]),
                rtol=0,
                atol=atol,
            )
            element = 4**program.num_qubits
            for tile_elements in (rows * samples, case["tile_elements"]):
                plan = TilePlan.for_circuit_sweep(
                    rows, samples, element, tile_elements * element
                )
                np.testing.assert_array_equal(
                    program.execute(bindings, engine, tile_plan=plan), untiled
                )

            grid = DensityMatrixSimulator(model, seed=case["seed"]).run_sweep_program(
                program, bindings, shots=SHOTS, tile_plan=plan
            )
            loop = DensityMatrixSimulator(model, seed=case["seed"])
            for index, row in enumerate(bindings):
                result = loop.run(bound(circuit, parameters, row), shots=SHOTS)
                assert result.counts.data == outcomes(grid.counts[index])
                # ``run``'s final state applies the tail past the split.
                np.testing.assert_allclose(
                    result.density_matrix.data, expected[index], rtol=0, atol=atol
                )


def london_like():
    """h(0) and an ry/rz pair per qubit, then a fixed entangling tail."""
    theta = [Parameter(f"t{i}") for i in range(4)]
    circuit = QuantumCircuit(3, 1).h(0)
    for qubit in (1, 2):
        circuit.ry(theta[2 * qubit - 2], qubit).rz(theta[2 * qubit - 1], qubit)
    circuit.cx(1, 0).cswap(0, 1, 2).h(0).measure(0, 0)
    return circuit, theta


#: Hand-picked regions against the split, each checked against the reference.
REGION_CASES = {
    # The split is the region's end: the London template's shape.
    "at_the_split": (london_like, 5, 5),
    # A parametric step after the entangling cx: the region ends first.
    "below_the_split": (
        lambda: (
            QuantumCircuit(2, 2).ry(Parameter("a"), 0).h(1).cx(0, 1)
            .ry(Parameter("b"), 1).measure(0, 0).measure(1, 1),
            None,
        ),
        2,
        4,
    ),
    # Fixed one-qubit steps after the last parametric one are tail.
    "cut_by_the_split": (
        lambda: (
            QuantumCircuit(2, 1).ry(Parameter("a"), 0).h(1).x(0).cx(0, 1).measure(1, 0),
            None,
        ),
        1,
        1,
    ),
    "empty": (
        lambda: (
            QuantumCircuit(2, 1).cx(0, 1).ry(Parameter("a"), 0).measure(0, 0),
            None,
        ),
        0,
        2,
    ),
}


class TestDensityRegions:
    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("name", sorted(REGION_CASES))
    def test_each_region_shape_matches_the_reference(self, name, noise):
        make, region, split = REGION_CASES[name]
        circuit, parameters = make()
        parameters = parameters or sorted(circuit.parameters, key=lambda p: p.name)
        program = program_of(circuit, parameters)
        model = NOISE[noise]()
        engine = DensitySuperoperatorEngine(model)
        assert (engine.factor_region(program), density_readout_split(program)[0]) == (
            region,
            split,
        )
        bindings = np.random.default_rng(3).uniform(0, np.pi, size=(3, len(parameters)))
        expected = [reference_density(circuit, parameters, row, model) for row in bindings]
        np.testing.assert_allclose(
            program.evolve(bindings, engine).matrices, np.stack(expected), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            program.execute(bindings, engine),
            np.stack(
                [reference_readout(m, program.measured_qubits, model) for m in expected]
            ),
            rtol=0,
            atol=1e-12,
        )
        assert verify_factor_prefix(program, bindings, engine) == []

    def test_region_steps_are_planned_and_dispatched_on_their_factors(self):
        circuit, theta = london_like()
        program = program_of(circuit, theta)
        engine = DensitySuperoperatorEngine(damping_model())
        plans, readout = engine.sweep_plans(program)
        factor = plan_layout(canonical_layout(1), (0,))
        assert all(plan.layout is factor for plan in plans[:5])
        assert all(plan.superop.shape == (4, 4) for plan in plans[:5])
        # The tail is folded from the product layout.
        assert readout.layout == product_layout(3) == (0, 3, 1, 4, 2, 5)
        widths = []
        real = engine.apply_step

        def traced(state, step, plan, matrix):
            widths.append((state.num_qubits, state.batch_size))
            return real(state, step, plan, matrix)

        engine.apply_step = traced
        program.execute(np.zeros((4, 4)), engine)
        assert widths == [(1, 4)] * 5

    def test_fixed_factor_steps_fold_only_on_one_factor(self):
        phi = Parameter("phi")
        circuit = QuantumCircuit(2, 2).h(0).x(0).h(1).s(1).ry(phi, 0).cx(0, 1).x(1)
        circuit.measure(0, 0).measure(1, 1)
        program = program_of(circuit, [phi])
        assert density_factor_region(program) == 5
        _, heads = density_schedule(program)
        # x(0) joins h(0) and s(1) joins h(1); the cx after the region
        # starts its own run, which the tail's x(1) joins.
        assert heads[:5] == (0, 0, 2, 2, 4)
        bindings = np.array([[0.4], [1.9]])
        model = damping_model()
        np.testing.assert_allclose(
            program.evolve(bindings, DensitySuperoperatorEngine(model)).matrices,
            np.stack([reference_density(circuit, [phi], row, model) for row in bindings]),
            rtol=0,
            atol=1e-12,
        )

    def test_a_model_mutated_inside_the_region_fails_closed(self):
        circuit, theta = london_like()
        program = program_of(circuit, theta)
        model = damping_model()
        engine = DensitySuperoperatorEngine(model)
        pinned = model.version
        real = engine.apply_step

        def apply_step(state, step, plan, matrix):
            # The first factor step grows the model.
            if state.num_qubits == 1 and model.version == pinned:
                model.add_all_qubit_error(depolarizing_kraus(0.2, 1), 1)
            real(state, step, plan, matrix)

        engine.apply_step = apply_step
        plan = TilePlan.for_circuit_sweep(4, 1, 4**3, 2 * 4**3)
        with pytest.raises(SimulationError) as excinfo:
            program.execute(np.zeros((4, 4)), engine, tile_plan=plan)
        assert str(excinfo.value) == (
            f"{program.name}: noise_model changed during the sweep (version "
            f"{pinned} when its plans were resolved, {pinned + 1} after tile "
            "[0, 2)); mutate a noise model between sweeps, not during one"
        )

    def test_the_product_refuses_factors_of_different_batches(self):
        with pytest.raises(SimulationError) as excinfo:
            BatchedDensityMatrix.from_product(
                [BatchedDensityMatrix(2, 1), BatchedDensityMatrix(3, 1)]
            )
        assert str(excinfo.value) == (
            "product factors have batches [2, 3], not one common batch"
        )

    def test_the_product_puts_the_first_factor_most_significant(self):
        zero, one = BatchedDensityMatrix(2, 1), BatchedDensityMatrix(2, 1)
        one.apply_matrix(np.array([[0, 1], [1, 0]]), (0,))
        product = BatchedDensityMatrix.from_product([zero, one, zero])
        assert (product.num_qubits, product.layout) == (3, product_layout(3))
        expected = np.zeros((8, 8))
        expected[2, 2] = 1.0
        np.testing.assert_array_equal(product.matrices, [expected, expected])


class TestDensityVER409:
    def program_and_bindings(self):
        circuit, theta = london_like()
        bindings = np.random.default_rng(7).uniform(0, np.pi, size=(3, 4))
        return program_of(circuit, theta), bindings

    def engine(self):
        return DensitySuperoperatorEngine(NOISE["london"]())

    def test_the_engine_route_certifies_clean(self):
        program, bindings = self.program_and_bindings()
        assert verify_factor_prefix(program, bindings, self.engine()) == []

    def test_a_reversed_product_is_ver409(self, monkeypatch):
        program, bindings = self.program_and_bindings()
        product = BatchedDensityMatrix.from_product

        def reversed_product(cls, factors):
            return product(factors[::-1])

        monkeypatch.setattr(
            BatchedDensityMatrix, "from_product", classmethod(reversed_product)
        )
        (finding,) = verify_factor_prefix(program, bindings, self.engine())
        assert finding.code == "VER409"
        assert "5-step factor region differs from the flat stack" in finding.message

    def test_a_canonical_layout_product_is_ver409(self, monkeypatch):
        program, bindings = self.program_and_bindings()
        product = BatchedDensityMatrix.from_product

        def canonical_product(cls, factors):
            state = product(factors)
            state._layout = canonical_layout(state.num_qubits)
            return state

        monkeypatch.setattr(
            BatchedDensityMatrix, "from_product", classmethod(canonical_product)
        )
        (finding,) = verify_factor_prefix(program, bindings, self.engine())
        assert finding.code == "VER409"
        assert "not the product layout (0, 3, 1, 4, 2, 5)" in finding.message
