"""The statevector engine's factor prefix.

Until a step acts on two or more qubits, every qubit evolves alone: the
statevector engine runs a program's leading one-qubit steps
(:func:`factor_region`) on per-qubit ``(batch, 2)`` factors and builds the
``2**n`` register once, as their Kronecker product.  These tests pin that:

* on random programs — a run of one-qubit steps with shared, row-constant,
  per-element and fixed operands, then multi-qubit and one-qubit steps;
  empty regions, all-factor programs, both precisions and random tile
  budgets — every element's state is within ``1e-12`` of
  :meth:`Statevector.evolve` (``sweep_atol`` in single precision), every
  tiling and the row-shared grid equal the untiled per-element pass bit for
  bit, and sampled grid counts are seed-identical to a loop of ``run``;
* factor steps are planned, certified and dispatched on one qubit, the
  density engine reports an empty region, and the region is a rule on the
  program alone, computed once per program;
* VER409 passes the engine's Kronecker state and fails a reversed product.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.analysis.equiv import verify_factor_prefix
from repro.quantum import program as program_module
from repro.quantum.batched import BatchedStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    factor_region,
)
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.statevector import Statevector

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

    def test_the_density_engine_reports_an_empty_region(self):
        circuit, theta = sde_like()
        assert DensitySuperoperatorEngine().factor_region(program_of(circuit, theta)) == 0

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
