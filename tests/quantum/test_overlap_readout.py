"""Overlap readout of SWAP-test programs on the statevector engine.

A SWAP test's ancilla reads ``P(0) = (1 + |<A|B>|**2) / 2``, so the
statevector engine evolves the two registers A and B as sub-programs and
reads the overlap instead of building the ``2**(2k+1)`` state.  The rule
is a check on the program alone (:func:`swap_test_registers`).  These tests
pin that:

* on random SWAP tests — register widths 1 to 4, one- and two-qubit gates
  inside each register, shared, row-constant and per-element operands, a
  shuffled pairing emitted in shuffled order, random tile budgets and both
  precisions — the overlap readout is within ``state_atol`` of the
  stepwise marginal, every tiling equals the untiled pass bit for bit,
  ``run`` equals the one-element grid bit for bit, and sampled counts are
  seed-identical between the grid and a loop of ``run``;
* every program that is not exactly such a SWAP test reads out stepwise,
  and the plan's reason names the first condition that failed;
* registers left in ``|0...0>`` read ``P(1) = 0`` exactly on both routes
  (``run`` drops the ``"1"`` key), and equal registers whose overlap rounds
  just below 1 still sample seed-identically on the grid and in a loop of
  ``run``;
* ``run`` of a SWAP test evolves only the registers, and the whole program
  only when its ``statevector`` is first read;
* VER408 passes the engine's readout and fails a wrong pairing order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.analysis.equiv import verify_overlap_readout
from repro.quantum import program as program_module
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    prefix_partition,
    swap_test_registers,
)
from repro.quantum.simulator import StatevectorSimulator

SHOTS = 64


def outcomes(row):
    """A one-clbit read-out row keyed like ``run``'s dictionaries."""
    return {key: value for key, value in zip("01", row) if value > 0}

#: Gates drawn inside a register: name -> (width, parametric).
REGISTER_GATES = {
    "ry": (1, True),
    "rx": (1, True),
    "rz": (1, True),
    "h": (1, False),
    "x": (1, False),
    "cry": (2, True),
    "crz": (2, True),
    "rzz": (2, True),
    "cx": (2, False),
    "cz": (2, False),
}


@st.composite
def swap_tests(draw):
    """A symbolic SWAP test, its bindings, grid shape, tile budget and precision."""
    width = draw(st.integers(1, 4))
    qubits = draw(st.permutations(range(2 * width + 1)))
    ancilla, a, b = qubits[0], qubits[1 : width + 1], qubits[width + 1 :]
    partner = draw(st.permutations(range(width)))
    order = draw(st.permutations(range(width)))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        register = draw(st.sampled_from([a, b]))
        names = [n for n, (w, _) in REGISTER_GATES.items() if w <= width]
        name = draw(st.sampled_from(names))
        on = draw(st.permutations(register))[: REGISTER_GATES[name][0]]
        gates.append((name, tuple(on)))
    hadamard_at = draw(st.integers(0, len(gates)))
    kinds = [draw(st.sampled_from(["shared", "rows", "element"])) for _ in gates]
    rows, samples = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return {
        "ancilla": ancilla,
        "pairs": [(a[i], b[partner[i]]) for i in order],
        "gates": gates,
        "hadamard_at": hadamard_at,
        "kinds": kinds,
        "rows": rows,
        "samples": samples,
        "tile_elements": draw(st.integers(1, rows * samples)),
        "precision": draw(st.sampled_from(["double", "single"])),
        "seed": draw(st.integers(0, 2**16)),
    }


def build(case):
    """``(circuit, parameters, bindings)`` of one drawn SWAP test."""
    ancilla, gates = case["ancilla"], case["gates"]
    num_qubits = 2 * len(case["pairs"]) + 1
    circuit = QuantumCircuit(num_qubits, 1, name="swap_test")
    parameters = []
    rng = np.random.default_rng(case["seed"])
    rows, samples = case["rows"], case["samples"]
    columns = []
    for index, (name, on) in enumerate(gates):
        if index == case["hadamard_at"]:
            circuit.h(ancilla)
        width, parametric = REGISTER_GATES[name]
        if not parametric:
            getattr(circuit, name)(*on)
            continue
        param = Parameter(f"p{index}")
        parameters.append(param)
        getattr(circuit, name)(param, *on)
        kind = case["kinds"][index]
        if kind == "shared":
            columns.append(np.full(rows * samples, rng.uniform(0, 2 * np.pi)))
        elif kind == "rows":
            columns.append(np.repeat(rng.uniform(0, 2 * np.pi, size=rows), samples))
        else:
            columns.append(rng.uniform(0, 2 * np.pi, size=rows * samples))
    if case["hadamard_at"] == len(gates):
        circuit.h(ancilla)
    for left, right in case["pairs"]:
        circuit.cswap(ancilla, left, right)
    circuit.h(ancilla).measure(ancilla, 0)
    bindings = (
        np.stack(columns, axis=1) if columns else np.zeros((rows * samples, 0))
    )
    return circuit, parameters, bindings


def bound(circuit, parameters, row):
    return circuit.bind_parameters(dict(zip(parameters, (float(v) for v in row))))


class TestDifferential:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=swap_tests())
    def test_overlap_readout_matches_stepwise_and_every_route(self, case):
        circuit, parameters, bindings = build(case)
        rows, samples = case["rows"], case["samples"]
        with arrays.precision(case["precision"]):
            program = SweepProgram.compile(
                circuit, bind_floats=False, parameters=parameters
            )
            engine = StatevectorEngine()
            readout = engine.readout_plan(program)
            assert readout.mode == "overlap", readout.reason
            untiled = program.execute(bindings, engine)
            stepwise = program.evolve(bindings, engine).probabilities(
                program.measured_qubits
            )
            np.testing.assert_allclose(
                untiled, stepwise, rtol=0, atol=arrays.state_atol()
            )

            element = 2**program.num_qubits
            plan = TilePlan.for_circuit_sweep(
                rows, samples, element, case["tile_elements"] * element
            )
            tiled = program.execute(bindings, engine, tile_plan=plan)
            np.testing.assert_array_equal(tiled, untiled)

            grid = StatevectorSimulator(seed=case["seed"]).run_sweep_program(
                program, bindings, shots=SHOTS, tile_plan=plan
            )
            loop = StatevectorSimulator(seed=case["seed"])
            simulator = StatevectorSimulator()
            for element_index, row in enumerate(bindings):
                per_circuit = bound(circuit, parameters, row)
                result = loop.run(per_circuit, shots=SHOTS)
                assert result.counts.data == outcomes(grid.counts[element_index])
                # ``run`` reads out exactly like its program's one-element grid.
                exact = simulator.run(per_circuit)
                run_program = simulator._run_program(per_circuit)
                run_row = [
                    float(per_circuit.instructions[at].params[slot])
                    for at, slot in run_program.column_sites
                ]
                one = simulator.run_sweep_program(run_program, np.array([run_row]))
                assert exact.probabilities == outcomes(one.probabilities[0])


# --------------------------------------------------------------------------- #
# Refusals: anything but the exact SWAP-test shape reads out stepwise
# --------------------------------------------------------------------------- #


def refusal_circuit(case):
    """A 2 + 2 qubit SWAP test, broken the way ``case`` names."""
    theta = Parameter("theta")
    width = 6 if case == "idle extra qubit" else 5
    circuit = QuantumCircuit(width, 2 if case == "measured register qubit" else 1)
    circuit.h(0)
    if case == "parametric gate on the ancilla":
        circuit.ry(theta, 0)
    circuit.ry(theta, 1).cx(1, 2).rz(theta, 4)
    if case == "step across registers":
        circuit.cx(2, 3)
    circuit.cswap(0, 2, 4)
    if case != "missing cswap":
        circuit.cswap(0, 1, 3)
    if case == "pairs not a bijection":
        circuit.cswap(0, 1, 4)
    circuit.h(0)
    if case == "gate after the final h":
        circuit.rz(theta, 1)
    circuit.measure(0, 0)
    if case == "measured register qubit":
        circuit.measure(1, 1)
    return circuit


REFUSALS = {
    "step across registers": (
        "stepwise: prefix steps join qubits [1, 2, 3] across the cswap registers"
    ),
    "missing cswap": (
        "stepwise: qubit(s) [1, 3] lie outside the ancilla and the cswap pairs"
    ),
    "gate after the final h": (
        "stepwise: the program does not end with a fixed h on the measured qubit 0"
    ),
    "measured register qubit": (
        "stepwise: the program measures 2 qubit(s), not one ancilla"
    ),
    "parametric gate on the ancilla": (
        "stepwise: before the tail the ancilla 0 is touched by ['h', 'ry'], "
        "not by one fixed h"
    ),
    "idle extra qubit": (
        "stepwise: qubit(s) [5] lie outside the ancilla and the cswap pairs"
    ),
    "pairs not a bijection": (
        "stepwise: the tail's cswap pairs [(2, 4), (1, 3), (1, 4)] are not a "
        "bijection between two registers"
    ),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_reason_names_the_first_failed_condition(self, case):
        program = SweepProgram.compile(refusal_circuit(case), bind_floats=False)
        assert swap_test_registers(program) == (None, REFUSALS[case])
        readout = StatevectorEngine().readout_plan(program)
        assert (readout.mode, readout.reason) == ("stepwise", REFUSALS[case])
        assert readout.split == len(program.steps)

    def test_the_unbroken_program_reads_out_as_an_overlap(self):
        program = SweepProgram.compile(refusal_circuit("none"), bind_floats=False)
        readout = StatevectorEngine().readout_plan(program)
        # B's local order follows the pairing, whatever the pair order.
        assert swap_test_registers(program) == (
            ((1, 2), (3, 4)),
            "overlap: registers A [1, 2] and B [3, 4] read P(ancilla 0 = 0) from <A|B>",
        )
        assert readout.mode == "overlap" and readout.reason.startswith("overlap: ")
        first, second = readout.registers
        assert (first.qubits, second.qubits) == ((1, 2), (3, 4))
        # Register steps keep their parent's slots and move onto local qubits.
        assert [program.steps[i].name for i in first.steps] == ["ry", "cx"]
        assert [step.qubits for step in first.program.steps] == [(0,), (0, 1)]
        assert [step.slots for step in second.program.steps] == [
            program.steps[i].slots for i in second.steps
        ]

    def test_the_readout_plan_is_built_once_per_program(self):
        program = SweepProgram.compile(refusal_circuit("none"), bind_floats=False)
        engine = StatevectorEngine()
        assert StatevectorEngine().readout_plan(program) is engine.readout_plan(program)

    def test_a_grid_sweep_plans_only_the_registers(self):
        program = SweepProgram.compile(refusal_circuit("none"), bind_floats=False)
        program.execute(np.full((3, 1), 0.4), StatevectorEngine())
        assert program not in program_module._KERNEL_PLANS
        registers = StatevectorEngine().readout_plan(program).registers
        assert all(r.program in program_module._KERNEL_PLANS for r in registers)


class TestPrefixPartition:
    def test_blocks_are_the_components_before_stop(self):
        program = SweepProgram.compile(refusal_circuit("step across registers"), bind_floats=False)
        tail = len(program.steps) - 3
        assert prefix_partition(program, tail) == ((0,), (1, 2, 3), (4,))
        assert prefix_partition(program, 0) == ((0,), (1,), (2,), (3,), (4,))
        assert prefix_partition(program) == ((0, 1, 2, 3, 4),)


# --------------------------------------------------------------------------- #
# Exact overlaps and the sampling boundary
# --------------------------------------------------------------------------- #


def idle_registers():
    circuit = QuantumCircuit(5, 1)
    circuit.h(0).cswap(0, 1, 3).cswap(0, 2, 4).h(0).measure(0, 0)
    return circuit


def equal_rotated_registers():
    """Registers A and B prepared by the same rotations: overlap near 1."""
    p, q = Parameter("p"), Parameter("q")
    circuit = QuantumCircuit(5, 1)
    circuit.h(0)
    for first, second in ((1, 2), (3, 4)):
        circuit.ry(p, first).rx(q, second).cx(first, second)
    circuit.cswap(0, 1, 3).cswap(0, 2, 4).h(0).measure(0, 0)
    return circuit, [p, q]


class TestExactOverlaps:
    def test_idle_registers_read_p1_exactly_zero_on_both_routes(self):
        circuit = idle_registers()
        program = SweepProgram.compile(circuit, bind_floats=False)
        joint = program.execute(np.zeros((3, 0)), StatevectorEngine())
        np.testing.assert_array_equal(joint, [[1.0, 0.0]] * 3)
        simulator = StatevectorSimulator(seed=3)
        grid = simulator.run_sweep_program(program, np.zeros((3, 0)), shots=SHOTS)
        assert grid.probabilities.tolist() == [[1.0, 0.0]] * 3
        assert grid.counts.tolist() == [[SHOTS, 0]] * 3
        result = StatevectorSimulator(seed=3).run(circuit, shots=SHOTS)
        assert result.probabilities == {"0": 1.0}
        assert result.counts.data == {"0": SHOTS}

    def test_equal_rotated_registers_sample_seed_identically(self):
        circuit, parameters = equal_rotated_registers()
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        bindings = np.random.default_rng(0).uniform(0, np.pi, size=(40, 2))
        grid = StatevectorSimulator(seed=11).run_sweep_program(
            program, bindings, shots=SHOTS
        )
        # Some overlaps round to exactly 1 and read P(1) = 0, others land
        # just below it.
        exact_zero = grid.probabilities[:, 1] == 0.0
        assert exact_zero.any() and not exact_zero.all()
        loop = StatevectorSimulator(seed=11)
        for row, counts in zip(bindings, grid.counts):
            result = loop.run(bound(circuit, parameters, row), shots=SHOTS)
            assert result.counts.data == outcomes(counts)
        # Either way the stepwise state says the registers are equal.
        stepwise = program.evolve(bindings, StatevectorEngine()).probabilities((0,))
        np.testing.assert_allclose(stepwise[:, 1], 0.0, atol=1e-12)


class TestRunState:
    def test_run_evolves_the_whole_program_only_when_its_state_is_read(
        self, monkeypatch
    ):
        circuit, parameters = equal_rotated_registers()
        circuit = bound(circuit, parameters, [0.3, 1.1])
        widths = []
        apply_step = StatevectorEngine.apply_step

        def traced(self, state, step, plan, matrix):
            widths.append(state.num_qubits)
            return apply_step(self, state, step, plan, matrix)

        monkeypatch.setattr(StatevectorEngine, "apply_step", traced)
        simulator = StatevectorSimulator(seed=2)
        result = simulator.run(circuit, shots=SHOTS)
        # Only the 2-qubit registers ran: three steps each, the two
        # rotations on their one-qubit factors and the cx on the register.
        assert widths == [1, 1, 2] * 2
        state = result.statevector
        assert result.statevector is state
        program = simulator._run_program(circuit)
        region = program_module.factor_region(program)
        assert region == 3
        assert widths[6:] == [1] * region + [5] * (len(program.steps) - region)
        row = [
            float(circuit.instructions[at].params[slot])
            for at, slot in program.column_sites
        ]
        expected = program.evolve(np.array([row]), StatevectorEngine()).statevector(0)
        np.testing.assert_array_equal(state.data, expected.data)


# --------------------------------------------------------------------------- #
# VER408
# --------------------------------------------------------------------------- #


def shuffled_swap_test():
    """A SWAP test whose pairs are emitted out of order and cross-matched."""
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    circuit = QuantumCircuit(7, 1)
    circuit.h(0)
    circuit.ry(a, 1).rx(b, 2).cry(c, 2, 3)
    circuit.ry(b, 4).rz(c, 5).rx(a, 6).cx(4, 6)
    circuit.cswap(0, 3, 5).cswap(0, 1, 6).cswap(0, 2, 4).h(0).measure(0, 0)
    return circuit, [a, b, c]


class TestVer408:
    def test_the_engine_readout_passes(self):
        circuit, parameters = shuffled_swap_test()
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        bindings = np.random.default_rng(4).uniform(0, np.pi, size=(5, 3))
        assert verify_overlap_readout(program, bindings) == []

    def test_a_wrong_pairing_order_fails(self, monkeypatch):
        real = program_module.swap_test_registers

        def sorted_partners(program):
            registers, reason = real(program)
            if registers is None:
                return registers, reason
            return (registers[0], tuple(sorted(registers[1]))), reason

        monkeypatch.setattr(program_module, "swap_test_registers", sorted_partners)
        circuit, parameters = shuffled_swap_test()
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        bindings = np.random.default_rng(4).uniform(0, np.pi, size=(5, 3))
        diagnostics = verify_overlap_readout(program, bindings)
        assert [d.code for d in diagnostics] == ["VER408"]
        assert "differs from the stepwise marginal" in diagnostics[0].message

    def test_a_stepwise_program_is_a_finding(self):
        program = SweepProgram.compile(
            refusal_circuit("missing cswap"), bind_floats=False
        )
        diagnostics = verify_overlap_readout(program, np.full((2, 1), 0.3))
        assert [d.code for d in diagnostics] == ["VER408"]
        assert REFUSALS["missing cswap"] in diagnostics[0].message
