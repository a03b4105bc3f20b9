"""The layout-tracked density engine against the per-state reference.

:class:`BatchedDensityMatrix` keeps its axes in whatever physical order the
last step left them, and :meth:`DensitySuperoperatorEngine.step_plans`
plans that order once per program (``plan_layout``: no transpose, one
transpose, or a 1-qubit step lifted into a trailing 2-qubit block) and
composes each run of fixed steps on one trailing block into its head's
operator (``density_schedule``).  The reference shares none of that: one
:class:`DensityMatrix` per bindings row applies each gate, then each of
the model's channels as Kraus operators in the full space.  Random programs
cover 1-, 2- and 3-qubit supports in both qubit orders, repeated same-pair
runs, 1-qubit runs on one qubit, 1-qubit steps inside and outside the
trailing block, runs broken by a parametric step or a transpose, fixed and
parametric steps (shared and per element), noise models, batch sizes, both
precisions, and tiles with and without a row-constant prefix.

Every random program is read out twice: stepwise, from the final state's
diagonal, and through the readout plan's measurement observable, which
folds the fixed tail after the last parametric step at plan time.  The
draws include programs with no tail, all-fixed programs (the whole program
is the tail) and two or three measured qubits in non-sorted order, each
with its own readout error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum import gates
from repro.quantum.batched_density import (
    BatchedDensityMatrix,
    canonical_layout,
    conjugation_superoperator,
    plan_layout,
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
from repro.quantum.operations import Parameter, gate
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    ReadoutPlan,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    density_factor_region,
    density_readout_split,
    density_schedule,
)

ATOL = 1e-12

ONE_QUBIT = ("h", "x", "rx", "ry", "rz")
TWO_QUBIT = ("cx", "cz", "swap", "crx", "rzz")


def per_qubit_model() -> NoiseModel:
    """Single-qubit channels after every gate width, plus readout error."""
    model = NoiseModel()
    model.add_gate_error("cx", depolarizing_kraus(0.03, 2))
    model.add_all_qubit_error(amplitude_damping_kraus(0.05), 1)
    model.add_all_qubit_error(depolarizing_kraus(0.04, 1), 2)
    model.add_all_qubit_error(depolarizing_kraus(0.02, 1), 3)
    model.add_readout_error(ReadoutError(0.05, 0.02))
    return model


def readout_per_qubit_model() -> NoiseModel:
    """Gate noise plus a different readout error on every qubit."""
    model = NoiseModel.from_error_rates(0.02, 0.03)
    for qubit in range(4):
        model.add_readout_error(ReadoutError(0.02 + 0.03 * qubit, 0.01 + 0.02 * qubit), qubit)
    return model


NOISE_MODELS = {
    "ideal": NoiseModel.ideal,
    "rates": lambda: NoiseModel.from_error_rates(0.01, 0.02, readout_error=0.03),
    "per_qubit": per_qubit_model,
    "readout_per_qubit": readout_per_qubit_model,
}


# --------------------------------------------------------------------------- #
# Random programs
# --------------------------------------------------------------------------- #


@st.composite
def gate_ops(draw, num_qubits):
    """One drawn op group: ``[(name, qubits, angle mode), ...]``."""
    order = draw(st.permutations(range(num_qubits)))
    mode = st.sampled_from(("fixed", "shared", "per_element"))

    def one(qubit):
        name = draw(st.sampled_from(ONE_QUBIT))
        return (name, (qubit,), draw(mode) if name[0] == "r" else None)

    def two(pair):
        name = draw(st.sampled_from(TWO_QUBIT))
        return (name, tuple(pair), draw(mode) if name in ("crx", "rzz") else None)

    kinds = ["1q", "2q", "pair_run", "pair_then_1q", "1q_run", "pair_both_orders"]
    if num_qubits > 2:
        kinds += ["3q", "run_broken_by_transpose"]
    kind = draw(st.sampled_from(kinds))
    if kind == "1q":
        return [one(order[0])]
    if kind == "2q":
        return [two(order[:2])]
    if kind == "3q":
        return [("cswap", tuple(order[:3]), None)]
    if kind == "1q_run":
        return [one(order[0]) for _ in range(draw(st.integers(2, 4)))]
    a, b = order[:2]
    if kind == "pair_run":
        return [("cx", (a, b), None), ("cx", (b, a), None), ("cx", (a, b), None)]
    if kind == "pair_both_orders":
        return [two((a, b)), two((b, a)), one(draw(st.sampled_from((a, b))))]
    if kind == "run_broken_by_transpose":
        return [two((a, b)), one(order[2]), two((b, a))]
    inside = draw(st.sampled_from(order[:2] if num_qubits == 2 else order[:3]))
    return [two((a, b)), one(inside)]


@st.composite
def sweeps(draw):
    """``(circuit, parameters, bindings, model key)`` of one random sweep.

    ``tail`` shapes where the readout split falls: anywhere (``mixed``), at
    the end (a parametric last step) or at 0 (every angle fixed).  The
    measured qubits are a drawn subset in a drawn order.
    """
    num_qubits = draw(st.integers(2, 4))
    ops = [
        op
        for _ in range(draw(st.integers(1, 6)))
        for op in draw(gate_ops(num_qubits))
    ]
    tail = draw(st.sampled_from(("mixed", "none", "whole_program")))
    if tail == "none":
        ops.append(("ry", (draw(st.integers(0, num_qubits - 1)),), "per_element"))
    elif tail == "whole_program":
        ops = [(name, qubits, mode and "fixed") for name, qubits, mode in ops]
    order = draw(st.permutations(range(num_qubits)))
    measured = order[: draw(st.integers(1, min(3, num_qubits)))]
    batch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    circuit, parameters, bindings = build_sweep(num_qubits, ops, batch, rng, measured)
    return circuit, parameters, bindings, draw(st.sampled_from(sorted(NOISE_MODELS)))


def build_sweep(num_qubits, ops, batch, rng, measured=None):
    """``(circuit, parameters, bindings)`` of ``ops`` with angles drawn from ``rng``.

    Measures every qubit, or ``measured`` in that order.
    """
    circuit = QuantumCircuit(num_qubits, num_qubits)
    parameters, columns = [], []
    for name, qubits, mode in ops:
        if name == "barrier":
            circuit.barrier(*qubits)
        elif mode is None:
            circuit.append(gate(name, qubits))
        elif mode == "fixed":
            circuit.append(gate(name, qubits, float(rng.uniform(0, np.pi))))
        else:
            parameter = Parameter(f"p{len(parameters)}")
            parameters.append(parameter)
            values = rng.uniform(0, np.pi, size=batch)
            columns.append(np.full(batch, values[0]) if mode == "shared" else values)
            circuit.append(gate(name, qubits, parameter))
    if measured is None:
        circuit.measure_all()
    for clbit, qubit in enumerate(measured or ()):
        circuit.measure(qubit, clbit)
    bindings = np.stack(columns, axis=1) if columns else np.zeros((batch, 0))
    return circuit, parameters, bindings


def reference_matrices(circuit, parameters, bindings, model):
    """Per-row :class:`DensityMatrix` evolution: gates, then Kraus channels."""
    out = []
    for row in bindings:
        bound = circuit.bind_parameters(dict(zip(parameters, row)))
        rho = DensityMatrix(circuit.num_qubits)
        for instruction in bound.instructions:
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
        out.append(rho.data)
    return np.stack(out)


def reference_readout(matrices, measured, model):
    diagonal = np.clip(np.real(np.einsum("bii->bi", matrices)), 0.0, None)
    probs = diagonal / diagonal.sum(axis=1, keepdims=True)
    num_qubits = int(np.log2(matrices.shape[1]))
    tensor = probs.reshape((-1,) + (2,) * num_qubits)
    others = tuple(1 + q for q in range(num_qubits) if q not in measured)
    joint = tensor.sum(axis=others).transpose(
        (0,) + tuple(1 + sorted(measured).index(q) for q in measured)
    )
    return apply_readout_error(joint.reshape(len(probs), -1), measured, model)


# --------------------------------------------------------------------------- #
# The differential test
# --------------------------------------------------------------------------- #


def check_against_reference(circuit, parameters, bindings, model, tiling, budget):
    """Evolve and read out through the composed schedule; compare to the reference.

    The final states and the stepwise readout of the whole evolution are
    checked, and so is ``execute``, which reads out through the
    observable the fixed tail was folded into.  The ``grid`` tiling turns
    each bindings row into a grid row of two samples that differ only in
    the last column, so the steps before its first bind site are
    row-constant and evolve once per row a tile touches.
    """
    batch = bindings.shape[0]
    if tiling == "grid":
        bindings = np.repeat(bindings, 2, axis=0)
        if bindings.shape[1]:
            bindings[1::2, -1] += 0.5
    program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
    expected = reference_matrices(circuit, parameters, bindings, model)
    expected_readout = reference_readout(expected, program.measured_qubits, model)
    atol = max(ATOL, arrays.sweep_atol())
    engine = DensitySuperoperatorEngine(model)
    state = program.evolve(bindings, engine)
    assert state.matrices.dtype == arrays.complex_dtype()
    np.testing.assert_allclose(state.matrices, expected, rtol=0, atol=atol)
    stepwise = ReadoutPlan(len(program.steps), None, None, "stepwise")
    np.testing.assert_allclose(
        engine.joint_probabilities(state, program.measured_qubits, stepwise),
        expected_readout,
        rtol=0,
        atol=atol,
    )

    element = 4**program.num_qubits
    plan = {
        "whole": None,
        "tiles": TilePlan.for_circuit_sweep(batch, 1, element, budget * element),
        # 1, 3 or 5 elements: split rows, one row, then two rows per tile.
        "grid": TilePlan.for_circuit_sweep(batch, 2, element, (2 * budget - 1) * element),
    }[tiling]
    engine = DensitySuperoperatorEngine(model)
    readout = engine.readout_plan(program)
    assert readout.observable is not None
    assert readout.split == density_readout_split(program)[0]
    assert all(step.is_fixed for step in program.steps[readout.split:])
    np.testing.assert_allclose(
        program.execute(bindings, engine, tile_plan=plan),
        expected_readout,
        rtol=0,
        atol=atol,
    )
    return program


class TestScheduledEngineMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        sweep=sweeps(),
        precision=st.sampled_from(("double", "single")),
        tiling=st.sampled_from(("whole", "tiles", "grid")),
        budget=st.integers(1, 3),
    )
    def test_states_and_readout(self, sweep, precision, tiling, budget):
        circuit, parameters, bindings, model_key = sweep
        with arrays.precision(precision):
            check_against_reference(
                circuit, parameters, bindings, NOISE_MODELS[model_key](), tiling, budget
            )


# --------------------------------------------------------------------------- #
# Composed runs of fixed steps
# --------------------------------------------------------------------------- #

#: Named programs, each with the steps its schedule must fold: fixed runs on
#: one block, runs a parametric step or a transpose breaks, runs both inside
#: a shared prefix (before the first per-element step) and after it, and the
#: edges of the width rule.
RUN_PATTERNS = {
    "2q_then_lifted_1q": (
        3,
        [("cx", (0, 2), None), ("h", (0,), None), ("rz", (0,), "fixed"),
         ("ry", (1,), "fixed"), ("x", (1,), None)],
        [1, 2, 4],
    ),
    "same_pair_both_orders": (
        3,
        [("cx", (1, 2), None), ("cx", (2, 1), None), ("cz", (1, 2), None),
         ("swap", (2, 1), None), ("rzz", (2, 1), "fixed")],
        [1, 2, 3, 4],
    ),
    "1q_run_on_one_qubit": (
        3,
        [("h", (1,), None), ("rz", (1,), "fixed"), ("x", (1,), None), ("ry", (1,), "fixed")],
        [1, 2, 3],
    ),
    "broken_by_a_parametric_step": (
        3,
        [("cx", (0, 1), None), ("ry", (0,), "per_element"), ("cx", (1, 0), None),
         ("h", (0,), None)],
        [3],
    ),
    "broken_by_a_transpose": (
        4,
        [("cx", (0, 1), None), ("cx", (1, 0), None), ("h", (3,), None),
         ("cx", (0, 1), None), ("h", (0,), None)],
        [1, 4],
    ),
    "3q_run": (
        3,
        [("cswap", (0, 1, 2), None), ("cswap", (0, 2, 1), None), ("cswap", (1, 0, 2), None)],
        [1, 2],
    ),
    "inside_and_after_a_shared_prefix": (
        4,
        [("h", (0,), None), ("cx", (0, 1), None), ("rx", (0,), "fixed"),
         ("ry", (1,), "shared"), ("cx", (1, 0), None), ("h", (0,), None),
         ("ry", (0,), "per_element"), ("cx", (2, 3), None), ("cx", (3, 2), None),
         ("t", (2,), None)],
        [2, 5, 8, 9],
    ),
    "lifted_1q_head_then_its_pair": (
        3,
        [("cx", (0, 1), None), ("ry", (1,), "per_element"), ("h", (0,), None),
         ("cx", (1, 0), None), ("t", (0,), None)],
        [3, 4],
    ),
    # A 1-qubit step on the trailing qubit contracts a 4 x 4 block, not the
    # head's 16 x 16 one: it starts its own run, and the next 2-qubit step
    # starts another.
    "1q_on_the_trailing_qubit_stays_apart": (
        3,
        [("cx", (0, 1), None), ("t", (1,), None), ("s", (1,), None),
         ("cx", (0, 1), None)],
        [2],
    ),
    # Compiled programs record no barriers, so a run folds across one.
    "across_a_barrier": (
        3,
        [("h", (2,), None), ("barrier", (0, 1, 2), None), ("x", (2,), None),
         ("rz", (2,), "fixed")],
        [1, 2],
    ),
}


def folded_steps(program):
    _, heads = density_schedule(program)
    return [index for index, head in enumerate(heads) if head != index]


class TestComposedSchedule:
    @pytest.mark.parametrize("tiling", ["whole", "tiles", "grid"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("pattern", sorted(RUN_PATTERNS))
    def test_pattern_folds_and_matches_reference(self, pattern, precision, tiling):
        num_qubits, ops, folded = RUN_PATTERNS[pattern]
        circuit, parameters, bindings = build_sweep(
            num_qubits, ops, 3, np.random.default_rng(11)
        )
        with arrays.precision(precision):
            program = check_against_reference(
                circuit, parameters, bindings, per_qubit_model(), tiling, 2
            )
        assert folded_steps(program) == folded

    def test_folded_steps_get_no_plan_and_heads_carry_the_product(self):
        num_qubits, ops, folded = RUN_PATTERNS["same_pair_both_orders"]
        circuit, parameters, _ = build_sweep(num_qubits, ops, 1, np.random.default_rng(0))
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        model = per_qubit_model()
        plans = DensitySuperoperatorEngine(model).step_plans(program)
        assert [index for index, plan in enumerate(plans) if plan is None] == folded
        head = plans[0]
        # The head keeps its own canonical superoperator for the
        # certificates; its operator is the whole run, later steps on the
        # left, each in the physical order of the block they share.
        entries, _ = density_schedule(program)
        engine = DensitySuperoperatorEngine(model)
        product = np.eye(16, dtype=complex)
        for step, entry in zip(program.steps, entries):
            product = entry.physical(engine._plan_step(step)[1]) @ product
        np.testing.assert_allclose(head.operator, product, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(head.superop, engine._plan_step(program.steps[0])[1])

    @pytest.mark.parametrize("pattern", sorted(RUN_PATTERNS))
    def test_folds_depend_on_supports_and_fixedness_only(self, pattern):
        num_qubits, ops, folded = RUN_PATTERNS[pattern]
        circuit, parameters, _ = build_sweep(num_qubits, ops, 1, np.random.default_rng(0))
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        for model in NOISE_MODELS.values():
            plans = DensitySuperoperatorEngine(model()).step_plans(program)
            assert [index for index, plan in enumerate(plans) if plan is None] == folded

    @pytest.mark.parametrize("pattern", sorted(RUN_PATTERNS))
    def test_composing_only_regroups_the_products(self, pattern, monkeypatch):
        from repro.quantum import program as program_module

        num_qubits, ops, _ = RUN_PATTERNS[pattern]
        circuit, parameters, bindings = build_sweep(
            num_qubits, ops, 3, np.random.default_rng(5)
        )
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
        model = per_qubit_model()
        composed = program.evolve(bindings, DensitySuperoperatorEngine(model)).matrices
        real = program_module.density_schedule

        def unfolded(target):
            entries, heads = real(target)
            return entries, tuple(range(len(heads)))

        monkeypatch.setattr(program_module, "density_schedule", unfolded)
        engine = DensitySuperoperatorEngine(model)
        assert None not in engine.step_plans(program)
        stepwise = program.evolve(bindings, engine).matrices
        np.testing.assert_allclose(composed, stepwise, rtol=0, atol=1e-14)

    def test_london_template_folds_26_of_68_steps(self, london_template):
        program, _ = london_template
        entries, _ = density_schedule(program)
        assert len(program.steps) == 68
        assert len(folded_steps(program)) == 26
        # The 9 steps before the split run on one-qubit factors and need no
        # transpose; the tail keeps its 23.
        assert density_factor_region(program) == 9
        assert sum(entry.transpose is not None for entry in entries[:9]) == 0
        assert sum(entry.transpose is not None for entry in entries) == 23


# --------------------------------------------------------------------------- #
# Accessors on a permuted layout
# --------------------------------------------------------------------------- #


def permuted_stack(batch):
    """A noisy 3-qubit stack whose tracked layout is not canonical."""
    rng = np.random.default_rng(7)
    stack = BatchedDensityMatrix(batch, 3)
    stack.apply_matrix(gates.ry_batch(rng.uniform(0, np.pi, batch)), (2,))
    stack.apply_matrix(gates.CNOT, (2, 0))
    stack.apply_superoperator(
        sum(conjugation_superoperator(k) for k in depolarizing_kraus(0.2, 2)), (0, 1)
    )
    stack.apply_matrix(gates.rx_batch(rng.uniform(0, np.pi, batch)), (1,))
    stack.apply_matrix(gates.HADAMARD, (0,))
    assert stack.layout != canonical_layout(3)
    return stack


def canonical_reference(batch):
    """The same evolution, one :class:`DensityMatrix` per element."""
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0, np.pi, batch)
    phis = rng.uniform(0, np.pi, batch)
    out = []
    for theta, phi in zip(thetas, phis):
        rho = DensityMatrix(3)
        rho.apply_matrix(gates.ry(theta), (2,))
        rho.apply_matrix(gates.CNOT, (2, 0))
        rho.apply_kraus(depolarizing_kraus(0.2, 2), (0, 1))
        rho.apply_matrix(gates.rx(phi), (1,))
        rho.apply_matrix(gates.HADAMARD, (0,))
        out.append(rho.data)
    return np.stack(out)


class TestAccessorsOnPermutedLayout:
    def test_every_accessor_reads_the_canonical_value(self):
        stack, expected = permuted_stack(4), canonical_reference(4)
        np.testing.assert_allclose(stack.matrices, expected, rtol=0, atol=ATOL)
        for index in range(4):
            np.testing.assert_allclose(
                stack.density_matrix(index).data, expected[index], rtol=0, atol=ATOL
            )
        np.testing.assert_allclose(
            stack.traces(), np.real(np.einsum("bii->b", expected)), rtol=0, atol=ATOL
        )
        np.testing.assert_allclose(
            stack.purities(),
            np.real(np.einsum("bij,bji->b", expected, expected)),
            rtol=0,
            atol=ATOL,
        )
        for qubits in (None, (0,), (2, 0), (1, 2, 0)):
            canonical = [DensityMatrix._from_trusted(m, 3).probabilities(qubits) for m in expected]
            np.testing.assert_allclose(
                stack.probabilities(qubits), np.stack(canonical), rtol=0, atol=ATOL
            )

    def test_readout_is_exactly_the_canonical_stacks(self):
        stack = permuted_stack(3)
        rebuilt = BatchedDensityMatrix.from_matrices(stack.matrices)
        assert rebuilt.layout == canonical_layout(3)
        np.testing.assert_array_equal(rebuilt.matrices, stack.matrices)
        for qubits in (None, (1,), (2, 0)):
            np.testing.assert_array_equal(
                rebuilt.probabilities(qubits), stack.probabilities(qubits)
            )

    def test_repeat_keeps_the_layout(self):
        pair = permuted_stack(2)
        wide = pair.repeat([1, 2])
        assert wide.layout == pair.layout
        np.testing.assert_array_equal(wide.matrices, np.repeat(pair.matrices, [1, 2], axis=0))
        wide.apply_matrix(gates.PAULI_X, (2,))
        pair.apply_matrix(gates.PAULI_X, (2,))
        np.testing.assert_array_equal(wide.matrices[2], pair.matrices[1])


# --------------------------------------------------------------------------- #
# The schedule itself
# --------------------------------------------------------------------------- #


class TestLayoutSchedule:
    def test_same_pair_run_needs_one_transpose(self):
        layout, moves = canonical_layout(5), 0
        for qubits in [(3, 0), (0, 3), (3, 0), (0,), (3,), (0, 3)]:
            step = plan_layout(layout, qubits)
            moves += step.transpose is not None
            layout = step.target
        assert moves == 1

    def test_one_qubit_step_in_the_trailing_pair_is_lifted(self):
        layout = plan_layout(canonical_layout(3), (2, 0)).target
        assert plan_layout(layout, (0,)).mask is None  # its own pair trails
        step = plan_layout(layout, (2,))
        assert step.transpose is None and step.mask is not None
        assert step.physical(np.eye(4)).shape == (16, 16)
        outside = plan_layout(layout, (1,))
        assert outside.transpose is not None and outside.mask is None

    def test_engine_plans_the_schedule_once_per_program(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 2).rz(0.3, 0).cx(2, 0).ry(0.4, 1).cswap(1, 0, 2)
        qc.measure_all()
        program = SweepProgram.compile(qc, bind_floats=False)
        engine = DensitySuperoperatorEngine(per_qubit_model())
        plans = engine.step_plans(program)
        assert engine.step_plans(program) is plans
        layout = canonical_layout(3)
        for plan in plans:
            if plan is None:  # folded: the layout does not move
                continue
            assert plan.layout.source == layout
            layout = plan.layout.target
        # rz(0) is lifted into the trailing (0, 2) block and cx(2, 0) needs
        # no transpose, so both fold into cx(0, 2).
        assert [None if plan is None else plan.layout.transpose is not None for plan in plans] == [
            True, True, None, None, True, False,
        ]

    def test_a_plan_for_another_layout_raises(self):
        stack = BatchedDensityMatrix(1, 3)
        stale = plan_layout(canonical_layout(3), (0,))
        stack.apply_matrix(gates.HADAMARD, (1,))
        with pytest.raises(SimulationError, match="layout step planned for axis order"):
            stack.apply_planned(stale, stale.physical(np.eye(4, dtype=complex)))


# --------------------------------------------------------------------------- #
# The readout plan
# --------------------------------------------------------------------------- #


def tail_program():
    """One parametric step, then a fixed tail; qubits 2 and 0 measured."""
    circuit, parameters, bindings = build_sweep(
        3,
        [("ry", (1,), "per_element"), ("cx", (1, 0), None), ("h", (2,), None),
         ("cx", (0, 2), None), ("rz", (2,), "fixed")],
        4,
        np.random.default_rng(17),
        measured=(2, 0),
    )
    program = SweepProgram.compile(circuit, bind_floats=False, parameters=parameters)
    return circuit, parameters, bindings, program


class TestReadoutPlan:
    def test_a_mutated_noise_model_rebuilds_the_observable(self):
        circuit, parameters, bindings, program = tail_program()
        model = per_qubit_model()
        engine = DensitySuperoperatorEngine(model)
        before = engine.readout_plan(program)
        assert engine.readout_plan(program) is before
        program.execute(bindings, engine)
        model.add_all_qubit_error(depolarizing_kraus(0.2, 1), 1)
        after = engine.readout_plan(program)
        assert engine.plans_compiled == 2
        assert after is not before and after.split == before.split == 1
        assert not np.allclose(after.observable, before.observable)
        np.testing.assert_allclose(
            program.execute(bindings, engine),
            reference_readout(
                reference_matrices(circuit, parameters, bindings, model), (2, 0), model
            ),
            rtol=0,
            atol=ATOL,
        )

    def test_the_readout_plan_is_the_fold_of_the_current_step_plans(self):
        _, _, _, program = tail_program()
        engine = DensitySuperoperatorEngine(per_qubit_model())
        cached = engine.readout_plan(program)
        fold = engine._fold_tail(program, engine.step_plans(program))
        assert engine.readout_plan(program) is cached
        assert engine.plans_compiled == 1
        assert (fold.split, fold.layout) == (cached.split, cached.layout)
        np.testing.assert_array_equal(fold.observable, cached.observable)

    def test_a_program_past_the_scope_bound_keeps_stepwise_readout(self):
        from repro.core.swap_test import SwapTestFidelityEstimator
        from repro.quantum.program import OBSERVABLE_MAX_AMPLITUDES

        assert OBSERVABLE_MAX_AMPLITUDES == SwapTestFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES
        wide = QuantumCircuit(11, 2)
        wide.h(0).cx(0, 10)
        wide.measure(10, 0)
        wide.measure(0, 1)
        program = SweepProgram.compile(wide, bind_floats=False)
        engine = DensitySuperoperatorEngine(per_qubit_model())
        readout = engine.readout_plan(program)
        assert (readout.split, readout.observable, readout.layout) == (2, None, None)
        assert readout.reason == (
            "stepwise: a 4 x 4194304 observable (16777216 amplitudes) exceeds "
            "the 8388608-amplitude bound"
        )
        # One measured qubit fits the bound exactly and folds the tail.
        single = QuantumCircuit(11, 1)
        single.h(0).cx(0, 10)
        single.measure(10, 0)
        assert density_readout_split(SweepProgram.compile(single, bind_floats=False))[0] == 0

    def test_stepwise_readout_past_the_bound_matches_the_reference(self, monkeypatch):
        from repro.quantum import program as program_module

        circuit, parameters, bindings, program = tail_program()
        monkeypatch.setattr(program_module, "OBSERVABLE_MAX_AMPLITUDES", 4**3)
        engine = DensitySuperoperatorEngine(per_qubit_model())
        readout = engine.readout_plan(program)
        assert readout.observable is None and readout.split == len(program.steps)
        assert readout.reason.startswith("stepwise: a 4 x 64 observable")
        model = per_qubit_model()
        np.testing.assert_allclose(
            program.execute(bindings, engine),
            reference_readout(
                reference_matrices(circuit, parameters, bindings, model), (2, 0), model
            ),
            rtol=0,
            atol=ATOL,
        )

    def test_a_state_in_another_layout_fails_closed(self):
        _, _, bindings, program = tail_program()
        engine = DensitySuperoperatorEngine(per_qubit_model())
        readout = engine.readout_plan(program)
        # ry(1) ran on its qubit's factor; the tail starts from the
        # factors' product layout.
        assert readout.layout == (0, 3, 1, 4, 2, 5)
        fresh = BatchedDensityMatrix(bindings.shape[0], 3)
        with pytest.raises(SimulationError) as excinfo:
            engine.joint_probabilities(fresh, program.measured_qubits, readout)
        assert str(excinfo.value) == (
            "observable planned for axis order (0, 3, 1, 4, 2, 5) read out of a "
            "stack in axis order (0, 1, 2, 3, 4, 5)"
        )

    def test_the_statevector_plan_of_a_non_swap_test_is_stepwise(self):
        _, _, _, program = tail_program()
        readout = StatevectorEngine().readout_plan(program)
        assert (readout.split, readout.observable, readout.layout, readout.reason) == (
            len(program.steps),
            None,
            None,
            "stepwise: the program measures 2 qubit(s), not one ancilla",
        )
        assert readout.mode == "stepwise" and readout.registers is None
