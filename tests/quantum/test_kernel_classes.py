"""Differential tests of the statevector engine's gate kernels by class.

Every library gate, on sorted, reversed and non-adjacent qubit placements,
with shared and per-element matrices, at batch 1 (the shared-prefix path)
and batch > 1, in double and single precision, is run through its class
kernel and compared against
:func:`~repro.analysis.equiv.lift_unitary_kron` applied densely — exactly for permutations, within ``state_atol``
otherwise.  The 2x2 target-qubit update of the one-qubit dense and the
controlled kernels is also checked against the einsum of
:meth:`BatchedStatevector.apply_matrix` on random registers, at every
target position.  VER405 is checked to refuse a plan of the wrong class and
a wrong update variant, and every kernel class to refuse a per-element
operand of the wrong length.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.analysis import equiv
from repro.analysis.equiv import certificate_placement, lift_unitary_kron
from repro.exceptions import SimulationError
from repro.quantum import gates, kernels
from repro.quantum.batched import BatchedStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Instruction, Parameter
from repro.quantum.program import GateStep, StatevectorEngine, SweepProgram
from repro.utils.cache import LRUCache

NUM_QUBITS = 5

#: The kernel class of every library gate, fixed and parametric alike.
CLASS_TABLE = {
    "id": kernels.PERMUTATION,
    "x": kernels.PERMUTATION,
    "y": kernels.DENSE,
    "z": kernels.DIAGONAL,
    "h": kernels.DENSE,
    "s": kernels.DIAGONAL,
    "t": kernels.DIAGONAL,
    "rx": kernels.DENSE,
    "ry": kernels.DENSE,
    "rz": kernels.DIAGONAL,
    "r": kernels.DENSE,
    "u3": kernels.DENSE,
    "cx": kernels.PERMUTATION,
    "cz": kernels.DIAGONAL,
    "swap": kernels.PERMUTATION,
    "rxx": kernels.DENSE,
    "ryy": kernels.DENSE,
    "rzz": kernels.DIAGONAL,
    "crx": kernels.CONTROLLED,
    "cry": kernels.CONTROLLED,
    "crz": kernels.DIAGONAL,
    "cswap": kernels.PERMUTATION,
}

#: Sorted, reversed and non-adjacent placements per gate width; the
#: multi-qubit lists put the control above the lowest qubit too.
PLACEMENTS = {
    1: [(0,), (2,), (4,)],
    2: [(0, 1), (1, 0), (3, 0), (1, 4)],
    3: [(0, 1, 2), (2, 1, 0), (3, 0, 4), (1, 4, 2)],
}

CASES = [
    (name, qubits)
    for name, (width, _) in gates.GATE_SIGNATURES.items()
    for qubits in PLACEMENTS[width]
]


def library_step(name, qubits, parametric):
    num_params = gates.GATE_SIGNATURES[name][1]
    if parametric:
        slots = tuple(("column", column, 1.0) for column in range(num_params))
        return GateStep(name=name, qubits=qubits, slots=slots)
    angles = kernels.PROBE_ANGLES[:num_params]
    return GateStep(
        name=name,
        qubits=qubits,
        slots=tuple(("value", angle) for angle in angles),
        matrix=gates.gate_matrix(name, *angles),
    )


def random_states(batch, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, 2**NUM_QUBITS)) + 1j * rng.normal(
        size=(batch, 2**NUM_QUBITS)
    )
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def operand(name, batch, per_element, seed):
    """A shared matrix, or a per-element stack (distinct angles if any)."""
    num_params = gates.GATE_SIGNATURES[name][1]
    rng = np.random.default_rng(seed)
    if not per_element:
        return gates.gate_matrix(name, *rng.uniform(-np.pi, np.pi, size=num_params))
    if num_params == 0:
        matrix = gates.gate_matrix(name)
        return np.broadcast_to(matrix, (batch,) + matrix.shape)
    return gates.gate_matrix_batch(
        name, *(rng.uniform(-np.pi, np.pi, size=batch) for _ in range(num_params))
    )


def dense_reference(amplitudes, matrix, qubits):
    """The kron lift applied densely, element by element when batched."""
    if matrix.ndim == 2:
        return amplitudes @ lift_unitary_kron(matrix, qubits, range(NUM_QUBITS)).T
    return np.stack(
        [
            lift_unitary_kron(element, qubits, range(NUM_QUBITS)) @ row
            for element, row in zip(matrix, amplitudes)
        ]
    )


class TestClassTable:
    @pytest.mark.parametrize("name", sorted(gates.GATE_SIGNATURES))
    def test_every_library_gate_has_its_class(self, name):
        width, num_params = gates.GATE_SIGNATURES[name]
        qubits = PLACEMENTS[width][0]
        assert kernels.classify_step(library_step(name, qubits, False)) == CLASS_TABLE[name]
        if num_params:
            step = library_step(name, qubits, True)
            assert kernels.classify_step(step) == CLASS_TABLE[name]

    def test_table_covers_the_library(self):
        assert set(CLASS_TABLE) == set(gates.GATE_SIGNATURES)

    def test_engine_plans_carry_the_step_classes(self):
        circuit = QuantumCircuit(NUM_QUBITS)
        theta = Parameter("theta")
        for name, (width, num_params) in gates.GATE_SIGNATURES.items():
            circuit.append(
                Instruction(name=name, qubits=PLACEMENTS[width][1], params=(theta,) * num_params)
            )
        program = SweepProgram.compile(circuit, bind_floats=False)
        plans = StatevectorEngine().step_plans(program)
        assert [plan.kind for plan in plans] == [CLASS_TABLE[s.name] for s in program.steps]
        # Memoised per program, across fresh engines.
        assert StatevectorEngine().step_plans(program) is plans


class TestKernelsMatchDenseLift:
    @pytest.mark.parametrize("precision", arrays.PRECISIONS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("per_element", [False, True], ids=["shared", "per-element"])
    @pytest.mark.parametrize("name,qubits", CASES, ids=[f"{n}{q}" for n, q in CASES])
    def test_kernel_matches_lift(self, name, qubits, per_element, batch, precision):
        parametric = gates.GATE_SIGNATURES[name][1] > 0
        step = library_step(name, qubits, parametric)
        kind = kernels.classify_step(step)
        kernel = kernels.build_kernel(kind, step, NUM_QUBITS)
        raw = random_states(batch, seed=len(qubits) + batch)
        matrix = operand(name, batch, per_element, seed=sum(qubits))
        with arrays.precision(precision):
            state = BatchedStatevector.from_amplitudes(raw)
            kernel.apply(state, matrix)
            actual = state.amplitudes
            expected = dense_reference(
                arrays.as_complex(raw), np.asarray(matrix), qubits
            )
            assert actual.dtype == arrays.complex_dtype()
            if kind == kernels.PERMUTATION:
                np.testing.assert_array_equal(actual, expected)
            else:
                np.testing.assert_allclose(
                    actual, expected, rtol=0, atol=arrays.state_atol()
                )

    def test_single_precision_state_stays_complex64(self):
        with arrays.precision("single"):
            circuit = QuantumCircuit(3)
            circuit.h(0)
            circuit.rz(Parameter("a"), 1)
            circuit.cry(Parameter("b"), 2, 0)
            circuit.cswap(0, 2, 1)
            program = SweepProgram.compile(circuit, bind_floats=False)
            bindings = np.array([[0.3, 1.1], [0.4, -0.2]])
            state = program.evolve(bindings, StatevectorEngine())
            assert state.amplitudes.dtype == np.complex64
            np.testing.assert_allclose(state.norms(), 1.0, atol=arrays.state_atol())


#: One-qubit gates of the dense class, and the controlled-class gates.
DENSE_1Q = tuple(
    name
    for name, (width, _) in sorted(gates.GATE_SIGNATURES.items())
    if width == 1 and CLASS_TABLE[name] == kernels.DENSE
)
CONTROLLED_2Q = ("crx", "cry")


def placements(name, num_qubits):
    """Every target position, and for a controlled gate every control too."""
    if name in DENSE_1Q:
        return [(target,) for target in range(num_qubits)]
    return [
        (control, target)
        for target in range(num_qubits)
        for control in range(num_qubits)
        if control != target
    ]


class TestTargetUpdateMatchesEinsum:
    """The 2x2 update against the untouched ``apply_matrix`` einsum."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_qubits=st.integers(1, 7),
        name=st.sampled_from(DENSE_1Q + CONTROLLED_2Q),
        per_element=st.booleans(),
        batch=st.integers(1, 5),
        precision=st.sampled_from(arrays.PRECISIONS),
        seed=st.integers(0, 2**16),
    )
    def test_every_position_matches_the_einsum(
        self, num_qubits, name, per_element, batch, precision, seed
    ):
        if name in CONTROLLED_2Q and num_qubits < 2:
            num_qubits = 2
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
            size=(batch, 2**num_qubits)
        )
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        matrix = operand(name, batch, per_element, seed)
        kind = CLASS_TABLE[name]
        variants = set()
        with arrays.precision(precision):
            for qubits in placements(name, num_qubits):
                step = GateStep(name=name, qubits=qubits, slots=())
                kernel = kernels.build_kernel(kind, step, num_qubits)
                variants.add(kernel.update.variant)
                state = BatchedStatevector.from_amplitudes(raw)
                kernel.apply(state, matrix)
                oracle = BatchedStatevector.from_amplitudes(raw)
                oracle.apply_matrix(matrix, qubits)
                actual = state.amplitudes
                assert actual.dtype == arrays.complex_dtype()
                np.testing.assert_allclose(
                    actual, oracle.amplitudes, rtol=0, atol=arrays.state_atol()
                )
        if num_qubits >= 3 + (name in CONTROLLED_2Q):
            assert variants == {kernels.MATMUL_LEFT, kernels.MATMUL_RIGHT, kernels.AXPY}

    @pytest.mark.parametrize(
        "kind,qubits,num_qubits,variant",
        [
            (kernels.DENSE, (0,), 1, kernels.MATMUL_LEFT),
            (kernels.DENSE, (0,), 5, kernels.MATMUL_LEFT),
            (kernels.DENSE, (2,), 5, kernels.AXPY),
            (kernels.DENSE, (4,), 5, kernels.MATMUL_RIGHT),
            (kernels.CONTROLLED, (0, 1), 5, kernels.MATMUL_LEFT),
            (kernels.CONTROLLED, (1, 0), 5, kernels.MATMUL_LEFT),
            (kernels.CONTROLLED, (3, 4), 5, kernels.MATMUL_RIGHT),
            (kernels.CONTROLLED, (4, 3), 5, kernels.MATMUL_RIGHT),
            (kernels.CONTROLLED, (4, 2), 5, kernels.AXPY),
            (kernels.CONTROLLED, (1, 2), 5, kernels.AXPY),
            (kernels.DENSE, (0, 1), 5, None),
            (kernels.DIAGONAL, (0,), 5, None),
            (kernels.CONTROLLED, (0, 1, 2), 5, None),
        ],
    )
    def test_variant_follows_the_amplitudes_beside_the_target(
        self, kind, qubits, num_qubits, variant
    ):
        assert kernels.update_variant(kind, qubits, num_qubits) == variant


#: A step of every kernel class, and a dense step wider than one qubit.
WRONG_LENGTH_CASES = [
    ("x", (1,)),
    ("rz", (1,)),
    ("cry", (0, 2)),
    ("ry", (1,)),
    ("rxx", (0, 2)),
]


class TestWrongLengthOperandFailsClosed:
    """A per-element stack must hold one matrix per state of the batch."""

    @pytest.mark.parametrize("name,qubits", WRONG_LENGTH_CASES)
    def test_every_kernel_class_names_both_shapes(self, name, qubits):
        step = library_step(name, qubits, parametric=False)
        kind = kernels.classify_step(step)
        kernel = kernels.build_kernel(kind, step, 3)
        raw = np.eye(8)[:5]
        state = BatchedStatevector.from_amplitudes(raw)
        stack = step.matrix[None]
        with pytest.raises(SimulationError) as excinfo:
            kernel.apply(state, stack)
        assert str(excinfo.value) == (
            f"{kind} kernel: per-element operand of shape {stack.shape} does "
            "not match the state of shape (5, 8)"
        )
        np.testing.assert_array_equal(state.amplitudes, raw)

    def test_every_class_is_covered(self):
        covered = {
            kernels.classify_step(library_step(name, qubits, False))
            for name, qubits in WRONG_LENGTH_CASES
        }
        assert covered == set(kernels._KERNELS)


class TestVER405:
    def wrong_class(self, monkeypatch, name, kind):
        classify = kernels.classify_step
        monkeypatch.setattr(
            kernels,
            "classify_step",
            lambda step: kind if step.name == name else classify(step),
        )

    @pytest.mark.parametrize(
        "name,kind",
        [
            ("h", kernels.PERMUTATION),
            ("ry", kernels.DIAGONAL),
            ("rxx", kernels.CONTROLLED),
            ("cswap", kernels.CONTROLLED),
            ("cry", kernels.DIAGONAL),
        ],
    )
    def test_wrong_class_fails_plan_building_naming_the_step(
        self, monkeypatch, name, kind
    ):
        width, num_params = gates.GATE_SIGNATURES[name]
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.x(4)
        circuit.append(
            Instruction(
                name=name, qubits=PLACEMENTS[width][2], params=(Parameter("p"),) * num_params
            )
        )
        program = SweepProgram.compile(circuit, bind_floats=False, name="sabotaged")
        self.wrong_class(monkeypatch, name, kind)
        with pytest.raises(SimulationError) as excinfo:
            StatevectorEngine().step_plans(program)
        message = str(excinfo.value)
        assert "VER405" in message
        assert f"step 1 ('{name}')" in message
        assert "sabotaged" in message

    def test_correct_plans_certify_clean(self):
        from repro.analysis.equiv import verify_kernel_plan

        for name, qubits in CASES:
            for parametric in {False, gates.GATE_SIGNATURES[name][1] > 0}:
                step = library_step(name, qubits, parametric)
                assert verify_kernel_plan(step, kernels.classify_step(step)) == []

    def test_certificate_places_one_spectator_per_untouched_run(self):
        assert certificate_placement((0,), 1) == ((0,), 1)
        assert certificate_placement((0,), 5) == ((0,), 2)
        assert certificate_placement((3,), 5) == ((1,), 3)
        assert certificate_placement((4,), 5) == ((1,), 2)
        assert certificate_placement((4, 1), 6) == ((3, 1), 5)
        assert certificate_placement((1, 2), 3) == ((1, 2), 3)

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_certificate_runs_the_variant_the_plan_runs(self, num_qubits):
        for kind, width in ((kernels.DENSE, 1), (kernels.CONTROLLED, 2)):
            if width > num_qubits:
                continue
            name = "ry" if width == 1 else "cry"
            for qubits in placements(name, num_qubits):
                local, local_width = certificate_placement(qubits, num_qubits)
                assert kernels.update_variant(
                    kind, local, local_width
                ) == kernels.update_variant(kind, qubits, num_qubits)

    def test_wrong_axpy_on_an_interior_qubit_fails_plan_building(self, monkeypatch):
        def wrong_axpy(self, view, block):
            # Applies the transpose of the block: right on the diagonal of
            # a symmetric matrix, wrong for an ``ry`` rotation.
            row0, row1 = view[self.row0], view[self.row1]
            scaled = row0 * block[..., 0, 1]
            row0 *= block[..., 0, 0]
            row0 += row1 * block[..., 1, 0]
            row1 *= block[..., 1, 1]
            row1 += scaled

        monkeypatch.setattr(kernels.TargetUpdate, "_axpy", wrong_axpy)
        monkeypatch.setattr(equiv, "_KERNEL_CERTIFICATES", LRUCache(max_entries=64))
        theta = Parameter("theta")
        # A leading ry runs on its one-qubit factor, a left matmul, so the
        # wrong axpy certifies there.
        factor = QuantumCircuit(NUM_QUBITS)
        factor.ry(theta, 2)
        factor.cx(3, 4)
        StatevectorEngine().step_plans(SweepProgram.compile(factor, bind_floats=False))
        # After the cx every step runs on the register.
        edges = QuantumCircuit(NUM_QUBITS)
        edges.cx(3, 4)
        edges.ry(theta, 0)
        edges.ry(theta, NUM_QUBITS - 1)
        # The edge qubits run the matmuls, so the same wrong axpy certifies.
        StatevectorEngine().step_plans(SweepProgram.compile(edges, bind_floats=False))
        interior = QuantumCircuit(NUM_QUBITS)
        interior.cx(3, 4)
        interior.ry(theta, 2)
        program = SweepProgram.compile(interior, bind_floats=False, name="sabotaged")
        with pytest.raises(SimulationError) as excinfo:
            StatevectorEngine().step_plans(program)
        message = str(excinfo.value)
        assert "VER405" in message
        assert "step 1 ('ry')" in message
        assert "sabotaged" in message
