"""Row-constant prefix execution of compiled SweepPrograms.

Unit-level coverage of the whole-grid executor machinery: the
``shared``/``rows``/``batched`` operand decision made once per sweep,
``TilePlan.tile_rows`` geometry, ``repeat`` on both batched state classes,
and prefix tile evolution — once per grid row a tile touches — against
per-element evolution, bit for bit, on both engines.
"""

import numpy as np
import pytest

from repro.quantum.circuit import Parameter, QuantumCircuit
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
)


def grid_program(late_trained: bool = False):
    """Two-qubit program: trained columns, a seam barrier, data columns.

    With ``late_trained`` a third trained rotation follows the data
    rotations, so a row-constant step comes after a per-element one.
    """
    trained = [Parameter(f"theta_{i}") for i in range(3 if late_trained else 2)]
    data = [Parameter(f"x_{i}") for i in range(2)]
    qc = QuantumCircuit(2, 2, name="grid")
    qc.h(0)
    qc.ry(trained[0], 0)
    qc.rz(trained[1], 0)
    qc.barrier(0, 1)
    qc.ry(data[0], 1)
    qc.rz(data[1], 1)
    if late_trained:
        qc.rx(trained[2], 0)
    qc.cx(0, 1)
    qc.measure_all()
    return SweepProgram.compile(
        qc, bind_floats=False, parameters=trained + data, name="grid"
    )


def grid_bindings(program, rows: int = 3, samples: int = 4, seed: int = 5):
    """Row-major grid: trained columns constant within each row's block."""
    rng = np.random.default_rng(seed)
    num_trained = program.num_columns - 2
    trained = rng.uniform(0, np.pi, size=(rows, num_trained))
    data = rng.uniform(0, np.pi, size=(samples, 2))
    return np.hstack(
        [np.repeat(trained, samples, axis=0), np.tile(data, (rows, 1))]
    )


class SpanPlan(TilePlan):
    """A grid plan with hand-picked contiguous tiles (any start and stop)."""

    spans = ()

    def flat_tiles(self):
        yield from self.spans


def span_plan(rows, samples, spans):
    plan = SpanPlan(rows=rows, samples=samples, row_tile=rows, sample_tile=samples)
    object.__setattr__(plan, "spans", tuple(spans))
    return plan


def recording(engine):
    """``engine`` with every dispatched step's batch size recorded."""
    batches = []
    apply_step = engine.apply_step

    def record(state, step, plan, matrix):
        batches.append((step.name, state.batch_size))
        return apply_step(state, step, plan, matrix)

    engine.apply_step = record
    return engine, batches


ENGINES = [StatevectorEngine, DensitySuperoperatorEngine]


def element_amplitudes(engine, program):
    return (4 if engine.is_noisy else 2) ** program.num_qubits


class TestOperandKinds:
    def test_each_parametric_step_gets_one_kind_per_sweep(self):
        program = grid_program(late_trained=True)
        bindings = grid_bindings(program)
        kinds = [
            None if operand is None else operand[0]
            for operand in program._resolve_operands(
                bindings, range(len(program.steps)), samples=4
            )
        ]
        # h, ry(theta), rz(theta), ry(x), rz(x), rx(theta), cx
        assert kinds == [None, "rows", "rows", "batched", "batched", "rows", None]

    def test_without_grid_rows_nothing_is_row_constant(self):
        program = grid_program()
        bindings = grid_bindings(program)
        kinds = {
            operand[0]
            for operand in program._resolve_operands(bindings, range(len(program.steps)))
            if operand is not None
        }
        assert kinds == {"batched"}

    def test_a_column_equal_everywhere_is_shared(self):
        program = grid_program()
        bindings = grid_bindings(program, rows=1)
        operands = program._resolve_operands(bindings, range(len(program.steps)), samples=4)
        assert operands[1][0] == "shared"
        assert operands[1][1].shape == (2, 2)


class TestTileRows:
    @pytest.mark.parametrize(
        "start,stop,firsts,counts",
        [
            (0, 12, [0, 4, 8], [4, 4, 4]),  # whole rows
            (4, 8, [4], [4]),  # one whole row
            (5, 7, [5], [2]),  # inside one row
            (3, 9, [3, 4, 8], [1, 4, 1]),  # starts and ends mid-row
            (11, 12, [11], [1]),
        ],
    )
    def test_firsts_and_counts(self, start, stop, firsts, counts):
        plan = TilePlan(rows=3, samples=4, row_tile=3, sample_tile=4)
        got_firsts, got_counts = plan.tile_rows(start, stop)
        assert got_firsts.tolist() == firsts
        assert got_counts.tolist() == counts

    def test_grid_sweep_is_the_circuit_sweep_plan(self):
        assert TilePlan.for_grid_sweep(8, 16, 4, 512) == TilePlan.for_circuit_sweep(
            8, 16, 4, 512
        )
        plan = TilePlan.for_grid_sweep(8, 16, 4, 512)
        assert (plan.row_tile, plan.sample_tile) == (8, 16)  # one whole-grid tile


class TestRepeat:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_repeat_equals_evolving_the_copies(self, engine_cls):
        program = grid_program()
        rows = grid_bindings(program, rows=2, samples=1)
        counts = [3, 2]
        single = program.evolve(rows, engine_cls())
        copies = program.evolve(np.repeat(rows, counts, axis=0), engine_cls())
        repeated = single.repeat(counts)
        assert repeated.batch_size == 5
        np.testing.assert_array_equal(repeated.probabilities(), copies.probabilities())


class TestRowPrefixExecution:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize(
        "tile_elements,tiles",
        [
            (12, [(0, 12)]),  # one whole-grid tile: 3 rows
            (8, [(0, 8), (8, 12)]),  # two rows, then one
            (3, [(0, 3), (3, 4), (4, 7), (7, 8), (8, 11), (11, 12)]),  # split rows
        ],
    )
    def test_derived_plans_are_bit_identical_to_per_element(
        self, engine_cls, tile_elements, tiles
    ):
        program = grid_program()
        bindings = grid_bindings(program)
        element = element_amplitudes(engine_cls, program)
        plan = TilePlan.for_circuit_sweep(3, 4, element, tile_elements * element)
        assert list(plan.flat_tiles()) == tiles
        plain = program.execute(bindings, engine_cls())
        np.testing.assert_array_equal(
            program.execute(bindings, engine_cls(), tile_plan=plan), plain
        )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_tiles_starting_and_ending_mid_row(self, engine_cls):
        program = grid_program()
        bindings = grid_bindings(program)
        plan = span_plan(3, 4, [(0, 3), (3, 9), (9, 12)])
        engine, batches = recording(engine_cls())
        got = program.execute(bindings, engine, tile_plan=plan)
        np.testing.assert_array_equal(got, program.execute(bindings, engine_cls()))
        # Tile [3, 9) touches rows 0, 1 and 2: its prefix (h, ry, rz) runs
        # at batch 3, the data steps at its 6 elements.
        per_tile = len(batches) // 3
        middle = [batch for _, batch in batches[per_tile : 2 * per_tile]]
        assert middle == [3] * 3 + [6] * (per_tile - 3)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_row_constant_step_after_a_per_element_step_stays_per_element(
        self, engine_cls
    ):
        program = grid_program(late_trained=True)
        bindings = grid_bindings(program)
        element = element_amplitudes(engine_cls, program)
        plan = TilePlan.for_circuit_sweep(3, 4, element, 12 * element)
        engine, batches = recording(engine_cls())
        got = program.execute(bindings, engine, tile_plan=plan)
        np.testing.assert_array_equal(got, program.execute(bindings, engine_cls()))
        # h, ry(theta), rz(theta) once per row; ry(x), rz(x) and the
        # row-constant rx(theta) after them per element.
        assert [batch for _, batch in batches[:6]] == [3, 3, 3, 12, 12, 12]
        assert batches[5][0] == "rx"

    def test_identical_rows_make_the_whole_program_prefix(self):
        program = grid_program()
        bindings = np.tile(grid_bindings(program, rows=1, samples=1), (12, 1))
        element = element_amplitudes(StatevectorEngine, program)
        plan = TilePlan.for_circuit_sweep(3, 4, element, 12 * element)
        engine, batches = recording(StatevectorEngine())
        got = program.execute(bindings, engine, tile_plan=plan)
        np.testing.assert_array_equal(got, program.execute(bindings, StatevectorEngine()))
        assert {batch for _, batch in batches} == {3}

    def test_execution_runs_no_prefix_certificate(self, monkeypatch):
        import repro.analysis.equiv as equiv

        def refuse(*args, **kwargs):
            raise AssertionError("the executor consulted a prefix certificate")

        monkeypatch.setattr(equiv, "shared_prefix_length", refuse)
        monkeypatch.setattr(equiv, "verify_shared_prefix", refuse)
        program = grid_program()
        element = element_amplitudes(StatevectorEngine, program)
        plan = TilePlan.for_circuit_sweep(3, 4, element, 12 * element)
        program.execute(grid_bindings(program), StatevectorEngine(), tile_plan=plan)
