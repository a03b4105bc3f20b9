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
    estimate_cost,
    reference_cost_reports,
    verify_cost,
    verify_reference_costs,
)
from repro.analysis.diagnostics import Severity
from repro.core.model import QuClassi
from repro.quantum.program import StatevectorEngine, SweepProgram, TilePlan
from repro.utils.rng import ensure_rng

#: Calibration tolerance of the peak-bytes prediction (both directions).
ACCURACY_FACTOR = 1.5


def compile_discriminator(num_features, architecture="s", seed=2022):
    """One bound QuClassi discriminator program plus its bindings row."""
    rng = ensure_rng(seed)
    builder = QuClassi(
        num_features=num_features, num_classes=2, architecture=architecture, seed=seed
    ).builder
    circuit = builder.build(
        rng.uniform(0.05, 1.0, size=num_features),
        rng.uniform(0.0, np.pi, size=len(builder.parameters)),
    )
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
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(4, 8, 2**program.num_qubits, 2**20)
        report = estimate_cost(program, plan)
        assert report.element_amplitudes == 2**program.num_qubits
        assert report.peak_amplitudes == report.tile_elements * 2**program.num_qubits

    def test_density_element_is_4_to_n(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_circuit_sweep(4, 8, 4**program.num_qubits, 2**20)
        report = estimate_cost(program, plan, engine="density")
        assert report.element_amplitudes == 4**program.num_qubits
        assert report.superoperator_contractions == report.contractions

    def test_contractions_scale_with_tiles(self):
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        one_tile = estimate_cost(
            program, TilePlan.for_circuit_sweep(4, 8, element, element * 32)
        )
        many_tiles = estimate_cost(
            program, TilePlan.for_circuit_sweep(4, 8, element, element * 4)
        )
        assert one_tile.num_tiles == 1
        assert many_tiles.num_tiles > 1
        assert many_tiles.contractions == many_tiles.num_tiles * len(program.steps)
        assert one_tile.contractions == len(program.steps)

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

    def test_shared_prefix_steps_discount_element_contractions(self):
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        plan = TilePlan.for_grid_sweep(8, 4, element, element * 4)
        baseline = estimate_cost(program, plan)
        assert baseline.element_contractions == plan.total_elements * len(
            program.steps
        )
        prefix = 3
        shared = estimate_cost(program, plan, shared_prefix_steps=prefix)
        assert shared.shared_prefix_steps == prefix
        # Prefix steps cost one element per TILE instead of one per element.
        assert shared.element_contractions == (
            shared.num_tiles * prefix
            + plan.total_elements * (len(program.steps) - prefix)
        )
        assert shared.element_contractions < baseline.element_contractions
        # The einsum-call count is tiling-determined either way.
        assert shared.contractions == baseline.contractions

    def test_shared_prefix_steps_out_of_range_rejected(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan.for_grid_sweep(2, 2, 2**program.num_qubits, 2**20)
        with pytest.raises(ValueError):
            estimate_cost(program, plan, shared_prefix_steps=-1)
        with pytest.raises(ValueError):
            estimate_cost(program, plan, shared_prefix_steps=len(program.steps) + 1)

    @pytest.mark.parametrize("architecture", ["s", "d", "e"])
    def test_dense_contractions_predict_the_einsum_calls(self, architecture, monkeypatch):
        from repro import arrays

        rng = ensure_rng(5)
        builder = QuClassi(
            num_features=4, num_classes=2, architecture=architecture, seed=5
        ).builder
        program = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
        )
        rows, samples = 2, 6
        element = 2**program.num_qubits
        plan = TilePlan.for_grid_sweep(rows, samples, element, 4 * element)
        bindings = builder.grid_bindings(
            rng.uniform(0.0, np.pi, size=(rows, len(builder.parameters))),
            rng.uniform(0.05, 0.95, size=(samples, 4)),
        )
        engine = StatevectorEngine()
        engine.step_plans(program)  # certify the plans before counting
        calls = []
        einsum = arrays.einsum
        monkeypatch.setattr(
            arrays, "einsum", lambda *args, **kw: calls.append(1) or einsum(*args, **kw)
        )
        program.execute(bindings, engine, tile_plan=plan)
        report = estimate_cost(program, plan)
        assert report.dense_contractions == len(calls)
        assert 0 < report.dense_contractions < report.contractions
        density = estimate_cost(program, plan, engine="density")
        assert density.dense_contractions == density.contractions


# --------------------------------------------------------------------------- #
# The VER2xx budget corpus — every malformed plan must be rejected
# --------------------------------------------------------------------------- #


class TestVerifyCost:
    def test_tile_over_budget_is_ver201_error(self):
        program, _ = compile_discriminator(4)
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
        program, _ = compile_discriminator(4)
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
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        plan = TilePlan(
            rows=64, samples=8, row_tile=1, sample_tile=8, max_amplitudes=element * 512
        )
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER203"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_prefix_shared_grid_plan_is_exempt_from_ver203(self):
        """Regression: grid plans' single-row tiles are deliberate, not waste.

        ``TilePlan.for_grid_sweep`` tiles one parameter row at a time so the
        executor can evolve the shared trained-state prefix once per tile —
        the cost model used to flag exactly this shape as under-utilised.
        The hand-built twin WITHOUT the ``shared_prefix`` claim pins the old
        false positive: same geometry, VER203 fires.
        """
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        grid_plan = TilePlan.for_grid_sweep(64, 8, element, element * 512)
        assert grid_plan.shared_prefix is True
        assert grid_plan.row_tile == 1
        assert verify_cost(program, grid_plan) == []
        twin = TilePlan(
            rows=64, samples=8, row_tile=1, sample_tile=8, max_amplitudes=element * 512
        )
        assert codes_of(verify_cost(program, twin)) == ["VER203"]

    def test_density_unrunnable_budget_is_ver205_warning(self):
        program, _ = compile_discriminator(16)  # 17-qubit MNIST discriminator
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(6, 24, element, 2**21)
        diagnostics = verify_cost(program, plan)
        assert codes_of(diagnostics) == ["VER205"]
        assert 4**program.num_qubits > 2**21  # the property VER205 encodes

    def test_derived_plans_verify_clean(self):
        program, _ = compile_discriminator(4)
        element = 2**program.num_qubits
        plan = TilePlan.for_circuit_sweep(16, 64, element, element * 64)
        assert verify_cost(program, plan) == []

    def test_undeclared_budget_verifies_vacuously(self):
        program, _ = compile_discriminator(4)
        plan = TilePlan(rows=1024, samples=1024, row_tile=1024, sample_tile=1024)
        assert verify_cost(program, plan) == []

    def test_every_budget_exceeding_corpus_plan_is_rejected(self):
        """No budget violation slips through, across both engines."""
        program, _ = compile_discriminator(8)
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

    def measure(self, num_features, rows, samples, budget_amplitudes):
        program, row = compile_discriminator(num_features)
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
        self, num_features, rows, samples, budget
    ):
        report, measured = self.measure(num_features, rows, samples, budget)
        assert measured > 0
        ratio = report.peak_bytes / measured
        assert 1 / ACCURACY_FACTOR <= ratio <= ACCURACY_FACTOR, (
            f"predicted {report.peak_bytes} vs measured {measured} "
            f"(ratio {ratio:.2f})"
        )


class TestDtypeAwareCost:
    """Peak-bytes predictions track the repro.arrays precision knob."""

    def _report(self):
        program, _ = compile_discriminator(4)
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
        amplitude_term = 3 * double.peak_amplitudes * 16
        assert double.peak_bytes - single.peak_bytes == amplitude_term // 2
        assert single.peak_bytes < double.peak_bytes

    def test_bytes_per_amplitude_serialized(self):
        payload = self._report().to_dict()
        assert payload["bytes_per_amplitude"] == 16
