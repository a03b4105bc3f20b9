"""Malformed-IR corpus for the static verifier (:mod:`repro.analysis.verify`).

Every fixture here is a *hand-built* program/circuit/plan — the
:class:`SweepProgram` constructor is used directly so the corpus can encode
defects :meth:`SweepProgram.compile` (which runs the verifier) would refuse
to produce.  Each test asserts the exact diagnostic code and location the
verifier must emit for that defect.
"""

import numpy as np
import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.verify import (
    full_verification_enabled,
    step_plan_diagnostics,
    verify_channel,
    verify_circuit,
    verify_program,
    verify_superoperator,
    verify_tile_plan,
)
from repro.exceptions import SimulationError
from repro.quantum.batched_density import conjugation_superoperator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import HADAMARD, I2
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    GateStep,
    SweepProgram,
    TilePlan,
)


def make_program(
    *,
    steps,
    num_qubits=3,
    num_clbits=1,
    measured_qubits=(0,),
    clbits=(0,),
    num_columns=0,
    name="corpus",
):
    """Hand-built program, bypassing compile() and therefore the verifier."""
    return SweepProgram(
        num_qubits=num_qubits,
        num_clbits=num_clbits,
        steps=steps,
        measured_qubits=measured_qubits,
        clbits=clbits,
        num_columns=num_columns,
        parameters=(),
        column_sites=(),
        name=name,
    )


def fixed_step(name="h", qubits=(0,), matrix=HADAMARD):
    return GateStep(name=name, qubits=qubits, slots=(), matrix=matrix)


def parametric_step(column, qubits=(1,), coeff=1.0):
    return GateStep(
        name="ry", qubits=qubits, slots=(("column", column, coeff),), matrix=None
    )


def codes(diagnostics):
    return [d.code for d in diagnostics]


# --------------------------------------------------------------------------- #
# VER101 / VER102 / VER103 — bind sites vs bindings
# --------------------------------------------------------------------------- #


class TestBindSiteChecks:
    def test_out_of_range_bind_column_is_ver101(self):
        program = make_program(steps=[parametric_step(column=5)], num_columns=2)
        findings = verify_program(program, level="cheap")
        ver101 = [d for d in findings if d.code == "VER101"]
        assert len(ver101) == 1
        assert "column 5" in ver101[0].message
        assert "step 0 (ry)" in ver101[0].location.render()

    def test_negative_bind_column_is_ver101(self):
        program = make_program(steps=[parametric_step(column=-1)], num_columns=2)
        assert "VER101" in codes(verify_program(program, level="cheap"))

    def test_uncovered_parametric_site_is_ver102(self):
        program = make_program(
            steps=[parametric_step(column=0), parametric_step(column=2, qubits=(2,))],
            num_columns=3,
        )
        bindings = np.zeros((4, 2))  # column 2 missing
        findings = verify_program(program, bindings=bindings, level="cheap")
        ver102 = [d for d in findings if d.code == "VER102"]
        assert len(ver102) == 1
        assert "[2]" in ver102[0].message

    def test_bindings_width_mismatch_is_ver102(self):
        program = make_program(steps=[parametric_step(column=0)], num_columns=1)
        findings = verify_program(program, bindings=np.zeros((2, 4)), level="cheap")
        assert "VER102" in codes(findings)

    def test_non_2d_bindings_is_ver102(self):
        program = make_program(steps=[parametric_step(column=0)], num_columns=1)
        findings = verify_program(program, bindings=np.zeros(3), level="cheap")
        assert "VER102" in codes(findings)

    def test_unread_column_is_ver103_warning(self):
        program = make_program(steps=[parametric_step(column=0)], num_columns=2)
        findings = verify_program(program, level="cheap")
        ver103 = [d for d in findings if d.code == "VER103"]
        assert len(ver103) == 1
        assert ver103[0].severity is Severity.WARNING

    def test_matching_bindings_are_clean(self):
        program = make_program(
            steps=[fixed_step(), parametric_step(column=0)], num_columns=1
        )
        assert verify_program(program, bindings=np.zeros((3, 1))) == []


# --------------------------------------------------------------------------- #
# VER110 / VER111 / VER120 / VER121 — steps and read-out
# --------------------------------------------------------------------------- #


class TestStepChecks:
    def test_qubit_out_of_register_is_ver110(self):
        program = make_program(steps=[fixed_step(qubits=(7,))])
        findings = verify_program(program, level="cheap")
        assert "VER110" in codes(findings)

    def test_duplicate_qubit_is_ver110(self):
        cx = np.eye(4)
        program = make_program(steps=[fixed_step(name="cx", qubits=(1, 1), matrix=cx)])
        assert "VER110" in codes(verify_program(program, level="cheap"))

    def test_measured_qubit_out_of_register_is_ver111(self):
        program = make_program(steps=[fixed_step()], measured_qubits=(9,))
        assert "VER111" in codes(verify_program(program, level="cheap"))

    def test_clbit_count_mismatch_is_ver111(self):
        program = make_program(
            steps=[fixed_step()], measured_qubits=(0, 1), clbits=(0,), num_clbits=2
        )
        assert "VER111" in codes(verify_program(program, level="cheap"))

    def test_non_unitary_fixed_matrix_is_ver120_at_full_level(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        program = make_program(steps=[fixed_step(matrix=bad)])
        assert verify_program(program, level="cheap") == []  # numeric check is full-only
        findings = verify_program(program, level="full")
        ver120 = [d for d in findings if d.code == "VER120"]
        assert len(ver120) == 1
        assert "not unitary" in ver120[0].message

    def test_wrong_shape_fixed_matrix_is_ver120(self):
        program = make_program(
            steps=[fixed_step(name="cx", qubits=(0, 1), matrix=HADAMARD)]
        )
        assert "VER120" in codes(verify_program(program, level="full"))

    def test_fixed_step_reading_columns_is_ver121(self):
        step = GateStep(
            name="ry", qubits=(0,), slots=(("column", 0, 1.0),), matrix=HADAMARD
        )
        program = make_program(steps=[step], num_columns=1)
        assert "VER121" in codes(verify_program(program, level="cheap"))

    def test_parametric_step_without_columns_is_ver121(self):
        step = GateStep(name="ry", qubits=(0,), slots=(("value", 0.5),), matrix=None)
        program = make_program(steps=[step])
        assert "VER121" in codes(verify_program(program, level="cheap"))


# --------------------------------------------------------------------------- #
# VER130 / VER131 — channels and superoperators
# --------------------------------------------------------------------------- #


class TestChannelChecks:
    def test_valid_unitary_superoperator_is_clean(self):
        superop = conjugation_superoperator(HADAMARD)
        assert verify_superoperator(superop, 1) == []

    def test_incomplete_kraus_superoperator_is_ver130(self):
        # A single damped Kraus operator: sum K^dag K = 0.25 I != I.
        superop = conjugation_superoperator(0.5 * I2)
        findings = verify_superoperator(superop, 1)
        assert codes(findings) == ["VER130"]
        assert "trace preserving" in findings[0].message

    def test_transpose_map_is_ver131_not_cp(self):
        # The transpose map: TP (trace row is the identity) but famously not
        # CP — its Choi matrix is the SWAP operator, eigenvalue -1.
        dim = 2
        transpose_map = np.zeros((4, 4), dtype=complex)
        for r in range(dim):
            for rp in range(dim):
                for c in range(dim):
                    for cp in range(dim):
                        transpose_map[r * dim + rp, c * dim + cp] = float(
                            (r, rp) == (cp, c)
                        )
        findings = verify_superoperator(transpose_map, 1)
        assert codes(findings) == ["VER131"]
        assert "completely positive" in findings[0].message

    def test_wrong_shape_superoperator_is_ver130(self):
        assert codes(verify_superoperator(np.eye(3), 1)) == ["VER130"]

    def test_valid_kraus_channel_is_clean(self):
        from repro.quantum.noise import depolarizing_kraus

        assert verify_channel(depolarizing_kraus(0.1, 1)) == []

    def test_incomplete_kraus_channel_is_ver130(self):
        findings = verify_channel([0.5 * I2], name="damped identity")
        assert codes(findings) == ["VER130"]
        assert findings[0].location.render() == "damped identity"

    def test_mismatched_kraus_dimensions_is_ver130(self):
        assert codes(verify_channel([I2, np.eye(4)])) == ["VER130"]

    def test_empty_channel_is_ver130(self):
        assert codes(verify_channel([])) == ["VER130"]

    def test_non_cptp_noise_model_composition_is_flagged(self):
        """A full-level program check catches a bad channel smuggled past add_*."""
        from repro.quantum.noise import NoiseModel

        model = NoiseModel()
        # Bypass the mutation-time guard the way a pickled/patched model could.
        model._default_errors.setdefault(1, []).append([0.5 * I2])
        model._version += 1
        program = make_program(steps=[fixed_step()])
        findings = verify_program(program, noise_model=model, level="full")
        assert "VER130" in codes(findings)


class TestStepPlanChecks:
    """A density engine's precomposed plans: complex ``(4**k, 4**k)`` CPTP."""

    def plans(self):
        from repro.quantum.noise import NoiseModel

        program = make_program(
            steps=[fixed_step(), parametric_step(0)], num_columns=1
        )
        engine = DensitySuperoperatorEngine(NoiseModel.from_error_rates(0.01, 0.02))
        return program, list(engine.step_plans(program))

    def test_engine_plans_are_clean(self):
        program, plans = self.plans()
        assert step_plan_diagnostics(program, plans) == []

    def test_foreign_block_plan_is_ver130(self):
        program, plans = self.plans()
        plans[0] = ("fixed", np.eye(16, dtype=complex))  # 2-qubit block, 1q step
        findings = step_plan_diagnostics(program, plans)
        assert codes(findings) == ["VER130"]
        assert "step 0" in findings[0].location.render()

    def test_real_plan_is_ver130(self):
        program, plans = self.plans()
        plans[1] = ("parametric", plans[1][1].real)
        findings = step_plan_diagnostics(program, plans)
        assert codes(findings) == ["VER130"]
        assert "complex" in findings[0].message


# --------------------------------------------------------------------------- #
# VER140 / VER141 — tile plans
# --------------------------------------------------------------------------- #


class _GappyPlan(TilePlan):
    """Tile enumeration that skips one grid element (an under-covering plan)."""

    def flat_tiles(self):
        yield 0, 2
        yield 3, self.rows * self.samples  # element 2 never executed


class _OverlappingPlan(TilePlan):
    """Tile enumeration that executes one grid element twice."""

    def flat_tiles(self):
        yield 0, 3
        yield 2, self.rows * self.samples


class _ShortPlan(TilePlan):
    """Tile enumeration that stops before the end of the grid."""

    def flat_tiles(self):
        yield 0, self.rows * self.samples - 1


class TestTilePlanChecks:
    def test_derived_plans_partition_exactly(self):
        for rows, samples in [(1, 1), (3, 4), (10, 7), (2, 100)]:
            plan = TilePlan.for_circuit_sweep(
                rows, samples, element_amplitudes=8, max_amplitudes=64
            )
            assert verify_tile_plan(plan) == []

    def test_gap_is_ver140(self):
        plan = _GappyPlan(rows=2, samples=3, row_tile=1, sample_tile=3)
        findings = verify_tile_plan(plan)
        assert codes(findings) == ["VER140"]
        assert "skips" in findings[0].message

    def test_overlap_is_ver140(self):
        plan = _OverlappingPlan(rows=2, samples=3, row_tile=1, sample_tile=3)
        findings = verify_tile_plan(plan)
        assert codes(findings) == ["VER140"]
        assert "overlaps" in findings[0].message

    def test_under_coverage_is_ver140(self):
        plan = _ShortPlan(rows=2, samples=3, row_tile=1, sample_tile=3)
        findings = verify_tile_plan(plan)
        assert codes(findings) == ["VER140"]
        assert "cover 5 element(s) of a 6-element grid" in findings[0].message

    def test_declared_grid_mismatch_is_ver140(self):
        plan = TilePlan(rows=2, samples=3, row_tile=2, sample_tile=3)
        findings = verify_tile_plan(plan, expected_rows=4, expected_samples=5)
        assert codes(findings).count("VER140") >= 2

    def test_over_budget_tile_is_ver141_warning(self):
        plan = TilePlan(rows=4, samples=4, row_tile=4, sample_tile=4, max_amplitudes=8)
        findings = verify_tile_plan(plan, element_amplitudes=8)
        ver141 = [d for d in findings if d.code == "VER141"]
        assert len(ver141) == 1
        assert ver141[0].severity is Severity.WARNING

    def test_plan_bindings_row_mismatch_is_ver140(self):
        program = make_program(
            steps=[fixed_step(), parametric_step(column=0)], num_columns=1
        )
        plan = TilePlan.for_circuit_sweep(3, 2, element_amplitudes=8, max_amplitudes=64)
        findings = verify_program(
            program, bindings=np.zeros((4, 1)), tile_plan=plan, level="cheap"
        )
        ver140 = [d for d in findings if d.code == "VER140"]
        assert len(ver140) == 1
        assert "6 grid element(s)" in ver140[0].message


# --------------------------------------------------------------------------- #
# VER150 — deferred measurement, as structured diagnostics
# --------------------------------------------------------------------------- #


class TestCircuitChecks:
    def test_clean_circuit_yields_nothing(self):
        qc = QuantumCircuit(2, 1, name="ok")
        qc.h(0).cx(0, 1)
        qc.measure(0, 0)
        assert verify_circuit(qc) == []

    def test_mid_circuit_measurement_is_ver150(self):
        qc = QuantumCircuit(2, 2, name="midmeas")
        qc.h(0)
        qc.measure(0, 0)
        qc.h(0)  # operates on a measured qubit
        findings = verify_circuit(qc)
        assert codes(findings) == ["VER150"]
        assert "already-measured" in findings[0].message
        assert "instruction 2 (h)" in findings[0].location.render()

    def test_double_measurement_is_ver150(self):
        qc = QuantumCircuit(1, 2, name="twice")
        qc.measure(0, 0)
        qc.measure(0, 1)
        findings = verify_circuit(qc)
        assert codes(findings) == ["VER150"]
        assert "measured more than once" in findings[0].message

    def test_every_violation_reported_not_just_first(self):
        qc = QuantumCircuit(2, 2, name="multi")
        qc.measure(0, 0)
        qc.h(0)
        qc.h(0)
        assert codes(verify_circuit(qc)) == ["VER150", "VER150"]

    def test_compile_rejects_program_level_defects(self):
        """The compile() hook aborts on what the verifier flags."""
        qc = QuantumCircuit(2, 2, name="midmeas")
        qc.h(0)
        qc.measure(0, 0)
        qc.h(0)
        with pytest.raises(SimulationError):
            SweepProgram.compile(qc, bind_floats=True)


# --------------------------------------------------------------------------- #
# The figure suite verifies clean
# --------------------------------------------------------------------------- #


class TestReferenceWorkloads:
    """The one figure-suite fixture the verifier, cost model and equivalence
    checker share."""

    def test_yields_the_figure_suite_in_order(self):
        from repro.analysis.verify import reference_workloads

        labels = [label for label, *_ in reference_workloads()]
        assert labels == ["iris-s", "iris-d", "iris-e", "mnist-s"]

    @pytest.mark.parametrize("label", ["iris-s", "iris-d", "iris-e", "mnist-s"])
    def test_values_do_not_depend_on_the_subset(self, label):
        from repro.analysis.verify import reference_workloads

        full = {name: (v, f) for name, _, v, f in reference_workloads()}
        ((name, _, values, features),) = reference_workloads((label,))
        assert name == label
        np.testing.assert_array_equal(values, full[label][0])
        np.testing.assert_array_equal(features, full[label][1])

    @pytest.mark.parametrize(
        "label, num_features, architecture",
        [("iris-s", 4, "s"), ("iris-d", 4, "d"), ("iris-e", 4, "e"), ("mnist-s", 8, "s")],
    )
    def test_workload_matches_its_discriminator(self, label, num_features, architecture):
        from repro.analysis.verify import reference_workloads
        from repro.core.model import QuClassi

        ((_, builder, values, features),) = reference_workloads((label,))
        expected = QuClassi(
            num_features=num_features, num_classes=2, architecture=architecture, seed=2022
        ).builder
        assert builder.parameters == expected.parameters
        assert values.shape == (len(builder.parameters),)
        assert features.shape == (num_features,)
        assert np.all((values >= 0.0) & (values <= np.pi))
        assert np.all((features >= 0.05) & (features <= 1.0))


class TestReferenceSuite:
    def test_reference_suite_is_clean(self):
        from repro.analysis.verify import verify_reference_suite

        findings = verify_reference_suite()
        assert findings == [], "\n".join(d.format() for d in findings)

    def test_env_flag_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
        ]:
            monkeypatch.setenv("REPRO_VERIFY", value)
            assert full_verification_enabled() is expected
        monkeypatch.delenv("REPRO_VERIFY")
        assert full_verification_enabled() is False
