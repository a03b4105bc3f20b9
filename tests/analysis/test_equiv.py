"""Tests for the translation-validation family (:mod:`repro.analysis.equiv`).

Exercises the fusion legality oracle, the per-rewrite certificates
(VER401/VER402/VER403), the end-to-end translation witness
(VER410/VER411), and the sabotage corpus: every deliberately broken
rewrite must fire its *exact* code, and sound rewrites (including
global-phase-rotated ones) must stay clean.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.cli import _split_select
from repro.analysis.diagnostics import Severity
from repro.analysis.equiv import (
    EQUIV_CODES,
    can_extend_fusion,
    lift_superoperator_kron,
    lift_unitary_kron,
    qubit_permutation_matrix,
    shared_prefix_length,
    verify_fused_step,
    verify_fused_superoperator_plan,
    verify_density_schedule,
    verify_shared_prefix,
    verify_translation,
)
from repro.hardware.calibration import get_calibration
from repro.quantum import gates
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    GateStep,
    SweepProgram,
    gate_noise_superoperator,
)


def fixed(name, qubits, matrix):
    return GateStep(name=name, qubits=tuple(qubits), slots=(), matrix=matrix)


def parametric(name="ry", qubits=(0,), column=0):
    return GateStep(
        name=name, qubits=tuple(qubits), slots=(("column", column, 1.0),), matrix=None
    )


H0 = fixed("h", (0,), gates.HADAMARD)
H1 = fixed("h", (1,), gates.HADAMARD)
T0 = fixed("t", (0,), gates.T_GATE)
T1 = fixed("t", (1,), gates.T_GATE)
X2 = fixed("x", (2,), gates.PAULI_X)
CX01 = fixed("cx", (0, 1), gates.CNOT)
CX12 = fixed("cx", (1, 2), gates.CNOT)


@pytest.fixture(scope="module")
def london():
    return get_calibration("ibmq_london").noise_model()


def fuse(*steps):
    """A correctly fused step (kron-side lift, independent of the pass)."""
    union = tuple(sorted({q for step in steps for q in step.qubits}))
    matrix = None
    for step in steps:
        lifted = lift_unitary_kron(step.matrix, step.qubits, union)
        matrix = lifted if matrix is None else lifted @ matrix
    return GateStep(
        name="fused(" + "+".join(s.name for s in steps) + ")",
        qubits=union,
        slots=(),
        matrix=matrix,
        fused_from=tuple(steps),
    )


class TestPermutationLift:
    def test_permutation_is_orthogonal_and_reorders_bits(self):
        perm = qubit_permutation_matrix([1, 0], [0, 1])
        np.testing.assert_allclose(perm @ perm.T, np.eye(4))
        # |q1=1, q0=0> in (1, 0) order is index 2; in (0, 1) order index 1.
        assert perm[1, 2] == 1.0

    def test_permutation_rejects_mismatched_endpoints(self):
        with pytest.raises(ValueError):
            qubit_permutation_matrix([0, 1], [0, 2])

    def test_lift_unitary_matches_plain_kron_on_leading_qubit(self):
        lifted = lift_unitary_kron(gates.HADAMARD, (0,), (0, 1))
        np.testing.assert_allclose(lifted, np.kron(gates.HADAMARD, np.eye(2)))

    def test_lift_unitary_trailing_qubit(self):
        lifted = lift_unitary_kron(gates.T_GATE, (1,), (0, 1))
        np.testing.assert_allclose(lifted, np.kron(np.eye(2), gates.T_GATE))

    def test_lift_superoperator_identity_channel(self, london):
        channel = gate_noise_superoperator("cx", (0, 1), london)
        lifted = lift_superoperator_kron(channel, (0, 1), (0, 1))
        np.testing.assert_allclose(lifted, channel)


class TestLegalityOracle:
    def test_empty_run_admits_any_fixed_step(self):
        ok, reason = can_extend_fusion([], H0)
        assert ok and reason == ""

    def test_parametric_step_blocks(self):
        ok, reason = can_extend_fusion([H0], parametric())
        assert not ok
        assert "parametric" in reason

    def test_already_fused_step_blocks(self):
        ok, reason = can_extend_fusion([], fuse(H0, T0))
        assert not ok
        assert "provenance" in reason

    def test_disjoint_qubits_block(self):
        ok, reason = can_extend_fusion([H0], X2)
        assert not ok
        assert "overlap" in reason

    def test_width_cap_blocks(self):
        ok, reason = can_extend_fusion([CX01], CX12)
        assert not ok
        assert "max_fused_qubits" in reason
        ok, _ = can_extend_fusion([CX01], CX12, max_fused_qubits=3)
        assert ok

    def test_ideal_overlapping_fixed_steps_fuse(self):
        ok, _ = can_extend_fusion([H0], CX01)
        assert ok
        ok, _ = can_extend_fusion([CX01], H1)
        assert ok

    def test_noise_commutation_admits_phase_gate_after_cx(self, london):
        # 2q depolarizing commutes with anything on the pair, and T's
        # conjugation commutes with amplitude+phase damping.
        ok, _ = can_extend_fusion([CX01], T1, noise_model=london)
        assert ok

    def test_noise_commutation_blocks_h_after_noisy_gate(self, london):
        # H does not commute with the thermal-relaxation channel attached
        # to the preceding single-qubit gate.
        ok, reason = can_extend_fusion([T0], H0, noise_model=london)
        assert not ok
        assert "commute" in reason

    def test_noise_commutation_blocks_cx_after_noisy_h(self, london):
        ok, reason = can_extend_fusion([H0], CX01, noise_model=london)
        assert not ok
        assert "commute" in reason


class TestFusedStepCertificate:
    def test_sound_fusion_is_clean(self):
        assert verify_fused_step(fuse(H0, CX01, T1)) == []

    def test_global_phase_is_tolerated(self):
        step = fuse(H0, CX01)
        rotated = GateStep(
            name=step.name,
            qubits=step.qubits,
            slots=(),
            matrix=np.exp(0.7j) * step.matrix,
            fused_from=step.fused_from,
        )
        assert verify_fused_step(rotated) == []

    def test_unfused_step_is_vacuously_clean(self):
        assert verify_fused_step(H0) == []

    def test_corrupted_matrix_fires_ver401(self):
        step = fuse(H0, CX01)
        corrupted = np.array(step.matrix)
        corrupted[0, 0] += 1e-3
        bad = GateStep(
            name=step.name,
            qubits=step.qubits,
            slots=(),
            matrix=corrupted,
            fused_from=step.fused_from,
        )
        [finding] = verify_fused_step(bad)
        assert finding.code == "VER401"
        assert finding.severity is Severity.ERROR

    def test_wrong_product_order_fires_ver401(self):
        # H then CX, but the matrix multiplies in the opposite order.
        wrong = np.kron(gates.HADAMARD, np.eye(2)) @ gates.CNOT
        bad = GateStep(
            name="fused(h+cx)",
            qubits=(0, 1),
            slots=(),
            matrix=wrong,
            fused_from=(H0, CX01),
        )
        [finding] = verify_fused_step(bad)
        assert finding.code == "VER401"

    def test_parametric_provenance_fires_ver401(self):
        bad = GateStep(
            name="fused(ry+h)",
            qubits=(0,),
            slots=(),
            matrix=gates.HADAMARD,
            fused_from=(parametric(), H0),
        )
        [finding] = verify_fused_step(bad)
        assert finding.code == "VER401"
        assert "parametric" in finding.message

    def test_shape_mismatch_fires_ver401(self):
        bad = GateStep(
            name="fused(h+cx)",
            qubits=(0, 1),
            slots=(),
            matrix=gates.HADAMARD,  # 2x2 instead of 4x4
            fused_from=(H0, CX01),
        )
        [finding] = verify_fused_step(bad)
        assert finding.code == "VER401"
        assert "shape" in finding.message


class TestFoldedSuperoperatorCertificate:
    def fused_plan(self, noise_model, *steps):
        """The engine's actual folded plan for a correctly fused step."""
        step = fuse(*steps)
        engine = DensitySuperoperatorEngine(noise_model)
        return step, engine._fused_superoperator(step)

    def test_engine_fold_is_clean(self, london):
        step, plan = self.fused_plan(london, CX01, T1)
        assert verify_fused_superoperator_plan(step, plan, london) == []

    def test_ideal_fold_is_clean(self):
        ideal = NoiseModel.ideal()
        step, plan = self.fused_plan(ideal, H0, CX01, T1)
        assert verify_fused_superoperator_plan(step, plan, ideal) == []

    def test_dropped_noise_fires_ver402(self, london):
        from repro.quantum.program import conjugation_superoperator

        step = fuse(CX01, T1)
        bare = conjugation_superoperator(step.matrix)
        findings = verify_fused_superoperator_plan(step, bare, london)
        assert findings and {f.code for f in findings} == {"VER402"}

    def test_wrong_noise_model_fires_ver402(self, london):
        step, plan = self.fused_plan(london, CX01, T1)
        findings = verify_fused_superoperator_plan(step, plan, NoiseModel.ideal())
        assert findings and {f.code for f in findings} == {"VER402"}

    def test_non_cptp_fold_fires_ver402(self, london):
        step, plan = self.fused_plan(london, CX01, T1)
        findings = verify_fused_superoperator_plan(step, 1.5 * plan, london)
        assert findings
        assert {f.code for f in findings} == {"VER402"}
        assert any("CPTP" in f.message for f in findings)

    def test_unfused_step_is_vacuously_clean(self, london):
        assert verify_fused_superoperator_plan(CX01, np.eye(16), london) == []


def prefix_program():
    qc = QuantumCircuit(2, 2, name="prefix")
    qc.h(0)
    qc.ry(0.3, 0)
    qc.ry(0.5, 1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    return SweepProgram.compile(qc, bind_floats=True), qc


class TestSharedPrefix:
    def test_prefix_extends_through_constant_columns(self):
        program, _ = prefix_program()
        bindings = np.array([[0.3, 0.5], [0.3, 0.9], [0.3, 0.1]])
        # h is fixed, the first ry reads a row-constant column, the second
        # ry's column varies.
        assert shared_prefix_length(program, bindings) == 2

    def test_all_constant_rows_share_everything(self):
        program, _ = prefix_program()
        bindings = np.tile([[0.3, 0.5]], (4, 1))
        assert shared_prefix_length(program, bindings) == len(program.steps)

    def test_legal_claim_is_clean(self):
        program, _ = prefix_program()
        bindings = np.array([[0.3, 0.5], [0.3, 0.9]])
        assert verify_shared_prefix(program, bindings, 2) == []

    def test_over_claimed_prefix_fires_ver403(self):
        program, _ = prefix_program()
        bindings = np.array([[0.3, 0.5], [0.3, 0.9]])
        [finding] = verify_shared_prefix(program, bindings, 3)
        assert finding.code == "VER403"

    def test_claim_beyond_program_length_fires_ver403(self):
        program, _ = prefix_program()
        bindings = np.array([[0.3, 0.5], [0.3, 0.9]])
        [finding] = verify_shared_prefix(program, bindings, len(program.steps) + 1)
        assert finding.code == "VER403"
        assert "exceeds" in finding.message


def fusable_program():
    qc = QuantumCircuit(3, 3, name="fusable")
    qc.h(0)
    qc.cx(0, 1)
    qc.t(1)
    qc.ry(0.4, 2)
    qc.cx(1, 2)
    qc.s(2)
    qc.measure_all()
    return SweepProgram.compile(qc, bind_floats=True)


class TestTranslationWitness:
    def test_certified_optimization_is_clean(self):
        source = fusable_program()
        optimized = source.optimized()
        assert any(step.fused_from for step in optimized.steps)
        findings = verify_translation(source, optimized)
        assert findings == []

    def test_vacuous_pass_warns_ver411(self):
        source = fusable_program()
        findings = verify_translation(source, source)
        assert [f.code for f in findings] == ["VER411"]
        assert findings[0].severity is Severity.WARNING

    def test_mutated_metadata_fires_ver410(self):
        source = fusable_program()
        optimized = source.optimized()
        optimized.num_qubits += 1
        findings = verify_translation(source, optimized)
        assert any(
            f.code == "VER410" and "num_qubits" in f.message for f in findings
        )

    def test_dropped_step_fires_ver410(self):
        source = fusable_program()
        optimized = source.optimized()
        truncated = optimized._with_steps(optimized.steps[:-1])
        findings = verify_translation(source, truncated)
        assert any(f.code == "VER410" for f in findings)

    def test_fused_step_with_slots_fires_ver410(self):
        source = fusable_program()
        optimized = source.optimized()
        steps = list(optimized.steps)
        index, step = next(
            (i, s) for i, s in enumerate(steps) if s.fused_from
        )
        steps[index] = GateStep(
            name=step.name,
            qubits=step.qubits,
            slots=(("column", 0, 1.0),),
            matrix=step.matrix,
            fused_from=step.fused_from,
        )
        findings = verify_translation(source, optimized._with_steps(steps))
        assert any(f.code == "VER410" and "slots" in f.message for f in findings)

    def test_provenance_union_mismatch_fires_ver410(self):
        source = fusable_program()
        optimized = source.optimized()
        steps = list(optimized.steps)
        index, step = next((i, s) for i, s in enumerate(steps) if s.fused_from)
        steps[index] = GateStep(
            name=step.name,
            qubits=step.qubits,
            slots=(),
            matrix=step.matrix,
            fused_from=step.fused_from[:-1],
        )
        findings = verify_translation(source, optimized._with_steps(steps))
        assert any(f.code == "VER410" for f in findings)

    def test_swapped_source_matrix_fires_ver410(self):
        source = fusable_program()
        optimized = source.optimized()
        steps = list(optimized.steps)
        index, step = next((i, s) for i, s in enumerate(steps) if s.fused_from)
        doctored = tuple(
            GateStep(
                name=sub.name,
                qubits=sub.qubits,
                slots=sub.slots,
                matrix=np.array(sub.matrix) * np.exp(0.3j),
                fused_from=None,
            )
            for sub in step.fused_from
        )
        steps[index] = GateStep(
            name=step.name,
            qubits=step.qubits,
            slots=(),
            matrix=step.matrix,
            fused_from=doctored,
        )
        findings = verify_translation(source, optimized._with_steps(steps))
        assert any(f.code == "VER410" and "matrix" in f.message for f in findings)


def barriered_program():
    """h/t on qubit 0, a declared barrier, then h/t on qubit 1."""
    qc = QuantumCircuit(2, 2, name="barriered")
    qc.h(0)
    qc.t(0)
    qc.barrier(0, 1)
    qc.h(1)
    qc.t(1)
    qc.measure_all()
    return SweepProgram.compile(qc, bind_floats=True)


class TestFusionBarriers:
    def test_compile_records_barrier_positions(self):
        program = barriered_program()
        assert program.fusion_barriers == (2,)

    def test_optimizer_flushes_at_barriers(self):
        program = barriered_program()
        optimized = program.optimized()
        assert verify_translation(program, optimized) == []
        position = 0
        for step in optimized.steps:
            span = len(step.fused_from) if step.fused_from else 1
            assert not any(
                position < barrier < position + span
                for barrier in program.fusion_barriers
            )
            position += span

    def test_cross_barrier_fusion_fires_ver404(self):
        """Sabotage: hand-fuse the steps on either side of the barrier.

        The fused matrix is algebraically sound (disjoint qubits), so every
        other certificate stays clean — only the barrier straddle must fire,
        with its exact code.
        """
        program = barriered_program()
        steps = program.steps
        sabotaged = program._with_steps(
            (steps[0], fuse(steps[1], steps[2]), steps[3])
        )
        findings = verify_translation(program, sabotaged)
        assert [finding.code for finding in findings] == ["VER404"]

    def test_grid_discriminator_fusion_respects_the_seam(self):
        """The whole-grid program's trained/encoder barrier survives fusion.

        Goes through the transpiled symbolic template (as the noisy grid
        path does): basis decomposition produces fixed steps that actually
        fuse, and routing must carry the seam barrier through to the
        compiled program.
        """
        from repro.core.model import QuClassi
        from repro.quantum.transpiler import TranspileCache

        builder = QuClassi(
            num_features=4, num_classes=2, architecture="s", seed=7
        ).builder
        entry = TranspileCache().symbolic_template(
            builder.symbolic_discriminator(), builder.grid_parameters
        )
        source = entry.ensure_program(optimize=False)
        assert source.fusion_barriers  # the seam barrier survived transpile
        optimized = source.optimized()
        assert any(step.fused_from for step in optimized.steps)
        assert optimized.fusion_barriers == source.fusion_barriers
        assert verify_translation(source, optimized) == []


class TestDensitySchedule:
    """VER406: the layout-scheduled density engine vs per-state evolution."""

    def program_and_bindings(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 2).rz(0.3, 2).h(2).cx(1, 0).ry(0.7, 1).cswap(2, 0, 1)
        qc.measure_all()
        program = SweepProgram.compile(qc, bind_floats=True)
        bindings = np.random.default_rng(3).uniform(0, np.pi, size=(2, program.num_columns))
        return program, bindings

    def test_scheduled_engine_certifies_clean(self, london):
        program, bindings = self.program_and_bindings()
        assert verify_density_schedule(program, bindings, london) == []

    def test_a_wrong_block_order_is_ver406(self, london, monkeypatch):
        from repro.quantum.batched_density import LayoutStep

        program, bindings = self.program_and_bindings()
        real = LayoutStep.physical
        monkeypatch.setattr(
            LayoutStep, "physical", lambda self, superop: real(self, superop)[..., ::-1, ::-1]
        )
        findings = verify_density_schedule(program, bindings, london)
        assert [finding.code for finding in findings] == ["VER406"]
        assert "differs from the per-state DensityMatrix reference" in findings[0].message
        assert program.name in findings[0].location.render()


class TestReferenceEquivalence:
    def test_reference_suite_certifies_clean(self):
        from repro.analysis.equiv import verify_reference_equivalence

        assert verify_reference_equivalence() == []


class TestCliIntegration:
    def test_split_select_carves_three_families(self):
        lint, flow, equiv = _split_select("VER401,REP101,REP001")
        assert lint == ("REP001",)
        assert flow == ("REP101",)
        assert equiv == ("VER401",)

    def test_split_select_none_runs_everything(self):
        assert _split_select(None) == (None, None, None)

    def test_every_equiv_code_is_selectable(self):
        for code in EQUIV_CODES:
            _, _, equiv = _split_select(code)
            assert equiv == (code,)

    def test_select_equiv_without_verify_runs_nothing(self, tmp_path):
        # The reference equivalence suite only runs under --verify;
        # selecting a VER4xx code alone is an empty (clean) run.
        target = tmp_path / "empty.py"
        target.write_text("x = 1\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                str(target),
                "--select",
                "VER401",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
