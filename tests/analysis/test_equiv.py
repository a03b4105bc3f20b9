"""Tests for the equivalence-certificate family (:mod:`repro.analysis.equiv`).

Exercises the independent kron/permutation lift, the shared-prefix
certificate (VER403), the composed density schedule against the per-state
reference (VER406), the observable readout against the per-state measured
marginal (VER407), the reference suite and the CLI's ``--select``
integration: a deliberately broken plan must fire its *exact* code, and
sound plans must stay clean.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.cli import _split_select
from repro.analysis.equiv import (
    EQUIV_CODES,
    lift_unitary_kron,
    qubit_permutation_matrix,
    shared_prefix_length,
    verify_density_schedule,
    verify_observable_readout,
    verify_shared_prefix,
)
from repro.hardware.calibration import get_calibration
from repro.quantum import gates
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import SweepProgram


@pytest.fixture(scope="module")
def london():
    return get_calibration("ibmq_london").noise_model()


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


    def folding_program(self):
        """Runs of fixed steps the schedule folds, and one a transpose breaks."""
        qc = QuantumCircuit(4, 4)
        qc.cx(0, 1).cx(1, 0).h(0).h(3).cx(0, 1).t(0).ry(0.4, 2)
        qc.measure_all()
        program = SweepProgram.compile(qc, bind_floats=True)
        bindings = np.random.default_rng(5).uniform(0, np.pi, size=(3, program.num_columns))
        return program, bindings

    def test_composed_runs_certify_clean(self, london):
        from repro.quantum.program import density_schedule

        program, bindings = self.folding_program()
        _, heads = density_schedule(program)
        assert [index for index, head in enumerate(heads) if head != index] == [1, 2, 5]
        assert verify_density_schedule(program, bindings, london) == []

    def test_a_run_folded_across_a_transpose_fails_closed(self, london, monkeypatch):
        from repro.exceptions import SimulationError
        from repro.quantum import program as program_module

        program, bindings = self.folding_program()
        real = program_module.density_schedule

        def across_the_transpose(target):
            entries, heads = real(target)
            # cx(0, 1) after h(3) needs a transpose; fold its run anyway.
            return entries, heads[:4] + (0, 0) + heads[6:]

        monkeypatch.setattr(program_module, "density_schedule", across_the_transpose)
        # The skipped transpose leaves the stack in another axis order, and
        # the next dispatched step's layout guard refuses to contract it.
        with pytest.raises(SimulationError, match="layout step planned for axis order"):
            verify_density_schedule(program, bindings, london)


class TestObservableReadout:
    """VER407: the folded-tail readout vs the per-state measured marginal."""

    def program_and_bindings(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(3, 2)
        qc.ry(theta, 0).h(1).cx(0, 1).rz(0.3, 1).h(2).cx(1, 2).cswap(2, 0, 1).cx(0, 2)
        qc.measure(2, 0)
        qc.measure(0, 1)
        program = SweepProgram.compile(qc, bind_floats=False)
        bindings = np.random.default_rng(4).uniform(0, np.pi, size=(3, 1))
        return program, bindings

    def test_observable_readout_certifies_clean(self, london):
        from repro.quantum.program import DensitySuperoperatorEngine

        program, bindings = self.program_and_bindings()
        engine = DensitySuperoperatorEngine(london)
        readout = engine.readout_plan(program)
        assert readout.split == 1 and readout.observable is not None
        assert verify_observable_readout(program, bindings, london) == []

    def test_a_tail_plan_dropped_from_the_walk_is_ver407(self, london, monkeypatch):
        from repro.quantum.program import DensitySuperoperatorEngine

        program, bindings = self.program_and_bindings()
        real = DensitySuperoperatorEngine._fold_tail

        def drop_one(self, target, plans):
            # The last dispatched tail step that moves no axes: skipping it
            # keeps every layout consistent and only loses its operator.
            index = max(
                i for i, plan in enumerate(plans)
                if plan is not None and plan.layout.transpose is None
            )
            return real(self, target, plans[:index] + (None,) + plans[index + 1:])

        monkeypatch.setattr(DensitySuperoperatorEngine, "_fold_tail", drop_one)
        findings = verify_observable_readout(program, bindings, london)
        assert [finding.code for finding in findings] == ["VER407"]
        assert findings[0].message.startswith(
            "observable readout (observable: steps [1, 8) fold into 4 readout "
            "row(s)) differs from the per-state DensityMatrix marginal by "
        )
        assert program.name in findings[0].location.render()


class TestReferenceEquivalence:
    def test_reference_suite_certifies_clean(self):
        from repro.analysis.equiv import verify_reference_equivalence

        assert verify_reference_equivalence() == []


class TestCliIntegration:
    def test_split_select_carves_two_families(self):
        lint, equiv = _split_select("VER406,REP104,REP001")
        assert lint == ("REP104", "REP001")
        assert equiv == ("VER406",)

    def test_split_select_none_runs_everything(self):
        assert _split_select(None) == (None, None)

    def test_every_equiv_code_is_selectable(self):
        for code in EQUIV_CODES:
            _, equiv = _split_select(code)
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
                "VER403",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
