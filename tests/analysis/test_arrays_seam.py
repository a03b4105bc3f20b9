"""Tests for the :mod:`repro.arrays` seam and its precision contract.

Unit layer: the precision knob, the configured-dtype accessors, the
no-copy guarantee in double mode, and the float64 sampling upcast.
End-to-end layer (``TestSinglePrecisionEndToEnd``): the documented
tolerance from ``docs/array_backend.md`` — a single-precision run of the
Iris reference sweeps (analytic discriminator fidelities, and a noisy
density sweep through a compiled ``SweepProgram``) matches the
double-precision reference within ``arrays.sweep_atol()`` = 5e-4.
"""

import numpy as np
import pytest

from repro import arrays
from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import AnalyticFidelityEstimator
from repro.encoding import DualAngleEncoder
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
)


@pytest.fixture(autouse=True)
def restore_precision():
    before = arrays.get_precision()
    yield
    arrays.set_precision(before)


class TestPrecisionKnob:
    def test_default_is_double(self):
        assert arrays.get_precision() == "double"
        assert arrays.complex_dtype() == np.complex128
        assert arrays.real_dtype() == np.float64
        assert arrays.complex_itemsize() == 16
        assert arrays.sweep_atol() == 0.0

    def test_single_mode_flips_every_accessor(self):
        arrays.set_precision("single")
        assert arrays.complex_dtype() == np.complex64
        assert arrays.real_dtype() == np.float32
        assert arrays.complex_itemsize() == 8
        assert arrays.state_atol() == pytest.approx(1e-4)
        assert arrays.sweep_atol() == pytest.approx(5e-4)

    def test_context_manager_restores(self):
        with arrays.precision("single"):
            assert arrays.get_precision() == "single"
        assert arrays.get_precision() == "double"

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with arrays.precision("single"):
                raise RuntimeError("boom")
        assert arrays.get_precision() == "double"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            arrays.set_precision("half")

    def test_canonical_constants_ignore_the_knob(self):
        arrays.set_precision("single")
        assert arrays.COMPLEX_DTYPE == np.complex128
        assert arrays.REAL_DTYPE == np.float64


class TestAllocationAndCasts:
    def test_zeros_and_eye_follow_configured_dtype(self):
        assert arrays.zeros((2, 4)).dtype == np.complex128
        assert arrays.eye(4).dtype == np.complex128
        with arrays.precision("single"):
            assert arrays.zeros((2, 4)).dtype == np.complex64
            assert arrays.eye(4).dtype == np.complex64

    def test_as_complex_is_no_copy_at_matching_dtype(self):
        state = np.zeros(8, dtype=np.complex128)
        assert arrays.as_complex(state) is state

    def test_as_complex_downcasts_under_single(self):
        state = np.zeros(8, dtype=np.complex128)
        with arrays.precision("single"):
            cast = arrays.as_complex(state)
        assert cast.dtype == np.complex64
        assert cast is not state

    def test_as_real_follows_knob(self):
        values = np.linspace(0.0, 1.0, 5)
        assert arrays.as_real(values).dtype == np.float64
        with arrays.precision("single"):
            assert arrays.as_real(values).dtype == np.float32


class TestKernelWrappers:
    def test_wrappers_match_numpy_in_double(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(arrays.matmul(a, b), np.matmul(a, b))
        np.testing.assert_array_equal(arrays.kron(a, b), np.kron(a, b))
        np.testing.assert_array_equal(
            arrays.einsum("ij,jk->ik", a, b), np.einsum("ij,jk->ik", a, b)
        )
        assert arrays.vdot(a[0], b[0]) == np.vdot(a[0], b[0])
        assert arrays.trace(a) == np.trace(a)
        assert arrays.norm(a[0]) == np.linalg.norm(a[0])

    def test_multinomial_upcasts_float32_pvals(self):
        # numpy validates pvals in double; a float32 vector whose sum
        # rounds above 1.0 raises.  The seam owns the upcast so sampling
        # is insensitive to the precision knob.
        pvals = np.full(10, 0.1, dtype=np.float32)
        counts = arrays.multinomial(np.random.default_rng(3), 1000, pvals)
        assert counts.sum() == 1000
        reference = np.random.default_rng(3).multinomial(
            1000, pvals.astype(np.float64)
        )
        np.testing.assert_array_equal(counts, reference)


def make_builder(num_features=4, architecture="s"):
    encoder = DualAngleEncoder()
    stack = LayerStack.from_architecture(
        architecture, encoder.num_qubits(num_features)
    )
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


def sweep_circuit(angles):
    qc = QuantumCircuit(3, 1)
    qc.h(0)
    qc.ry(angles[0], 1)
    qc.rz(angles[1], 1)
    qc.ry(angles[2], 2)
    qc.rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def composing_circuit():
    """A sweep whose density schedule folds ``t(0)`` and ``cx(1, 0)`` into ``cx(0, 1)``."""
    qc = QuantumCircuit(3, 1).h(0).cx(0, 1).t(0).cx(1, 0)
    return qc.compose(sweep_circuit(np.full(4, 0.3)))


class TestSinglePrecisionEndToEnd:
    """The documented complex64-vs-complex128 tolerance on Iris sweeps."""

    def _analytic_fidelities(self):
        builder = make_builder()
        parameters = np.random.default_rng(1).uniform(
            0.0, np.pi, builder.num_parameters
        )
        samples = np.random.default_rng(2).uniform(0.05, 0.95, (6, 4))
        return AnalyticFidelityEstimator(builder).fidelities(parameters, samples)

    def test_analytic_iris_sweep_within_documented_atol(self):
        reference = self._analytic_fidelities()
        with arrays.precision("single"):
            single = self._analytic_fidelities()
            atol = arrays.sweep_atol()
        assert single.shape == reference.shape
        np.testing.assert_allclose(single, reference, atol=atol, rtol=0.0)

    def _noisy_zero_probabilities(self):
        rng = np.random.default_rng(11)
        bindings = rng.uniform(0.0, np.pi, (5, 4))
        program = SweepProgram.compile(
            sweep_circuit(bindings[0]), bind_floats=True, name="noisy-sweep"
        )
        noise = NoiseModel.from_error_rates(0.01, 0.02, readout_error=0.03)
        engine = DensitySuperoperatorEngine(noise)
        return program.execute(bindings, engine)

    def test_noisy_density_sweep_within_documented_atol(self):
        reference = self._noisy_zero_probabilities()
        with arrays.precision("single"):
            single = self._noisy_zero_probabilities()
            atol = arrays.sweep_atol()
        assert single.shape == reference.shape
        np.testing.assert_allclose(single, reference, atol=atol, rtol=0.0)

    def test_double_mode_is_bit_identical_across_calls(self):
        # sweep_atol() == 0.0 in double is a real promise: the default
        # mode is the seed behaviour, not merely close to it.
        first = self._noisy_zero_probabilities()
        second = self._noisy_zero_probabilities()
        np.testing.assert_array_equal(first, second)

    def test_single_mode_states_are_actually_complex64(self):
        # The run-time form of the complex64 promotion contract: every
        # engine, on plain programs and on density programs whose schedule
        # composes runs of fixed steps, keeps its state buffers at the
        # configured precision (a hard complex128 operand anywhere in a
        # kernel chain would promote them back).
        noise = NoiseModel.from_error_rates(0.01, 0.02, readout_error=0.03)
        plain = SweepProgram.compile(
            sweep_circuit(np.full(4, 0.3)), bind_floats=True, name="dtype-probe"
        )
        composed = SweepProgram.compile(
            composing_circuit(), bind_floats=True, name="dtype-probe-composed"
        )
        assert None in DensitySuperoperatorEngine(noise).step_plans(composed)
        bindings = np.full((2, 4), 0.3)
        with arrays.precision("single"):
            states = [
                program.evolve(bindings, StatevectorEngine()).amplitudes
                for program in (plain, composed)
            ] + [
                program.evolve(bindings, DensitySuperoperatorEngine(noise)).matrices
                for program in (plain, composed)
            ]
        assert [state.dtype for state in states] == [np.complex64] * 4


class TestSinglePrecisionCertificates:
    """Certified routes run, and agree with double, under ``single``.

    Plan-time operators (precomposed superoperators and the composed runs
    of the density schedule) stay canonical complex128 whatever the knob
    says, so their 1e-8 certificates (VER130 on every density step plan
    under ``REPRO_VERIFY=1``) hold; only the per-tile operands are cast to
    the configured dtype.
    """

    NOISE = NoiseModel.from_error_rates(0.01, 0.02, readout_error=0.03)

    def _probabilities(self, engine_kind):
        program = SweepProgram.compile(
            composing_circuit(), bind_floats=True, name=f"certified-{engine_kind}"
        )
        if engine_kind == "sv":
            engine = StatevectorEngine()
        else:
            engine = DensitySuperoperatorEngine(
                self.NOISE if engine_kind == "dm-noisy" else None
            )
            plans = engine.step_plans(program)
            assert None in plans
            assert all(
                plan.operator.dtype == np.complex128
                for plan in plans
                if plan is not None and plan.operator is not None
            )
        bindings = np.random.default_rng(5).uniform(0.0, np.pi, (4, 4))
        return program.execute(bindings, engine)

    @pytest.mark.parametrize("engine_kind", ["sv", "dm-ideal", "dm-noisy"])
    def test_full_verification_holds_in_single_mode(self, engine_kind, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        reference = self._probabilities(engine_kind)
        with arrays.precision("single"):
            single = self._probabilities(engine_kind)
            atol = arrays.sweep_atol()
        assert single.shape == reference.shape
        np.testing.assert_allclose(single, reference, atol=atol, rtol=0.0)
