"""Tests for the certified plan-time fusion pass (:meth:`SweepProgram.optimized`).

The headline guarantee: with fusion enabled, both engines produce the
same numbers as the unfused program — probabilities to float tolerance
and *sampled counts bit-identically* (the stacked multinomial consumes
the RNG the same way either side).  Randomised circuits exercise the
legality oracle's decisions; deterministic tests pin the opt-in knobs
(``REPRO_OPTIMIZE_PROGRAMS``, the simulators' ``optimize_programs``
argument, and the transpile template's noise-keyed cache).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.calibration import get_calibration
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    OPTIMIZE_PROGRAMS_ENV,
    StatevectorEngine,
    SweepProgram,
    optimization_enabled,
    resolve_optimization,
)
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.transpiler import TranspileCache
from repro.utils.rng import ensure_rng

NUM_QUBITS = 3

angles = st.floats(
    min_value=-math.pi, max_value=math.pi, allow_nan=False, allow_infinity=False
)
qubit = st.integers(min_value=0, max_value=NUM_QUBITS - 1)
fixed_gate = st.tuples(st.sampled_from(["h", "x", "t", "s"]), qubit)
rotation = st.tuples(st.sampled_from(["ry", "rz"]), qubit, angles)
cx_pair = st.tuples(
    st.just("cx"), qubit, qubit
).filter(lambda spec: spec[1] != spec[2])
gate_spec = st.one_of(fixed_gate, rotation, cx_pair)


def build_circuit(specs) -> QuantumCircuit:
    qc = QuantumCircuit(NUM_QUBITS, NUM_QUBITS, name="random")
    for spec in specs:
        if spec[0] == "cx":
            qc.cx(spec[1], spec[2])
        elif spec[0] in ("ry", "rz"):
            getattr(qc, spec[0])(spec[2], spec[1])
        else:
            getattr(qc, spec[0])(spec[1])
    qc.measure_all()
    return qc


def bound_angles(program, circuit) -> np.ndarray:
    """The circuit's float angles as one bindings row, in the program's column order."""
    row = [float(circuit.instructions[at].params[slot]) for at, slot in program.column_sites]
    return np.array(row).reshape(1, -1)


@pytest.fixture(scope="module")
def london():
    return get_calibration("ibmq_london").noise_model()


class TestFusedEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(gate_spec, min_size=1, max_size=10))
    def test_statevector_probabilities_match(self, specs):
        circuit = build_circuit(specs)
        source = SweepProgram.compile(circuit, bind_floats=True)
        optimized = source.optimized()
        bindings = bound_angles(source, circuit)
        engine = StatevectorEngine()
        np.testing.assert_allclose(
            optimized.execute(bindings, engine),
            source.execute(bindings, engine),
            atol=1e-10,
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(gate_spec, min_size=1, max_size=8))
    def test_density_probabilities_match_under_noise(self, specs):
        noise = get_calibration("ibmq_london").noise_model()
        circuit = build_circuit(specs)
        source = SweepProgram.compile(circuit, bind_floats=True)
        optimized = source.optimized(noise_model=noise)
        bindings = bound_angles(source, circuit)
        np.testing.assert_allclose(
            optimized.execute(bindings, DensitySuperoperatorEngine(noise)),
            source.execute(bindings, DensitySuperoperatorEngine(noise)),
            atol=1e-10,
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(gate_spec, min_size=1, max_size=8))
    def test_source_steps_flatten_back_to_the_source(self, specs):
        circuit = build_circuit(specs)
        source = SweepProgram.compile(circuit, bind_floats=True)
        optimized = source.optimized()
        flattened = list(optimized.source_steps())
        assert [s.name for s in flattened] == [s.name for s in source.steps]
        assert [s.qubits for s in flattened] == [s.qubits for s in source.steps]
        assert [s.slots for s in flattened] == [s.slots for s in source.steps]


def sweep_circuit(angle_row, name="sweep") -> QuantumCircuit:
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.cx(0, 1)
    qc.t(1)
    qc.ry(angle_row[0], 1).rz(angle_row[1], 1)
    qc.cx(1, 2)
    qc.s(2)
    qc.ry(angle_row[2], 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


PARAMS = [Parameter(name) for name in "abc"]


def random_angles(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 3))


def grid_program(simulator):
    """The simulator's cached program of the symbolic sweep circuit."""
    return simulator._grid_program(sweep_circuit(PARAMS), PARAMS)


def grid_readout(simulator, angles, shots):
    return simulator.run_sweep_program(grid_program(simulator), angles, shots=shots)


class TestSeedBitIdentity:
    """Sampled counts must be bit-identical with fusion on vs off."""

    def test_statevector_counts_are_bit_identical(self):
        angles = random_angles(6, seed=3)
        fused = grid_readout(
            StatevectorSimulator(seed=11, optimize_programs=True), angles, shots=400
        )
        plain = grid_readout(
            StatevectorSimulator(seed=11, optimize_programs=False), angles, shots=400
        )
        assert [c.data for c in fused.counts] == [c.data for c in plain.counts]
        for lhs, rhs in zip(fused.probabilities, plain.probabilities):
            for key, value in rhs.items():
                assert lhs[key] == pytest.approx(value, abs=1e-10)

    def test_density_counts_are_bit_identical(self, london):
        angles = random_angles(5, seed=4)
        fused = grid_readout(
            DensityMatrixSimulator(noise_model=london, seed=13, optimize_programs=True),
            angles,
            shots=300,
        )
        plain = grid_readout(
            DensityMatrixSimulator(noise_model=london, seed=13, optimize_programs=False),
            angles,
            shots=300,
        )
        assert [c.data for c in fused.counts] == [c.data for c in plain.counts]

    def test_fusion_actually_fires_on_the_sweep_shape(self, london):
        circuit = sweep_circuit([0.3, 0.7, 0.4])
        source = SweepProgram.compile(circuit, bind_floats=True)
        ideal = source.optimized()
        noisy = source.optimized(noise_model=london)
        assert len(ideal.steps) < len(source.steps)
        assert len(noisy.steps) < len(source.steps)
        assert any(step.fused_from for step in ideal.steps)
        assert any(step.fused_from for step in noisy.steps)
        # Noise commutation admits fewer runs than the ideal oracle.
        assert len(noisy.steps) >= len(ideal.steps)

    def test_fused_steps_never_absorb_bind_sites(self, london):
        circuit = sweep_circuit([0.3, 0.7, 0.4])
        program = SweepProgram.compile(circuit, bind_floats=True).optimized(
            noise_model=london
        )
        for step in program.steps:
            if step.fused_from:
                assert step.is_fixed
                assert step.slots == ()
                assert all(source.is_fixed for source in step.fused_from)


class TestOptInKnobs:
    def test_environment_flag_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
        ):
            monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, value)
            assert optimization_enabled() is expected
        monkeypatch.delenv(OPTIMIZE_PROGRAMS_ENV)
        assert optimization_enabled() is False

    def test_resolve_optimization_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, "1")
        assert resolve_optimization(None) is True
        assert resolve_optimization(False) is False
        monkeypatch.delenv(OPTIMIZE_PROGRAMS_ENV)
        assert resolve_optimization(None) is False
        assert resolve_optimization(True) is True

    def test_simulator_cache_serves_fused_programs_under_env(self, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, "1")
        program = grid_program(StatevectorSimulator())
        assert any(step.fused_from for step in program.steps)
        monkeypatch.delenv(OPTIMIZE_PROGRAMS_ENV)
        plain = grid_program(StatevectorSimulator())
        assert not any(step.fused_from for step in plain.steps)

    def test_constructor_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, "1")
        program = grid_program(StatevectorSimulator(optimize_programs=False))
        assert not any(step.fused_from for step in program.steps)

    def test_compile_optimize_flag(self, london):
        circuit = sweep_circuit([0.3, 0.7, 0.4])
        program = SweepProgram.compile(
            circuit, bind_floats=True, optimize=True, noise_model=london
        )
        assert any(step.fused_from for step in program.steps)

    def test_optimized_is_identity_when_nothing_fuses(self):
        qc = QuantumCircuit(2, 1, name="all-parametric")
        qc.ry(0.1, 0)
        qc.ry(0.2, 1)
        qc.measure(0, 0)
        program = SweepProgram.compile(qc, bind_floats=True)
        assert program.optimized() is program


class TestTemplateCache:
    def test_template_caches_the_fused_variant_per_noise_version(self):
        from repro.quantum.noise import ReadoutError

        noise = get_calibration("ibmq_london").noise_model()
        cache = TranspileCache()
        rng = ensure_rng(5)
        circuit = sweep_circuit(rng.uniform(0, np.pi, 3))
        entry, _ = cache.template(circuit)
        source = entry.ensure_program(optimize=False)
        fused = entry.ensure_program(optimize=True, noise_model=noise)
        assert fused is not source
        assert any(step.fused_from for step in fused.steps)
        # Same noise instance and version: the cached variant is reused.
        assert entry.ensure_program(optimize=True, noise_model=noise) is fused
        # A version bump invalidates the cached fused program.
        noise.add_readout_error(ReadoutError(0.01, 0.01), qubit=None)
        refreshed = entry.ensure_program(optimize=True, noise_model=noise)
        assert refreshed is not fused

    def test_template_default_stays_unfused_without_env(self, monkeypatch):
        monkeypatch.delenv(OPTIMIZE_PROGRAMS_ENV, raising=False)
        cache = TranspileCache()
        entry, _ = cache.template(sweep_circuit([0.3, 0.7, 0.4]))
        program = entry.ensure_program()
        assert not any(step.fused_from for step in program.steps)
