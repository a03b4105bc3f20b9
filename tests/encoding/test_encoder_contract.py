"""The one encoder contract, checked differentially on all four encoders.

Every encoder is a fixed gate skeleton over angle sites plus
``angle_matrix``.  So:

* the symbolic skeleton bound with an ``angle_matrix`` row is, instruction
  for instruction, the ``encoding_circuit`` of that row;
* the compiled skeleton evolved over the angle matrix prepares ``encode()``
  within ``1e-12`` (for amplitude encoding, ``encode()`` is the normalised
  amplitude vector itself, not a circuit);
* the SWAP-test estimator's whole-grid sweep equals a loop of ``run`` over
  ``build`` circuits on the ideal, sampled and noisy backends: draw for draw
  with shots, within ``1e-12`` when exact.

The draws include zero features, zero padding (feature counts that are not
a power of two) and all-zero or all-one bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import SwapTestFidelityEstimator
from repro.encoding import (
    AmplitudeEncoder,
    BasisEncoder,
    DualAngleEncoder,
    SingleAngleEncoder,
)
from repro.hardware import ibmq_london
from repro.quantum.backend import IdealBackend, SampledBackend
from repro.quantum.fidelity import fidelities_from_swap_test_probabilities
from repro.quantum.operations import Parameter
from repro.quantum.program import StatevectorEngine, SweepProgram

ENCODERS = {
    "dual": DualAngleEncoder,
    "single": SingleAngleEncoder,
    "basis": BasisEncoder,
    "amplitude": AmplitudeEncoder,
}

#: Values that hit the edges: exact zeros and ones, the basis threshold.
feature_values = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def feature_matrices(draw, min_features=1, max_features=9):
    """A ``(samples, features)`` matrix in [0, 1], every row with a non-zero entry.

    Whole rows of zeros (all-zero bits) or of ones (all-one bits) are drawn
    on purpose; a row's last entry is bumped off zero only when the row is
    otherwise all zero, since an all-zero vector has no amplitude encoding.
    """
    num_features = draw(st.integers(min_features, max_features))
    samples = draw(st.integers(1, 4))
    rows = []
    for _ in range(samples):
        kind = draw(st.sampled_from(["mixed", "zeros", "ones"]))
        if kind == "mixed":
            row = draw(st.lists(feature_values, min_size=num_features, max_size=num_features))
        else:
            row = [0.0 if kind == "zeros" else 1.0] * num_features
        if not any(row):
            row[-1] = 0.25
        rows.append(row)
    return np.array(rows, dtype=float)


def symbolic_sites(encoder, num_features):
    return [Parameter(f"site_{i}") for i in range(encoder.num_angle_sites(num_features))]


@pytest.mark.parametrize("name", sorted(ENCODERS))
class TestOneSkeleton:
    @settings(max_examples=30, deadline=None)
    @given(matrix=feature_matrices(), offset=st.integers(0, 2))
    def test_bound_skeleton_is_the_encoding_circuit(self, name, matrix, offset):
        encoder = ENCODERS[name]()
        num_features = matrix.shape[1]
        sites = symbolic_sites(encoder, num_features)
        total = offset + encoder.num_qubits(num_features) + 1
        skeleton = encoder.symbolic_encoding_circuit(
            num_features, sites, offset=offset, total_qubits=total
        )
        angles = encoder.angle_matrix(matrix)
        assert angles.shape == (matrix.shape[0], len(sites))
        for row, row_angles in zip(matrix, angles):
            bound = skeleton.bind_parameters(dict(zip(sites, row_angles.tolist())))
            circuit = encoder.encoding_circuit(row, offset=offset, total_qubits=total)
            assert bound.instructions == circuit.instructions
            assert bound.name == circuit.name

    @settings(max_examples=30, deadline=None)
    @given(matrix=feature_matrices())
    def test_compiled_skeleton_prepares_encode(self, name, matrix):
        encoder = ENCODERS[name]()
        sites = symbolic_sites(encoder, matrix.shape[1])
        program = SweepProgram.compile(
            encoder.symbolic_encoding_circuit(matrix.shape[1], sites),
            bind_floats=False,
            parameters=sites,
        )
        states = program.evolve(encoder.angle_matrix(matrix), StatevectorEngine()).amplitudes
        for row, state in zip(matrix, states):
            np.testing.assert_allclose(state, encoder.encode(row).data, rtol=0, atol=1e-12)

    def test_structure_depends_on_the_feature_count_alone(self, name):
        encoder = ENCODERS[name]()
        first = encoder.encoding_circuit([0.0, 0.9, 0.0, 0.0, 0.3])
        second = encoder.encoding_circuit([0.7, 0.0, 1.0, 0.2, 0.0])
        assert [(i.name, i.qubits) for i in first.instructions] == [
            (i.name, i.qubits) for i in second.instructions
        ]

    def test_symbolic_circuit_needs_one_parameter_per_site(self, name):
        from repro.exceptions import EncodingError

        encoder = ENCODERS[name]()
        sites = symbolic_sites(encoder, 4)
        with pytest.raises(EncodingError, match="one parameter per angle site"):
            encoder.symbolic_encoding_circuit(4, sites[:-1])
        with pytest.raises(EncodingError, match="num_features must be positive"):
            encoder.symbolic_encoding_circuit(0, [])


def test_amplitude_sites_of_the_full_tree():
    encoder = AmplitudeEncoder()
    for num_features, sites in [(1, 1), (2, 1), (3, 3), (4, 3), (5, 7), (16, 15)]:
        assert encoder.num_angle_sites(num_features) == sites
    # No zero-angle site is skipped: a basis state still runs every gate.
    circuit = encoder.encoding_circuit([1.0, 0.0, 0.0, 0.0, 0.0])
    assert circuit.count_ops() == {"ry": 7, "cx": 8}


# --------------------------------------------------------------------------- #
# The SWAP-test grid against a loop of ``run``
# --------------------------------------------------------------------------- #

BACKENDS = {
    "ideal": lambda: (IdealBackend(), None),
    "sampled": lambda: (SampledBackend(shots=200, seed=9), 200),
    "noisy": lambda: (ibmq_london(seed=9), 128),
}


def make_builder(encoder, num_features):
    stack = LayerStack.from_architecture("s", encoder.num_qubits(num_features))
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


def run_loop(builder, backend, shots, parameter_matrix, feature_matrix):
    zeros = [
        backend.run(builder.build(features, row), shots=shots).marginal_probability(0, 0)
        for row in parameter_matrix
        for features in feature_matrix
    ]
    return fidelities_from_swap_test_probabilities(np.array(zeros)).reshape(
        len(parameter_matrix), len(feature_matrix)
    )


@pytest.mark.parametrize("backend_key", sorted(BACKENDS))
@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_grid_equals_a_loop_of_run(name, backend_key):
    # Two features keep every discriminator inside ibmq_london's 5 qubits.
    builder = make_builder(ENCODERS[name](), num_features=2)
    rng = np.random.default_rng(45)
    parameter_matrix = rng.uniform(0, np.pi, size=(2, builder.num_parameters))
    features = np.array([[0.0, 0.9], [0.8, 0.0], [1.0, 1.0], [0.3, 0.6]])
    backend, shots = BACKENDS[backend_key]()
    estimator = SwapTestFidelityEstimator(builder, backend=backend, shots=shots)
    grid = estimator.fidelity_matrix(parameter_matrix, features)
    reference_backend, _ = BACKENDS[backend_key]()
    loop = run_loop(builder, reference_backend, shots, parameter_matrix, features)
    if shots is None:
        np.testing.assert_allclose(grid, loop, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(grid, loop)
    assert estimator.circuits_executed == grid.size


@pytest.mark.parametrize("name", ["basis", "amplitude"])
def test_noisy_grid_transpiles_once_and_ledgers_every_element(name):
    builder = make_builder(ENCODERS[name](), num_features=2)
    matrix = np.random.default_rng(47).uniform(0, np.pi, (1, builder.num_parameters))
    backend = ibmq_london(seed=1)
    SwapTestFidelityEstimator(builder, backend=backend, shots=64).fidelity_matrix(
        matrix, np.array([[0.1, 0.9], [0.9, 0.1], [0.9, 0.9]])
    )
    # One symbolic template for every sample, one ledger record per element.
    assert backend.transpile_cache_stats["misses"] == 1
    assert backend.ledger.num_jobs == 3
