"""One read-out route in arrays: grid sweeps against a loop of ``run``.

Both simulators read a sweep out as ``(N, 2**m)`` arrays in classical-bit
order and sample it with one stacked multinomial; ``run`` reads its one row
out through the same helper.  On random circuits — one to three measured
qubits, measured into permuted classical bits, with unmeasured classical
bits beside them, and elements whose trailing outcomes are exactly zero —
these tests pin, on both simulators:

* the grid's counts equal a same-seeded loop of ``run`` element for
  element;
* every sampled marginal equals the ``run`` results'
  ``marginal_probability``, and so does every exact one: bit for bit on the
  statevector engine, within ``1e-12`` on the density engine, whose
  one-row ``run`` shares each gate's operand across the batch where a
  sweep applies one per element;
* the probabilities are non-negative;
* an empty sweep reads out as ``(0, 2**m)`` arrays.

A SWAP test of two identical registers reads ``P(1) = 0`` exactly, the
case that used to leave the grid's stacked draw for a sequential one; it
stays seed-identical to the loop as well.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import clbit_key
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.operations import Parameter
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator

SHOTS = 96


def noisy_model() -> NoiseModel:
    model = NoiseModel().add_all_qubit_error(depolarizing_kraus(0.03), 1)
    return model.add_readout_error(ReadoutError(0.05, 0.02))


#: Simulator factories by name; the density engine with and without noise.
SIMULATORS = {
    "statevector": lambda seed: StatevectorSimulator(seed=seed),
    "density": lambda seed: DensityMatrixSimulator(NoiseModel.ideal(), seed=seed),
    "density-noisy": lambda seed: DensityMatrixSimulator(noisy_model(), seed=seed),
}

#: How far an exact grid read-out may sit from ``run``'s, per simulator.
EXACT_ATOL = {"statevector": 0.0, "density": 1e-12, "density-noisy": 1e-12}


def outcomes(readout, row):
    """A read-out row's non-zero columns keyed like ``run``'s dictionaries."""
    return {
        clbit_key(int(column), readout.clbits, readout.num_clbits): row[column]
        for column in np.flatnonzero(row > 0)
    }


def bound(circuit, parameters, row):
    return circuit.bind_parameters(dict(zip(parameters, (float(v) for v in row))))


@st.composite
def readout_cases(draw):
    num_qubits = draw(st.integers(2, 4))
    num_measured = draw(st.integers(1, min(3, num_qubits)))
    measured = draw(st.permutations(range(num_qubits)))[:num_measured]
    num_clbits = num_measured + draw(st.integers(0, 2))
    clbits = draw(st.permutations(range(num_clbits)))[:num_measured]
    gates = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["ry", "rx", "rz", "cx"]),
                st.integers(0, num_qubits - 1),
                st.integers(1, num_qubits - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    elements = draw(st.integers(1, 5))
    return {
        "num_qubits": num_qubits,
        "measured": measured,
        "num_clbits": num_clbits,
        "clbits": clbits,
        "gates": gates,
        # Zero rows leave every qubit in |0>: all but the first outcome
        # read exactly 0.
        "zero_rows": draw(st.lists(st.booleans(), min_size=elements, max_size=elements)),
        "seed": draw(st.integers(0, 2**16)),
        "kind": draw(st.sampled_from(sorted(SIMULATORS))),
    }


def build(case):
    circuit = QuantumCircuit(case["num_qubits"], case["num_clbits"], name="random")
    parameters = []
    for name, qubit, step in case["gates"]:
        if name == "cx":
            circuit.cx(qubit, (qubit + step) % case["num_qubits"])
            continue
        parameter = Parameter(f"p{len(parameters)}")
        parameters.append(parameter)
        getattr(circuit, name)(parameter, qubit)
    for qubit, clbit in zip(case["measured"], case["clbits"]):
        circuit.measure(qubit, clbit)
    rng = np.random.default_rng(case["seed"])
    bindings = rng.uniform(0.0, np.pi, size=(len(case["zero_rows"]), len(parameters)))
    bindings[np.array(case["zero_rows"], dtype=bool)] = 0.0
    return circuit, parameters, bindings


def assert_grid_matches_run_loop(kind, seed, circuit, parameters, bindings):
    """The sampled and exact grid read-outs against ``run``, element for element."""
    factory, atol = SIMULATORS[kind], EXACT_ATOL[kind]
    simulator = factory(seed)
    program = simulator._grid_program(circuit, parameters)
    grid = simulator.run_sweep_program(program, bindings, shots=SHOTS)
    exact = factory(seed).run_sweep_program(program, bindings, shots=None)
    loop = factory(seed)
    sampled = [loop.run(bound(circuit, parameters, row), shots=SHOTS) for row in bindings]
    results = [
        factory(seed).run(bound(circuit, parameters, row), shots=None) for row in bindings
    ]
    width = len(set(program.clbits))
    assert grid.probabilities.shape == grid.counts.shape == (len(bindings), 2**width)
    assert np.all(grid.probabilities >= 0.0)
    np.testing.assert_array_equal(exact.probabilities, grid.probabilities)
    keys = [clbit_key(c, grid.clbits, grid.num_clbits) for c in range(2**width)]
    for element, (shot_result, result) in enumerate(zip(sampled, results)):
        assert outcomes(grid, grid.counts[element]) == shot_result.counts.data
        np.testing.assert_allclose(
            exact.probabilities[element],
            [result.probabilities.get(key, 0.0) for key in keys],
            rtol=0,
            atol=atol,
        )
    for clbit in range(circuit.num_clbits):
        for value in (0, 1):
            np.testing.assert_array_equal(
                grid.marginal_probabilities(clbit, value),
                [r.marginal_probability(clbit, value) for r in sampled],
            )
            np.testing.assert_allclose(
                exact.marginal_probabilities(clbit, value),
                [r.marginal_probability(clbit, value) for r in results],
                rtol=0,
                atol=atol,
            )
    return grid


class TestGridMatchesRunLoop:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=readout_cases())
    # An unmeasured bit's P(0) sums all eight columns: numpy's pairwise sum
    # differed from run's left-to-right loop in the last ULP.
    @example(
        case={
            "num_qubits": 3,
            "measured": [0, 1, 2],
            "num_clbits": 4,
            "clbits": [1, 0, 2],
            "gates": [("ry", 0, 1), ("ry", 1, 1)],
            "zero_rows": [False],
            "seed": 21973,
            "kind": "statevector",
        }
    )
    def test_counts_and_marginals_match_a_loop_of_run(self, case):
        circuit, parameters, bindings = build(case)
        assert_grid_matches_run_loop(
            case["kind"], case["seed"], circuit, parameters, bindings
        )

    @pytest.mark.parametrize("kind", sorted(SIMULATORS))
    def test_an_empty_sweep_reads_out_as_empty_arrays(self, kind):
        circuit, parameters, _ = build(
            {
                "num_qubits": 3,
                "measured": [2, 0],
                "num_clbits": 3,
                "clbits": [2, 0],
                "gates": [("ry", 0, 1), ("cx", 0, 1)],
                "zero_rows": [],
                "seed": 0,
                "kind": kind,
            }
        )
        simulator = SIMULATORS[kind](0)
        program = simulator._grid_program(circuit, parameters)
        readout = simulator.run_sweep_program(program, np.zeros((0, 1)), shots=SHOTS)
        assert readout.probabilities.shape == readout.counts.shape == (0, 4)
        assert readout.marginal_probabilities(1, 0).shape == (0,)


def identical_registers():
    """A SWAP test of two registers prepared by the same rotations."""
    p, q = Parameter("p"), Parameter("q")
    circuit = QuantumCircuit(5, 1, name="identical")
    circuit.h(0)
    for first, second in ((1, 2), (3, 4)):
        circuit.ry(p, first).rz(q, second)
    circuit.cswap(0, 1, 3).cswap(0, 2, 4).h(0).measure(0, 0)
    return circuit, [p, q]


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
def test_identical_registers_read_p1_zero_and_sample_like_the_loop(kind):
    circuit, parameters = identical_registers()
    bindings = np.random.default_rng(4).uniform(0.0, np.pi, size=(12, 2))
    bindings[::3] = 0.0
    grid = assert_grid_matches_run_loop(kind, 7, circuit, parameters, bindings)
    if kind != "density-noisy":
        assert np.all(grid.probabilities[::3, 1] == 0.0)
