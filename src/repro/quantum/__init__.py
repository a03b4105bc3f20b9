"""Quantum-computing substrate.

A self-contained replacement for the Qiskit simulator stack the paper uses:
gate library, circuit IR, statevector and density-matrix engines, noise
channels, SWAP-test fidelity primitives, Bloch-sphere utilities, device
topologies, a transpiler, and execution backends.
"""

from repro.quantum import gates
from repro.quantum.batched import BatchedStatevector
from repro.quantum.batched_density import BatchedDensityMatrix
from repro.quantum.backend import (
    Backend,
    DeviceProperties,
    IdealBackend,
    NoisyBackend,
    SampledBackend,
    validate_shots,
)
from repro.quantum.bloch import BlochVector, bloch_vector, bloch_vectors
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.fidelity import (
    build_swap_test_circuit,
    fidelities_from_swap_test_probabilities,
    fidelity_from_swap_test_probability,
    state_fidelity,
    swap_test_fidelity_exact,
    swap_test_fidelity_sampled,
    swap_test_probability_from_fidelity,
)
from repro.quantum.measurement import (
    Counts,
    normalize_outcome_probabilities,
    sample_counts,
)
from repro.quantum.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping_kraus,
    bit_flip_kraus,
    depolarizing_kraus,
    phase_damping_kraus,
    phase_flip_kraus,
    thermal_relaxation_kraus,
)
from repro.quantum.operations import Instruction, Parameter, ScaledParameter
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    GateStep,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
)
from repro.quantum.register import ClassicalRegister, QuantumRegister
from repro.quantum.simulator import (
    DensityMatrixSimulator,
    SimulationResult,
    StatevectorSimulator,
)
from repro.quantum.statevector import Statevector
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import (
    BASIS_GATES,
    RoutingResult,
    TranspileCache,
    TranspileResult,
    circuit_structure_key,
    decompose_to_basis,
    route_circuit,
    transpile,
)

__all__ = [
    "gates",
    "BatchedDensityMatrix",
    "BatchedStatevector",
    "Backend",
    "DeviceProperties",
    "IdealBackend",
    "NoisyBackend",
    "SampledBackend",
    "validate_shots",
    "BlochVector",
    "bloch_vector",
    "bloch_vectors",
    "QuantumCircuit",
    "DensityMatrix",
    "build_swap_test_circuit",
    "fidelities_from_swap_test_probabilities",
    "fidelity_from_swap_test_probability",
    "state_fidelity",
    "swap_test_fidelity_exact",
    "swap_test_fidelity_sampled",
    "swap_test_probability_from_fidelity",
    "Counts",
    "normalize_outcome_probabilities",
    "sample_counts",
    "NoiseModel",
    "ReadoutError",
    "amplitude_damping_kraus",
    "bit_flip_kraus",
    "depolarizing_kraus",
    "phase_damping_kraus",
    "phase_flip_kraus",
    "thermal_relaxation_kraus",
    "Instruction",
    "Parameter",
    "ScaledParameter",
    "DensitySuperoperatorEngine",
    "GateStep",
    "StatevectorEngine",
    "SweepProgram",
    "TilePlan",
    "ClassicalRegister",
    "QuantumRegister",
    "DensityMatrixSimulator",
    "SimulationResult",
    "StatevectorSimulator",
    "Statevector",
    "CouplingMap",
    "BASIS_GATES",
    "RoutingResult",
    "TranspileCache",
    "TranspileResult",
    "circuit_structure_key",
    "decompose_to_basis",
    "route_circuit",
    "transpile",
]
