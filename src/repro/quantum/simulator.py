"""Circuit simulators.

Two execution engines are provided:

* :class:`StatevectorSimulator` — pure-state evolution; supports exact
  probability read-out (``shots=None``) or multinomial shot sampling.  This is
  the engine behind all "simulator" results in the paper's figures.
* :class:`DensityMatrixSimulator` — mixed-state evolution with a
  :class:`~repro.quantum.noise.NoiseModel`; the engine behind the simulated
  IBM-Q / IonQ hardware backends (Figs 11 and 12).

Both apply gates through one route: a compiled
:class:`~repro.quantum.program.SweepProgram` executed by a program engine
(:class:`~repro.quantum.program.StatevectorEngine` with its kernel classes,
or :class:`~repro.quantum.program.DensitySuperoperatorEngine`, which
precomposes every gate's unitary and noise channels into one superoperator).
Programs live in a structure-keyed LRU cache
(:class:`_SweepProgramCacheMixin`):

* ``run`` compiles one *bound* circuit with ``bind_floats=True`` — every
  float angle is a binding column — so all angle variants of one gate
  structure share a single cache entry; the call evolves a one-row bindings
  matrix and returns a :class:`SimulationResult` with the final state, the
  exact probabilities of the measured classical bits and (when shots are
  requested) a :class:`~repro.quantum.measurement.Counts` histogram.
* ``run_sweep_program`` executes a whole-grid program
  (:meth:`_SweepProgramCacheMixin._grid_program`) tile by tile under a
  :class:`~repro.quantum.program.TilePlan`, keeping only each element's
  read-out.  Shot sampling draws every element from one stacked multinomial
  call, which consumes the RNG exactly like a loop of ``run`` calls.

Mid-circuit resets are rejected by the compiler.  The per-state classes
(:class:`~repro.quantum.statevector.Statevector`,
:class:`~repro.quantum.density_matrix.DensityMatrix`) share no code with the
engines and serve as the independent reference for both routes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.measurement import (
    Counts,
    counts_from_probabilities,
    exact_clbit_probabilities,
    normalize_outcome_probabilities,
)
from repro.quantum.noise import NoiseModel
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
)
from repro.quantum.statevector import Statevector
from repro.quantum.transpiler import circuit_structure_key
from repro.utils.cache import LRUCache
from repro.utils.rng import RandomState, ensure_rng


@dataclasses.dataclass
class SimulationResult:
    """Outcome of simulating one circuit.

    Attributes
    ----------
    circuit_name:
        Name of the executed circuit.
    probabilities:
        Exact probabilities over the measured classical bits, indexed by the
        classical bit string (bit 0 first).  Empty when the circuit has no
        measurements.
    counts:
        Sampled histogram; ``None`` when ``shots`` was ``None``.
    statevector:
        Final pure state (statevector engine only, measurement-free circuits).
    density_matrix:
        Final mixed state (density-matrix engine only).
    shots:
        Number of shots sampled, or ``None`` for exact execution.
    metadata:
        Engine- and backend-specific extras (noise model name, queue delay...).
    """

    circuit_name: str
    probabilities: Dict[str, float]
    counts: Optional[Counts] = None
    statevector: Optional[Statevector] = None
    density_matrix: Optional[DensityMatrix] = None
    shots: Optional[int] = None
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    def probability_of(self, bitstring: str) -> float:
        """Probability of a classical outcome, preferring sampled counts."""
        if self.counts is not None:
            return self.counts.probability(bitstring)
        return self.probabilities.get(bitstring, 0.0)

    def marginal_probability(self, clbit: int, value: int = 1) -> float:
        """Probability that classical bit ``clbit`` reads ``value``."""
        if self.counts is not None:
            return self.counts.marginal_probability(clbit, value)
        total = 0.0
        for key, prob in self.probabilities.items():
            if int(key[clbit]) == value:
                total += prob
        return total


def _sample_counts_batch(
    rng: np.random.Generator,
    probabilities_per_element: Sequence[Dict[str, float]],
    shots: int,
) -> List[Counts]:
    """Sample counts for every batch element, matching the loop's RNG stream.

    When all elements expose the same outcome keys (the common case — a
    SWAP-test sweep always yields the ``{"0", "1"}`` pair), all elements are
    drawn with one stacked multinomial call; NumPy consumes the bit generator
    row by row, so the draws are identical to sequential
    :func:`~repro.quantum.measurement.counts_from_probabilities` calls.
    Heterogeneous key sets (some element has an exactly-zero outcome that the
    exact read-out dropped) fall back to the sequential path to keep the
    stream aligned with the per-circuit loop.
    """
    key_sets = [tuple(probs.keys()) for probs in probabilities_per_element]
    if any(key_set != key_sets[0] for key_set in key_sets[1:]):
        return [
            counts_from_probabilities(probs, shots, rng=rng)
            for probs in probabilities_per_element
        ]
    keys = key_sets[0]
    pvals = normalize_outcome_probabilities(
        [[probs[key] for key in keys] for probs in probabilities_per_element]
    )
    samples = rng.multinomial(shots, pvals)
    return [
        Counts({key: int(count) for key, count in zip(keys, row) if count > 0})
        for row in samples
    ]


@dataclasses.dataclass
class SweepReadout:
    """Per-element read-out of one tiled program execution.

    Holds only what downstream consumers need — outcome-probability
    dictionaries and (optionally) sampled counts — so a tiled sweep never
    materialises per-element states.  Produced by the simulators'
    ``run_sweep_program`` methods.
    """

    probabilities: List[Dict[str, float]]
    counts: Optional[List[Counts]]
    num_clbits: int

    def marginal_probabilities(self, clbit: int = 0, value: int = 0) -> np.ndarray:
        """Per-element ``P(clbit == value)``, preferring sampled counts.

        Mirrors :meth:`SimulationResult.marginal_probability` element-wise so
        the program sweep path reports exactly what a loop of full results
        would.
        """
        if self.counts is not None:
            return np.array(
                [c.marginal_probability(clbit, value) for c in self.counts],
                dtype=float,
            )
        return np.array(
            [
                sum(p for key, p in probs.items() if int(key[clbit]) == value)
                for probs in self.probabilities
            ],
            dtype=float,
        )


def _execute_sweep_readout(
    program: SweepProgram,
    bindings: np.ndarray,
    engine,
    rng: np.random.Generator,
    shots: Optional[int],
    tile_plan: Optional[TilePlan],
) -> SweepReadout:
    """Run one compiled sweep and sample its read-out (both engines).

    :func:`~repro.quantum.measurement.exact_clbit_probabilities` then
    :func:`_sample_counts_batch` — the same read-out helpers as the
    per-circuit ``run``, so the program path consumes the RNG draw-for-draw
    like the per-circuit loop.
    """
    bindings = np.asarray(bindings, dtype=float)
    if bindings.shape[0] == 0:
        return SweepReadout([], [] if shots is not None else None, program.num_clbits)
    if not program.measured_qubits:
        raise SimulationError("cannot read out a sweep program without measurements")
    joint = program.execute(bindings, engine, tile_plan=tile_plan)
    probabilities = [
        exact_clbit_probabilities(
            joint[element], program.measured_qubits, program.clbits, program.num_clbits
        )
        for element in range(joint.shape[0])
    ]
    counts = (
        _sample_counts_batch(rng, probabilities, shots) if shots is not None else None
    )
    return SweepReadout(probabilities, counts, program.num_clbits)


class _SweepProgramCacheMixin:
    """Structure-keyed compile-once program cache shared by both simulators.

    Each entry is the compiled program of one circuit structure; the
    engines plan it (and the density engine replans it when the noise model
    changes) without recompiling.
    """

    PROGRAM_CACHE_SIZE = 64

    def _init_program_cache(self) -> None:
        self._program_cache = LRUCache(self.PROGRAM_CACHE_SIZE)
        self._program_cache_hits = 0
        self._program_cache_misses = 0

    @property
    def program_cache_stats(self) -> Dict[str, int]:
        """Hit/miss statistics of the compiled-sweep-program cache."""
        return {
            "hits": self._program_cache_hits,
            "misses": self._program_cache_misses,
            "entries": len(self._program_cache),
        }

    def _cached_program(
        self, key: tuple, compile_source: Callable[[], SweepProgram]
    ) -> SweepProgram:
        """The program cached under ``key``, compiled by ``compile_source`` on a miss."""
        program = self._program_cache.get(key)
        if program is None:
            program = compile_source()
            self._program_cache.put(key, program)
            self._program_cache_misses += 1
        else:
            self._program_cache_hits += 1
        return program

    def _grid_program(
        self, reference: QuantumCircuit, parameters: Sequence
    ) -> SweepProgram:
        """Compile (once per structure) the program of a *symbolic* grid sweep.

        ``reference`` carries genuine symbolic parameters (trained angles
        and data-encoder sites); ``parameters`` fixes the binding-column
        order and is part of the key.
        """
        key = (
            circuit_structure_key(reference),
            tuple(param.name for param in parameters),
        )
        return self._cached_program(
            key,
            lambda: SweepProgram.compile(
                reference,
                bind_floats=False,
                parameters=parameters,
                name=f"{self.name}:grid({reference.name})",
            ),
        )

    def _run_program(self, circuit: QuantumCircuit) -> SweepProgram:
        """Compile (once per structure) the program of one *bound* circuit.

        Every float angle is a binding column, so all angle variants of a
        structure share the entry; :meth:`_execute_run` reads the bindings
        row back out of the circuit in ``column_sites`` order.
        """
        return self._cached_program(
            ("run", circuit_structure_key(circuit)),
            lambda: SweepProgram.compile(
                circuit, bind_floats=True, name=f"{self.name}:run({circuit.name})"
            ),
        )

    def _execute_run(self, circuit: QuantumCircuit, shots: Optional[int], engine):
        """Evolve one bound circuit through its cached program and read it out.

        Returns ``(state, probabilities, counts)``: the engine's one-element
        batched final state, the exact classical-bit probabilities (readout
        error included on the density engine) and the sampled counts, drawn
        with the same helper and RNG stream as every other read-out.  The
        probabilities come from the route a one-element grid of the program
        takes — evolve to the split of the engine's readout plan and read
        out there — and the fixed tail is applied afterwards only for the
        returned state.
        """
        if circuit.num_parameters:
            unbound = [p.name for p in circuit.parameters]
            raise SimulationError(f"circuit has unbound parameters: {unbound}")
        program = self._run_program(circuit)
        instructions = circuit.instructions
        row = np.array(
            [
                float(instructions[position].params[param_position])
                for position, param_position in program.column_sites
            ],
            dtype=float,
        )
        bindings = row[None, :]
        readout = engine.readout_plan(program, engine.step_plans(program))
        state = program.evolve(bindings, engine, steps=range(readout.split))
        probabilities: Dict[str, float] = {}
        counts: Optional[Counts] = None
        if program.measured_qubits:
            joint = engine.joint_probabilities(state, program.measured_qubits, readout)[0]
            probabilities = exact_clbit_probabilities(
                joint, program.measured_qubits, program.clbits, circuit.num_clbits
            )
            if shots is not None:
                counts = counts_from_probabilities(
                    probabilities, shots, rng=self._rng, num_bits=circuit.num_clbits
                )
        elif shots is not None:
            raise SimulationError("cannot sample shots from a circuit without measurements")
        state = program.evolve(
            bindings,
            engine,
            steps=range(readout.split, len(program.steps)),
            state=state,
        )
        return state, probabilities, counts


class StatevectorSimulator(_SweepProgramCacheMixin):
    """Exact pure-state simulator.

    Parameters
    ----------
    seed:
        Seed for shot sampling (exact probabilities are deterministic).
    """

    name = "statevector_simulator"

    def __init__(self, seed: RandomState = None) -> None:
        self._rng = ensure_rng(seed)
        self._init_program_cache()

    def run(
        self, circuit: QuantumCircuit, shots: Optional[int] = None
    ) -> SimulationResult:
        """Execute ``circuit`` and return a :class:`SimulationResult`.

        Measurements are deferred: the simulator evolves all unitary gates,
        computes the exact joint distribution of the measured qubits, and
        (optionally) samples ``shots`` outcomes from it.  Circuits that
        deferral cannot represent — a gate on an already-measured qubit, or
        measuring the same qubit twice — and mid-circuit resets raise
        :class:`~repro.exceptions.SimulationError`.
        """
        state, probabilities, counts = self._execute_run(
            circuit, shots, StatevectorEngine()
        )
        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            statevector=state.statevector(0),
            shots=shots,
            metadata={"engine": self.name},
        )

    def statevector(self, circuit: QuantumCircuit) -> Statevector:
        """Convenience: final statevector of a measurement-free circuit."""
        stripped = circuit.remove_final_measurements()
        return self.run(stripped).statevector

    def run_sweep_program(
        self,
        program: SweepProgram,
        bindings: np.ndarray,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> SweepReadout:
        """Execute a compiled sweep tile by tile, keeping only read-outs.

        The memory-bounded hot path behind
        :meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`:
        per-element statevectors are dropped as each tile completes, and
        shot sampling consumes the RNG exactly like a loop of :meth:`run`.
        """
        if shots is not None and shots <= 0:
            raise SimulationError(f"shots must be positive or None, got {shots}")
        return _execute_sweep_readout(
            program, bindings, StatevectorEngine(), self._rng, shots, tile_plan
        )


class DensityMatrixSimulator(_SweepProgramCacheMixin):
    """Mixed-state simulator with optional gate and readout noise.

    Both :meth:`run` (one bound circuit, compiled once per structure) and
    :meth:`run_sweep_program` (a whole-grid program, tile by tile) execute
    as :class:`~repro.quantum.batched_density.BatchedDensityMatrix` states
    on one :class:`~repro.quantum.program.DensitySuperoperatorEngine`, which
    precomposes every gate's unitary and noise channels into one
    superoperator and applies readout error at read-out.  Sweep shot
    sampling consumes the RNG exactly like a loop of :meth:`run`.
    """

    name = "density_matrix_simulator"

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: RandomState = None,
    ) -> None:
        self.noise_model = noise_model if noise_model is not None else NoiseModel.ideal()
        self._rng = ensure_rng(seed)
        self._init_program_cache()
        self._engine: Optional[DensitySuperoperatorEngine] = None

    def _program_engine(self) -> DensitySuperoperatorEngine:
        """The precomposing superoperator engine for the *current* noise model.

        ``noise_model`` is a public attribute callers may swap; the engine
        (and with it every memoised per-program superoperator plan) is
        rebuilt whenever the model instance changes.
        """
        if self._engine is None or self._engine.noise_model is not self.noise_model:
            self._engine = DensitySuperoperatorEngine(self.noise_model)
        return self._engine

    def run(
        self, circuit: QuantumCircuit, shots: Optional[int] = 1024
    ) -> SimulationResult:
        """Execute ``circuit`` under the configured noise model."""
        state, probabilities, counts = self._execute_run(
            circuit, shots, self._program_engine()
        )
        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            density_matrix=state.density_matrix(0),
            shots=shots,
            metadata={"engine": self.name, "noisy": not self.noise_model.is_ideal},
        )

    def run_sweep_program(
        self,
        program: SweepProgram,
        bindings: np.ndarray,
        shots: Optional[int] = 1024,
        tile_plan: Optional[TilePlan] = None,
    ) -> SweepReadout:
        """Execute a compiled noisy sweep tile by tile, keeping only read-outs.

        Every gate applies its precomposed superoperator (unitary and noise
        folded together at plan time — no per-gate channel resolution), the
        readout-error convolution and classical-bit re-indexing are
        :meth:`run`'s, and shot sampling consumes the RNG exactly like a
        loop of :meth:`run`.  Per-element density matrices are never
        materialised, so peak memory is the largest tile's
        ``tile x 4**n`` stack rather than the whole sweep's.
        """
        if shots is not None and shots <= 0:
            raise SimulationError(f"shots must be positive or None, got {shots}")
        return _execute_sweep_readout(
            program, bindings, self._program_engine(), self._rng, shots, tile_plan
        )
