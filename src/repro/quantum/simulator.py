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
  requested) a :class:`~repro.quantum.measurement.Counts` histogram.  A
  SWAP test on the statevector engine reads out from its two registers, and
  its ``2**n`` final state is evolved only when
  :attr:`SimulationResult.statevector` is first read.
* ``run_sweep_program`` executes a whole-grid program
  (:meth:`_SweepProgramCacheMixin._grid_program`) tile by tile under a
  :class:`~repro.quantum.program.TilePlan`, keeping only each element's
  read-out.

Read-out and sampling have one route, in arrays (:func:`_read_out`): an
``(N, 2**m)`` :class:`SweepReadout` in classical-bit order, and shots from
one stacked multinomial over its rows, zero columns included.  ``run``
reads its one row out the same way and only then builds the dictionaries
:class:`SimulationResult` exposes, so a grid sweep's counts equal a loop of
``run`` calls draw for draw.  Earlier releases drew only the non-zero
outcomes, in qubit order, so seeded draws differ from theirs where an
outcome is exactly zero in a trailing column, or where a multi-bit circuit
measures qubits into classical bits out of order.

Mid-circuit resets are rejected by the compiler.  The per-state classes
(:class:`~repro.quantum.statevector.Statevector`,
:class:`~repro.quantum.density_matrix.DensityMatrix`) share no code with the
engines and serve as the independent reference for both routes.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.measurement import (
    Counts,
    clbit_key,
    clbit_probabilities,
    sample_counts,
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
        Final pure state (statevector engine only), evolved by
        ``final_state`` when first read; ``None`` without one.
    density_matrix:
        Final mixed state (density-matrix engine only).
    shots:
        Number of shots sampled, or ``None`` for exact execution.
    metadata:
        Engine- and backend-specific extras (noise model name, queue delay...).
    final_state:
        Returns the final pure state; called once, on the first read of
        :attr:`statevector`.
    """

    circuit_name: str
    probabilities: Dict[str, float]
    counts: Optional[Counts] = None
    density_matrix: Optional[DensityMatrix] = None
    shots: Optional[int] = None
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)
    final_state: Optional[Callable[[], Statevector]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @functools.cached_property
    def statevector(self) -> Optional[Statevector]:
        return None if self.final_state is None else self.final_state()

    def marginal_probability(self, clbit: int, value: int = 1) -> float:
        """Probability that classical bit ``clbit`` reads ``value``."""
        if self.counts is not None:
            return self.counts.marginal_probability(clbit, value)
        total = 0.0
        for key, prob in self.probabilities.items():
            if int(key[clbit]) == value:
                total += prob
        return total


@dataclasses.dataclass
class SweepReadout:
    """The read-out of one program execution, as ``(N, 2**m)`` arrays.

    One row per element.  ``probabilities`` holds the exact, non-negative
    outcome probabilities (readout error included on the density engine)
    and ``counts`` one stacked multinomial draw of ``shots`` per row, or
    ``None`` without shots.  Column ``c`` is the outcome in which classical
    bit ``clbits[i]`` (ascending, the ``m`` bits the program writes) reads
    bit ``m - 1 - i`` of ``c``; the other bits of the ``num_clbits``-bit
    register read 0 (:func:`~repro.quantum.measurement.clbit_probabilities`).
    Both simulators' ``run_sweep_program`` and ``run`` read out through
    :func:`_read_out`, so a grid sweep builds no per-element object.
    """

    probabilities: np.ndarray
    counts: Optional[np.ndarray]
    clbits: Tuple[int, ...]
    num_clbits: int
    shots: Optional[int]

    def marginal_probabilities(self, clbit: int = 0, value: int = 0) -> np.ndarray:
        """Per-element ``P(clbit == value)``, preferring sampled counts.

        A column selection and a row sum: element for element what
        :meth:`SimulationResult.marginal_probability` of ``run`` reports.
        The exact sum runs left to right (a cumulative sum), the order of
        ``run``'s loop over its outcome dictionary; numpy's pairwise ``sum``
        can differ from it in the last ULP from eight columns on.
        """
        if not 0 <= clbit < self.num_clbits:
            raise SimulationError(
                f"bit index {clbit} out of range for {self.num_clbits}-bit outcomes"
            )
        width = len(self.clbits)
        if clbit in self.clbits:
            shift = width - 1 - self.clbits.index(clbit)
            selected = (np.arange(2**width) >> shift) & 1 == value
        else:
            selected = np.full(2**width, value == 0)
        if self.counts is None:
            if not selected.any():
                return np.zeros(self.probabilities.shape[0])
            return np.cumsum(self.probabilities[:, selected], axis=1)[:, -1]
        return self.counts[:, selected].sum(axis=1) / self.shots


def _read_out(
    program: SweepProgram,
    joint: np.ndarray,
    rng: np.random.Generator,
    shots: Optional[int],
) -> SweepReadout:
    """Re-index ``joint`` into classical-bit order and sample it.

    The one read-out of both engines and both routes: a grid sweep's
    ``(N, 2**k)`` joint distribution and ``run``'s one row alike.
    """
    probabilities, clbits = clbit_probabilities(joint, program.clbits)
    counts = None if shots is None else sample_counts(rng, probabilities, shots)
    return SweepReadout(probabilities, counts, clbits, program.num_clbits, shots)


def _outcomes(readout: SweepReadout, row: np.ndarray, kind: type) -> Dict[str, object]:
    """``row``'s non-zero columns keyed by classical bit string, as ``run`` reports them."""
    return {
        clbit_key(int(column), readout.clbits, readout.num_clbits): kind(row[column])
        for column in np.flatnonzero(row > 0)
    }


def _execute_sweep_readout(
    program: SweepProgram,
    bindings: np.ndarray,
    engine,
    rng: np.random.Generator,
    shots: Optional[int],
    tile_plan: Optional[TilePlan],
) -> SweepReadout:
    """Run one compiled sweep tile by tile and read it out (both engines).

    The read-out is ``run``'s (:func:`_read_out`), so the sweep's counts
    are a loop of ``run`` calls' draw for draw.
    """
    bindings = np.asarray(bindings, dtype=float)
    if bindings.shape[0] == 0:
        joint = np.zeros((0, 2 ** len(program.measured_qubits)))
    else:
        joint = program.execute(bindings, engine, tile_plan=tile_plan)
    return _read_out(program, joint, rng, shots)


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

        Returns ``(final_state, probabilities, counts)``: a callable that
        returns the engine's one-element batched final state (call it at
        most once), the exact classical-bit probabilities (readout error
        included on the density engine) and the sampled counts, both from
        the one-row :func:`_read_out` of a grid sweep, on the same RNG.  The
        joint distribution comes from the route a one-element grid of the
        program takes (:meth:`~repro.quantum.program.SweepProgram.read_out`):
        on the density engine ``final_state`` applies the fixed tail after the
        readout, and a SWAP test on the statevector engine reads out as a
        register overlap, ``final_state`` evolving the whole program.
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
        joint, final_state = program.read_out(row[None, :], engine)
        probabilities: Dict[str, float] = {}
        counts: Optional[Counts] = None
        if program.measured_qubits:
            readout = _read_out(program, joint, self._rng, shots)
            probabilities = _outcomes(readout, readout.probabilities[0], float)
            if shots is not None:
                counts = Counts(_outcomes(readout, readout.counts[0], int))
        elif shots is not None:
            raise SimulationError("cannot sample shots from a circuit without measurements")
        return final_state, probabilities, counts


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
        final_state, probabilities, counts = self._execute_run(
            circuit, shots, StatevectorEngine()
        )
        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            shots=shots,
            metadata={"engine": self.name},
            final_state=lambda: final_state().statevector(0),
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
        final_state, probabilities, counts = self._execute_run(
            circuit, shots, self._program_engine()
        )
        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            density_matrix=final_state().density_matrix(0),
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
