"""Execution backends.

A :class:`Backend` is anything that can run a bound circuit and return a
:class:`~repro.quantum.simulator.SimulationResult`.  Three implementations are
provided here:

* :class:`IdealBackend` — exact statevector execution (optionally sampled).
* :class:`SampledBackend` — statevector execution that always samples shots,
  modelling the statistical noise of a perfect but finite-shot device.
* :class:`NoisyBackend` — transpiles onto a device topology, then executes on
  a density-matrix simulator with the device's noise model.  This is the base
  class of the simulated IBM-Q and IonQ machines in :mod:`repro.hardware`.

Execution route
---------------
A SWAP-test fidelity reaches a backend by one route,
:meth:`Backend.sweep_grid_zero_probabilities`.  One *symbolic*
discriminator (trained parameters and data-encoder angles unbound) compiles
once into a :class:`~repro.quantum.program.SweepProgram` and executes a
``(rows x samples, columns)`` bindings matrix tile by tile.  The statevector
backends compile through their simulator's structure-keyed program cache;
:class:`NoisyBackend` transpiles the symbolic circuit once through its
:class:`~repro.quantum.transpiler.TranspileCache` and runs the template's
precomposed-superoperator program.  The base class's default is the one
loop left: it binds each bindings row into the circuit and calls
:meth:`Backend.run`, so a backend that implements only ``run`` serves the
estimator too.

:meth:`Backend.run` executes one bound circuit per call.  The simulators
compile it once per gate structure (every float angle a bind column) and
execute it on the same program engines as the grid, so a grid sweep and a
loop of ``run`` agree draw for draw where shots are sampled.

On the statevector backends both read a SWAP-test discriminator out as the
overlap of its two registers: the engine evolves each register as a
sub-program and reads ``P(ancilla = 0) = (1 + |<A|B>|**2) / 2``, never the
``2**n`` state (``run`` evolves that state only to return it).  So a grid
element and ``run`` of one program read out through one routine, and
:meth:`Backend.grid_element_amplitudes` charges a tile's elements in those
registers.

Both also read out and sample through the simulators' one array helper:
``(N, 2**m)`` probabilities in classical-bit order and one stacked
multinomial over their rows, so a grid sweep's counts equal a loop of
``run`` calls draw for draw, and ``P(bit 0 = 0)`` is a column selection.
:class:`NoisyBackend` ledgers each grid element straight from the
template's transpile statistics, shots and circuit name, one record per
element, with no per-element result object.

Neither is its own reference: the per-state classes
:class:`~repro.quantum.statevector.Statevector` and
:class:`~repro.quantum.density_matrix.DensityMatrix`, which share no code
with the program engines, are the independent reference both are tested
against.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.program import TilePlan, statevector_element_amplitudes
from repro.quantum.simulator import (
    DensityMatrixSimulator,
    SimulationResult,
    StatevectorSimulator,
)
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import TranspileCache
from repro.utils.rng import RandomState, ensure_rng


def validate_shots(shots: Optional[int], backend_name: str) -> Optional[int]:
    """Validate a shot count: ``None`` (exact) or a positive integer.

    Every backend funnels its ``shots`` argument through here so that invalid
    requests — most notably ``shots=0``, which previously fell back to a
    default via a falsy-``or`` — fail loudly with a :class:`BackendError`
    instead of silently running a different experiment.
    """
    if shots is None:
        return None
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise BackendError(
            f"{backend_name}: shots must be a positive integer or None, got {shots!r}"
        )
    if shots <= 0:
        raise BackendError(
            f"{backend_name}: shots must be positive or None, got {shots}"
        )
    return int(shots)


class Backend(abc.ABC):
    """Abstract execution backend."""

    #: Human-readable backend name (used in experiment reports).
    name: str = "backend"

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        """Execute a fully bound circuit."""

    @property
    def is_noisy(self) -> bool:
        """Whether execution includes a hardware noise model."""
        return False

    def ancilla_zero_probability(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> float:
        """Probability that classical bit 0 reads ``0`` — the SWAP-test readout.

        Every QuClassi discriminator circuit measures exactly one ancilla into
        classical bit 0, so this helper is the single quantity the training
        loop needs from a backend.
        """
        result = self.run(circuit, shots=shots)
        return result.marginal_probability(0, value=0)

    def grid_element_amplitudes(self, circuit: QuantumCircuit, parameters: Sequence) -> int:
        """Complex entries one element of a grid sweep of ``circuit`` holds.

        The unit a :class:`~repro.quantum.program.TilePlan` budget is cut
        in; by default the full ``2**n`` statevector.
        """
        return 2**circuit.num_qubits

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """SWAP-test readouts of one whole-grid sweep: ``P(bit 0 = 0)`` per element.

        ``circuit`` is a single *symbolic* representative (trained parameters
        and data-encoder angles unbound), ``parameters`` its binding-column
        order, ``bindings`` the ``(rows x samples, columns)`` value matrix in
        row-major grid order.  The simulator backends compile the circuit
        once and execute the bindings straight through the tiled program
        executor (steps constant within each grid row of ``tile_plan`` — the
        trained-state prefix — evolve once per row a tile touches),
        draw-for-draw identical to calling :meth:`run` on each bound
        circuit in row-major order.  This default *is* that loop: it binds
        each row into ``circuit`` and calls :meth:`run` (``tile_plan`` is
        not needed), so a backend that implements only :meth:`run` still
        serves the estimator.
        """
        bindings = _check_bindings(bindings, self.name)
        parameters = list(parameters)
        return np.array(
            [
                self.ancilla_zero_probability(
                    circuit.bind_parameters(dict(zip(parameters, row.tolist()))),
                    shots=shots,
                )
                for row in bindings
            ],
            dtype=float,
        )


def _check_bindings(bindings, backend_name: str) -> np.ndarray:
    """A grid bindings matrix as a 2-D float array, or a :class:`BackendError`."""
    bindings = np.asarray(bindings, dtype=float)
    if bindings.ndim != 2:
        raise BackendError(
            f"{backend_name}: grid bindings must be 2-D (elements, columns), "
            f"got shape {bindings.shape}"
        )
    return bindings


def _statevector_grid_sweep(
    simulator: StatevectorSimulator,
    backend_name: str,
    circuit: QuantumCircuit,
    parameters: Sequence,
    bindings,
    shots: Optional[int],
    tile_plan: Optional[TilePlan],
) -> np.ndarray:
    """Shared whole-grid implementation of the statevector backends."""
    bindings = _check_bindings(bindings, backend_name)
    if bindings.shape[0] == 0:
        return np.zeros(0)
    program = simulator._grid_program(circuit, tuple(parameters))
    readout = simulator.run_sweep_program(
        program, bindings, shots=shots, tile_plan=tile_plan
    )
    return readout.marginal_probabilities(0, 0)


class IdealBackend(Backend):
    """Noise-free statevector execution with exact probabilities."""

    name = "ideal_simulator"

    def __init__(self, seed: RandomState = None) -> None:
        self._simulator = StatevectorSimulator(seed=seed)

    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        shots = validate_shots(shots, self.name)
        return self._simulator.run(circuit, shots=shots)

    def grid_element_amplitudes(self, circuit: QuantumCircuit, parameters: Sequence) -> int:
        return statevector_element_amplitudes(
            self._simulator._grid_program(circuit, tuple(parameters))
        )

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """Whole-grid compile-once sweep on the statevector engine."""
        shots = validate_shots(shots, self.name)
        return _statevector_grid_sweep(
            self._simulator, self.name, circuit, parameters, bindings, shots, tile_plan
        )


class SampledBackend(Backend):
    """Statevector execution that always samples a finite number of shots."""

    name = "sampled_simulator"

    def __init__(self, shots: int = 1024, seed: RandomState = None) -> None:
        self.shots = validate_shots(shots, self.name)
        if self.shots is None:
            raise BackendError(f"{self.name}: a default shot count is required")
        self._simulator = StatevectorSimulator(seed=seed)

    def _resolve_shots(self, shots: Optional[int]) -> int:
        # ``shots=0`` must raise, not silently fall back to the default the
        # way the old ``shots or self.shots`` expression did.
        if shots is None:
            return self.shots
        return validate_shots(shots, self.name)

    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        return self._simulator.run(circuit, shots=self._resolve_shots(shots))

    def grid_element_amplitudes(self, circuit: QuantumCircuit, parameters: Sequence) -> int:
        return statevector_element_amplitudes(
            self._simulator._grid_program(circuit, tuple(parameters))
        )

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """Whole-grid compile-once sweep; every element is sampled."""
        return _statevector_grid_sweep(
            self._simulator,
            self.name,
            circuit,
            parameters,
            bindings,
            self._resolve_shots(shots),
            tile_plan,
        )


@dataclasses.dataclass
class DeviceProperties:
    """Static description of a simulated quantum device.

    Attributes
    ----------
    name:
        Provider-style device name (e.g. ``"ibmq_london"``).
    num_qubits:
        Number of physical qubits.
    coupling_map:
        Physical connectivity.
    noise_model:
        Gate/readout error model calibrated for the device.
    basis_gates:
        Native gate set.
    max_shots:
        Largest shot count a single job may request.
    queue_latency_seconds:
        Simulated average queueing delay per job (reported in job metadata,
        mirroring the paper's remark about shared public queues).
    """

    name: str
    num_qubits: int
    coupling_map: CouplingMap
    noise_model: NoiseModel
    basis_gates: tuple = ("rx", "ry", "rz", "h", "cx", "id", "x", "z")
    max_shots: int = 8192
    queue_latency_seconds: float = 0.0


class NoisyBackend(Backend):
    """Device-like backend: transpile, then run under a noise model.

    Two caches amortise repeated work: a per-width cache of the selected chip
    region, and a structure-keyed
    :class:`~repro.quantum.transpiler.TranspileCache`.  :meth:`run` re-binds
    each circuit's rotation angles into a previously transpiled template
    instead of re-running decomposition and routing.
    :meth:`sweep_grid_zero_probabilities` transpiles the symbolic
    discriminator once and executes the whole (shift-row x sample) grid
    straight from the template's compiled
    :class:`~repro.quantum.program.SweepProgram` — unitaries and noise
    channels precomposed into per-gate superoperators — tiled under a
    :class:`~repro.quantum.program.TilePlan` memory budget.
    """

    def __init__(
        self,
        properties: DeviceProperties,
        seed: RandomState = None,
    ) -> None:
        self.properties = properties
        self.name = properties.name
        self._rng = ensure_rng(seed)
        self._simulator = DensityMatrixSimulator(noise_model=properties.noise_model, seed=self._rng)
        #: Statistics of the most recent transpilation (CX count, SWAPs, depth).
        self.last_transpile_stats: Dict[str, int] = {}
        self._transpile_cache = TranspileCache()
        self._region_cache: Dict[int, CouplingMap] = {}
        #: Job ledger (:class:`~repro.hardware.job.JobLedger`) of every
        #: executed circuit; the simulated providers keep one, the base
        #: class none.
        self.ledger = None

    @property
    def is_noisy(self) -> bool:
        return True

    @property
    def transpile_cache_stats(self) -> Dict[str, int]:
        """Hit/miss statistics of the structure-keyed transpile cache."""
        return self._transpile_cache.stats

    def _local_coupling_map(self, num_qubits: int) -> CouplingMap:
        """Connected chip region for a circuit width (cached per width).

        Place the circuit on a connected region of the chip and only simulate
        that region; simulating every physical qubit of a 15- or 27-qubit
        device as a density matrix would be needlessly intractable.
        """
        cached = self._region_cache.get(num_qubits)
        if cached is None:
            region = self.properties.coupling_map.select_connected_region(num_qubits)
            cached = self.properties.coupling_map.induced_subgraph(region)
            self._region_cache[num_qubits] = cached
        return cached

    def _resolve_shots(self, shots: Optional[int]) -> int:
        """Validate a shot request against the device's per-job limit."""
        shots = validate_shots(shots, self.name)
        shots = shots if shots is not None else 1024
        if shots > self.properties.max_shots:
            raise BackendError(
                f"{self.name} supports at most {self.properties.max_shots} shots per job, "
                f"requested {shots}"
            )
        return shots

    def _check_width(self, circuit: QuantumCircuit) -> None:
        """Reject circuits wider than the device."""
        if circuit.num_qubits > self.properties.num_qubits:
            raise BackendError(
                f"{self.name} has {self.properties.num_qubits} qubits, circuit needs "
                f"{circuit.num_qubits}"
            )

    @staticmethod
    def _transpile_stats(transpiled) -> Dict[str, int]:
        """Summary statistics of one transpilation, as reported in metadata."""
        return {
            "cx_count": transpiled.cx_count,
            "inserted_swaps": transpiled.inserted_swaps,
            "added_cx": transpiled.added_cx,
            "depth": transpiled.depth,
        }

    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        shots = self._resolve_shots(shots)
        self._check_width(circuit)
        local_map = self._local_coupling_map(circuit.num_qubits)
        transpiled = self._transpile_cache.transpile(circuit, local_map)
        self.last_transpile_stats = self._transpile_stats(transpiled)
        result = self._simulator.run(transpiled.circuit, shots=shots)
        result.metadata.update(
            {
                "backend": self.name,
                "transpile": dict(self.last_transpile_stats),
                "queue_latency_seconds": self.properties.queue_latency_seconds,
            }
        )
        self._record_job(result.circuit_name, shots, self.last_transpile_stats)
        return result

    def grid_element_amplitudes(self, circuit: QuantumCircuit, parameters: Sequence) -> int:
        """A density element: ``4**n`` entries."""
        return 4**circuit.num_qubits

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """Whole-grid compile-once sweep under the device noise model.

        The symbolic representative transpiles **once** through
        :meth:`~repro.quantum.transpiler.TranspileCache.symbolic_template`
        (no slot twin — the circuit's own parameters are the slots) and the
        cached template's compiled program executes the whole bindings grid
        tile by tile.  No per-sample circuit is constructed, bound or
        transpiled anywhere; one sweep is one provider job submission, with
        every grid element still ledgered individually so job accounting
        matches the per-sample paths.
        """
        shots = self._resolve_shots(shots)
        bindings = _check_bindings(bindings, self.name)
        if bindings.shape[0] == 0:
            return np.zeros(0)
        self._check_width(circuit)
        local_map = self._local_coupling_map(circuit.num_qubits)
        entry = self._transpile_cache.symbolic_template(
            circuit, parameters, local_map
        )
        program = entry.ensure_program()
        stats = self._transpile_stats(entry.result)
        self.last_transpile_stats = stats
        readout = self._simulator.run_sweep_program(
            program, bindings, shots=shots, tile_plan=tile_plan
        )
        for _ in range(bindings.shape[0]):
            self._record_job(f"{circuit.name}_basis_routed", shots, stats)
        return readout.marginal_probabilities(0, 0)

    def _record_job(
        self, circuit_name: str, shots: Optional[int], transpile_stats: Dict[str, int]
    ) -> None:
        """Ledger one executed circuit, a single run or a grid element alike.

        Takes what a job record holds, so a grid sweep ledgers each element
        without building a :class:`~repro.quantum.simulator.SimulationResult`.
        """
        if self.ledger is not None:
            self.ledger.record(
                self.name,
                circuit_name,
                shots,
                transpile_stats,
                self.properties.queue_latency_seconds,
            )
