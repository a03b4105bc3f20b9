"""Circuit transpilation: basis decomposition and SWAP routing.

Two passes are provided:

* :func:`decompose_to_basis` rewrites every gate into the native basis set
  ``{rx, ry, rz, h, cx}`` (plus measurements/resets/barriers).  CSWAP — the
  SWAP-test workhorse — expands into a CNOT-conjugated Toffoli which itself
  expands into six CNOTs, matching how real providers compile it.
* :func:`route_circuit` inserts SWAP chains (each SWAP = three CNOTs) so that
  every two-qubit gate acts on physically coupled qubits of a
  :class:`~repro.quantum.topology.CouplingMap`.

:func:`transpile` chains both passes and reports routing statistics — this is
what reproduces the paper's observation that IBM-Q Cairo needs ~21 extra
CNOTs for the (3, 6) classifier while the fully connected IonQ needs none.

Both passes accept *symbolic* rotation angles: every decomposition rewrites
angles as scalar multiples of the source angle, which
:class:`~repro.quantum.operations.ScaledParameter` represents exactly, and
routing never looks at parameter values at all.  :class:`TranspileCache`
exploits this to transpile each circuit *structure* once — subsequent circuits
with the same gate skeleton but different angles only pay a parameter
re-binding, which is what makes repeated SWAP-test sweeps on the noisy
backends cheap.  Each cached template additionally carries a compiled
:class:`~repro.quantum.program.SweepProgram` (built lazily on first sweep
use): the noisy backend's whole-grid route executes whole sweeps straight
from the cache — bindings in, tiled read-outs out — without materialising
one bound circuit per sweep element.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import TranspilerError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Instruction, Parameter, ParamValue, ScaledParameter
from repro.quantum.topology import CouplingMap
from repro.utils.cache import LRUCache

#: Gates the simulated hardware executes natively.
BASIS_GATES = ("rx", "ry", "rz", "h", "cx", "id", "x", "z")

_HALF_PI = math.pi / 2


def _scale(param: ParamValue, factor: float) -> ParamValue:
    """``factor * param`` for concrete or symbolic parameters.

    Floats multiply directly; a :class:`Parameter` becomes a
    :class:`ScaledParameter` (or passes through unchanged when the factor is
    one); an existing :class:`ScaledParameter` folds the factor into its
    coefficient.  This is the only arithmetic the decompositions need.
    """
    if isinstance(param, Parameter):
        return param if factor == 1.0 else ScaledParameter(param, factor)
    if isinstance(param, ScaledParameter):
        return param if factor == 1.0 else param.scaled(factor)
    return float(param) * factor


def _decompose_instruction(instruction: Instruction) -> List[Instruction]:
    """Rewrite one instruction into the native basis."""
    name = instruction.name
    qubits = instruction.qubits

    if name in BASIS_GATES or name in ("measure", "reset", "barrier"):
        return [instruction]

    def gate(gname: str, gqubits: Tuple[int, ...], *params: ParamValue) -> Instruction:
        return Instruction(name=gname, qubits=gqubits, params=params, label=instruction.label)

    if name == "y":
        (q,) = qubits
        # Y = RZ(pi) then X up to global phase.
        return [gate("rz", (q,), math.pi), gate("x", (q,))]
    if name == "s":
        (q,) = qubits
        return [gate("rz", (q,), _HALF_PI)]
    if name == "t":
        (q,) = qubits
        return [gate("rz", (q,), math.pi / 4)]
    if name == "r":
        (q,) = qubits
        theta, phi = instruction.params
        # R(theta, phi) = RZ(phi) RX(theta) RZ(-phi): conjugating RX by RZ
        # tilts the rotation axis into the X-Y plane at azimuth phi.
        return [
            gate("rz", (q,), _scale(phi, -1.0)),
            gate("rx", (q,), _scale(theta, 1.0)),
            gate("rz", (q,), _scale(phi, 1.0)),
        ]
    if name == "u3":
        (q,) = qubits
        theta, phi, lam = instruction.params
        return [
            gate("rz", (q,), _scale(lam, 1.0)),
            gate("ry", (q,), _scale(theta, 1.0)),
            gate("rz", (q,), _scale(phi, 1.0)),
        ]
    if name == "cz":
        control, target = qubits
        return [gate("h", (target,)), gate("cx", (control, target)), gate("h", (target,))]
    if name == "swap":
        a, b = qubits
        return [gate("cx", (a, b)), gate("cx", (b, a)), gate("cx", (a, b))]
    if name == "cry":
        (theta,) = instruction.params
        control, target = qubits
        return [
            gate("ry", (target,), _scale(theta, 0.5)),
            gate("cx", (control, target)),
            gate("ry", (target,), _scale(theta, -0.5)),
            gate("cx", (control, target)),
        ]
    if name == "crz":
        (theta,) = instruction.params
        control, target = qubits
        return [
            gate("rz", (target,), _scale(theta, 0.5)),
            gate("cx", (control, target)),
            gate("rz", (target,), _scale(theta, -0.5)),
            gate("cx", (control, target)),
        ]
    if name == "crx":
        (theta,) = instruction.params
        control, target = qubits
        return [
            gate("h", (target,)),
            gate("rz", (target,), _scale(theta, 0.5)),
            gate("cx", (control, target)),
            gate("rz", (target,), _scale(theta, -0.5)),
            gate("cx", (control, target)),
            gate("h", (target,)),
        ]
    if name == "rzz":
        (theta,) = instruction.params
        a, b = qubits
        return [gate("cx", (a, b)), gate("rz", (b,), _scale(theta, 1.0)), gate("cx", (a, b))]
    if name == "rxx":
        (theta,) = instruction.params
        a, b = qubits
        return [
            gate("h", (a,)), gate("h", (b,)),
            gate("cx", (a, b)), gate("rz", (b,), _scale(theta, 1.0)), gate("cx", (a, b)),
            gate("h", (a,)), gate("h", (b,)),
        ]
    if name == "ryy":
        (theta,) = instruction.params
        a, b = qubits
        return [
            gate("rx", (a,), _HALF_PI), gate("rx", (b,), _HALF_PI),
            gate("cx", (a, b)), gate("rz", (b,), _scale(theta, 1.0)), gate("cx", (a, b)),
            gate("rx", (a,), -_HALF_PI), gate("rx", (b,), -_HALF_PI),
        ]
    if name == "cswap":
        control, target_a, target_b = qubits
        # CSWAP = CNOT(b->a) . CCX(control, a, b) . CNOT(b->a)
        ccx = _toffoli(control, target_a, target_b)
        return (
            [gate("cx", (target_b, target_a))]
            + ccx
            + [gate("cx", (target_b, target_a))]
        )
    raise TranspilerError(f"no decomposition known for gate '{name}'")


def _toffoli(control_a: int, control_b: int, target: int) -> List[Instruction]:
    """Standard 6-CNOT Toffoli decomposition into {h, t, tdg(=rz(-pi/4)), cx}."""
    t = math.pi / 4

    def g(name: str, qubits: Tuple[int, ...], *params: float) -> Instruction:
        return Instruction(name=name, qubits=qubits, params=params)

    return [
        g("h", (target,)),
        g("cx", (control_b, target)),
        g("rz", (target,), -t),
        g("cx", (control_a, target)),
        g("rz", (target,), t),
        g("cx", (control_b, target)),
        g("rz", (target,), -t),
        g("cx", (control_a, target)),
        g("rz", (control_b,), t),
        g("rz", (target,), t),
        g("h", (target,)),
        g("cx", (control_a, control_b)),
        g("rz", (control_a,), t),
        g("rz", (control_b,), -t),
        g("cx", (control_a, control_b)),
    ]


def decompose_to_basis(circuit: QuantumCircuit, allow_symbolic: bool = False) -> QuantumCircuit:
    """Rewrite every gate of ``circuit`` into the native basis set.

    The decomposition is applied recursively until only basis gates remain.
    Symbolic parameters on gates that need decomposition are rejected unless
    ``allow_symbolic`` is set (used by :class:`TranspileCache` to build
    re-bindable transpile templates; the rewritten angles are then
    :class:`~repro.quantum.operations.ScaledParameter` expressions).
    """
    output = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, name=f"{circuit.name}_basis")
    pending = list(circuit.instructions)
    while pending:
        instruction = pending.pop(0)
        if instruction.name in BASIS_GATES or instruction.name in ("measure", "reset", "barrier"):
            output.append(instruction)
            continue
        if not allow_symbolic and instruction.is_parameterized:
            names = [p.name for p in instruction.free_parameters]
            raise TranspilerError(
                f"cannot transpile instruction '{instruction.name}' with unbound parameters {names}"
            )
        replacement = _decompose_instruction(instruction)
        pending = replacement + pending
    return output


@dataclasses.dataclass
class RoutingResult:
    """Outcome of routing a circuit onto a device topology.

    Attributes
    ----------
    circuit:
        Routed circuit (logical indices already rewritten to physical ones).
    layout:
        Final logical-to-physical qubit mapping.
    inserted_swaps:
        Number of SWAP operations inserted.
    added_cx:
        Extra CNOTs contributed by routing (three per inserted SWAP).
    """

    circuit: QuantumCircuit
    layout: Dict[int, int]
    inserted_swaps: int

    @property
    def added_cx(self) -> int:
        return 3 * self.inserted_swaps


def route_circuit(
    circuit: QuantumCircuit,
    coupling_map: CouplingMap,
    initial_layout: Optional[Sequence[int]] = None,
) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate respects ``coupling_map``.

    Uses a simple greedy strategy: when a gate's qubits are not adjacent,
    swap one operand along the shortest physical path until they meet.  The
    logical-to-physical layout is tracked so later gates see the updated
    placement.  Three-qubit gates must be decomposed before routing.
    """
    if circuit.num_qubits > coupling_map.num_qubits:
        raise TranspilerError(
            f"circuit needs {circuit.num_qubits} qubits but the device has "
            f"{coupling_map.num_qubits}"
        )
    if initial_layout is None:
        layout = {logical: logical for logical in range(circuit.num_qubits)}
    else:
        if len(initial_layout) != circuit.num_qubits:
            raise TranspilerError("initial_layout must list one physical qubit per logical qubit")
        layout = {logical: int(physical) for logical, physical in enumerate(initial_layout)}

    routed = QuantumCircuit(coupling_map.num_qubits, circuit.num_clbits or 0, name=f"{circuit.name}_routed")
    inserted_swaps = 0

    def swap_gates(a: int, b: int) -> None:
        routed.cx(a, b)
        routed.cx(b, a)
        routed.cx(a, b)

    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            # Barriers survive routing with their qubits mapped to the
            # current layout, so a routed circuit keeps the seams its
            # builder marked (the whole-grid discriminator barriers the
            # trained/encoder seam).  They cost nothing: compilation,
            # binding walks and depth statistics all skip them.
            routed.append(
                Instruction(
                    name="barrier",
                    qubits=tuple(layout[q] for q in instruction.qubits),
                    label=instruction.label,
                )
            )
            continue
        if instruction.num_qubits <= 1 or instruction.is_measurement:
            physical = tuple(layout[q] for q in instruction.qubits)
            routed.append(
                Instruction(
                    name=instruction.name,
                    qubits=physical,
                    params=instruction.params,
                    clbits=instruction.clbits,
                    label=instruction.label,
                )
            )
            continue
        if instruction.num_qubits > 2:
            raise TranspilerError(
                f"route_circuit requires gates on at most two qubits; decompose "
                f"'{instruction.name}' first"
            )
        logical_a, logical_b = instruction.qubits
        physical_a, physical_b = layout[logical_a], layout[logical_b]
        if not coupling_map.are_coupled(physical_a, physical_b):
            path = coupling_map.shortest_path(physical_a, physical_b)
            # Move operand A along the path until adjacent to B.
            for hop in path[1:-1]:
                swap_gates(physical_a, hop)
                inserted_swaps += 1
                # Update the layout: whichever logical qubit sat on ``hop``
                # now sits on ``physical_a`` and vice versa.
                occupant = next((l for l, p in layout.items() if p == hop), None)
                layout[logical_a] = hop
                if occupant is not None:
                    layout[occupant] = physical_a
                physical_a = hop
        routed.append(
            Instruction(
                name=instruction.name,
                qubits=(layout[logical_a], layout[logical_b]),
                params=instruction.params,
                label=instruction.label,
            )
        )
    return RoutingResult(circuit=routed, layout=layout, inserted_swaps=inserted_swaps)


@dataclasses.dataclass
class TranspileResult:
    """Combined decomposition + routing outcome with summary statistics."""

    circuit: QuantumCircuit
    layout: Dict[int, int]
    inserted_swaps: int
    cx_count: int
    depth: int

    @property
    def added_cx(self) -> int:
        """CNOTs added purely by routing."""
        return 3 * self.inserted_swaps


def transpile(
    circuit: QuantumCircuit,
    coupling_map: Optional[CouplingMap] = None,
    initial_layout: Optional[Sequence[int]] = None,
    allow_symbolic: bool = False,
) -> TranspileResult:
    """Decompose to the native basis and (optionally) route onto a device."""
    decomposed = decompose_to_basis(circuit, allow_symbolic=allow_symbolic)
    if coupling_map is None:
        counts = decomposed.count_ops()
        return TranspileResult(
            circuit=decomposed,
            layout={q: q for q in range(decomposed.num_qubits)},
            inserted_swaps=0,
            cx_count=counts.get("cx", 0),
            depth=decomposed.depth(),
        )
    routing = route_circuit(decomposed, coupling_map, initial_layout=initial_layout)
    counts = routing.circuit.count_ops()
    return TranspileResult(
        circuit=routing.circuit,
        layout=routing.layout,
        inserted_swaps=routing.inserted_swaps,
        cx_count=counts.get("cx", 0),
        depth=routing.circuit.depth(),
    )


# --------------------------------------------------------------------------- #
# Structure-keyed transpile caching
# --------------------------------------------------------------------------- #


def circuit_structure_key(circuit: QuantumCircuit) -> tuple:
    """Hashable key identifying a circuit's gate *structure*.

    Two circuits share a key exactly when they have the same width and the
    same ordered sequence of (instruction name, qubits, clbits) — parameter
    values are deliberately ignored.  A parameter-shift sweep of discriminator
    circuits therefore maps to a single key.
    """
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple((inst.name, inst.qubits, inst.clbits) for inst in circuit.instructions),
    )


@dataclasses.dataclass
class _TranspileTemplate:
    """One cached symbolic transpilation: template + slots + compiled program.

    ``program`` is the compiled :class:`~repro.quantum.program.SweepProgram`
    of the template — the entry's primary artefact for sweep execution.  It
    is compiled lazily on first sweep use (plain ``run`` calls that only
    re-bind never pay for it, and circuits a program cannot represent, e.g.
    with resets, still transpile normally) and then reused for every repeat
    sweep of the structure.
    """

    result: TranspileResult
    slots: Tuple[Parameter, ...]
    program: object = None

    def ensure_program(self):
        """Compile (once) and return the template's sweep program.

        The program's binding columns are ordered exactly like ``slots``, so
        the slot-value vector extracted from an incoming bound circuit is
        directly a bindings row.
        """
        from repro.quantum.program import SweepProgram

        if self.program is None:
            self.program = SweepProgram.compile(
                self.result.circuit,
                bind_floats=False,
                parameters=self.slots,
                name=f"transpiled({self.result.circuit.name})",
            )
        return self.program


class TranspileCache:
    """Structure-keyed cache that turns repeat transpilations into re-binds.

    The first circuit of a given structure is transpiled *symbolically*: every
    bound gate angle is replaced with a fresh slot
    :class:`~repro.quantum.operations.Parameter`, the decomposition rewrites
    those slots into :class:`~repro.quantum.operations.ScaledParameter`
    expressions, and routing is value-independent.  Every later circuit with
    the same structure — e.g. the hundreds of parameter-shift variants of one
    SWAP-test discriminator — only pays a flat parameter re-bind of the cached
    template, skipping decomposition and routing entirely.

    Entries are evicted LRU once ``max_entries`` distinct structures are held.
    Routing statistics (CX count, inserted SWAPs, depth) are structure
    properties, so hits report the template's numbers unchanged.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries <= 0:
            raise TranspilerError(f"max_entries must be positive, got {max_entries}")
        self._entries = LRUCache(max_entries)
        #: Number of cache hits (re-binds) and misses (full transpilations).
        # The counters get their own lock: ``_entries`` serialises its own
        # accesses internally, but ``hits += 1`` is a read-modify-write that
        # thread-strategy shards sharing one cache would race (REP101).
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        """Cache statistics: hits, misses and resident entry count."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every cached template and reset the statistics."""
        self._entries.clear()
        with self._stats_lock:
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _map_key(coupling_map: Optional[CouplingMap]) -> tuple:
        if coupling_map is None:
            return ()
        return (coupling_map.num_qubits, tuple(coupling_map.edges))

    @staticmethod
    def _symbolic_twin(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Tuple[Parameter, ...]]:
        """Copy of ``circuit`` with every gate angle replaced by a slot parameter."""
        twin = circuit.copy()
        slots: List[Parameter] = []
        instructions: List[Instruction] = []
        for inst in circuit.instructions:
            if inst.is_gate and inst.params:
                new_params = []
                for _ in inst.params:
                    slot = Parameter(f"__transpile_slot_{len(slots)}")
                    slots.append(slot)
                    new_params.append(slot)
                instructions.append(dataclasses.replace(inst, params=tuple(new_params)))
            else:
                instructions.append(inst)
        twin._instructions = instructions
        return twin, tuple(slots)

    @staticmethod
    def _parameter_values(circuit: QuantumCircuit) -> List[float]:
        """Bound gate angles in structure order (the slot-binding vector)."""
        return [
            float(p)
            for inst in circuit.instructions
            if inst.is_gate and inst.params
            for p in inst.params
        ]

    # ------------------------------------------------------------------ #
    def template(
        self,
        circuit: QuantumCircuit,
        coupling_map: Optional[CouplingMap] = None,
    ) -> Tuple[_TranspileTemplate, List[float]]:
        """The cached template for ``circuit``'s structure plus its slot values.

        :meth:`transpile` re-binds the value vector into the entry's symbolic
        transpilation; the entry also carries (via
        :meth:`_TranspileTemplate.ensure_program`) the compiled
        :class:`~repro.quantum.program.SweepProgram` of the structure, for
        which the value vector is a bindings row.  ``circuit`` must be fully
        bound.
        """
        if any(inst.is_parameterized for inst in circuit.instructions):
            raise TranspilerError(
                "transpile templates are keyed by structure and require fully "
                f"bound circuits; '{circuit.name}' has unbound parameters"
            )
        key = (circuit_structure_key(circuit), self._map_key(coupling_map))
        entry = self._entries.get(key)
        if entry is None:
            with self._stats_lock:
                self.misses += 1
            twin, slots = self._symbolic_twin(circuit)
            template = transpile(twin, coupling_map, allow_symbolic=True)
            entry = _TranspileTemplate(result=template, slots=slots)
            self._entries.put(key, entry)
        else:
            with self._stats_lock:
                self.hits += 1
        return entry, self._parameter_values(circuit)

    def symbolic_template(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence[Parameter],
        coupling_map: Optional[CouplingMap] = None,
    ) -> _TranspileTemplate:
        """The cached template of an already-symbolic circuit.

        The whole-grid seam: ``circuit`` carries genuine
        :class:`~repro.quantum.operations.Parameter` angles (trained *and*
        data-encoder sites) and is transpiled directly — no slot twin —
        with ``parameters`` fixing the compiled program's binding-column
        order, so a ``(rows x samples, columns)`` grid bindings matrix
        executes straight from the cache.  Keyed separately from the
        bound-circuit templates (the structure key ignores parameter
        values, so a distinct key shape prevents collisions).
        """
        parameters = tuple(parameters)
        key = (
            "symbolic",
            circuit_structure_key(circuit),
            tuple(param.name for param in parameters),
            self._map_key(coupling_map),
        )
        entry = self._entries.get(key)
        if entry is None:
            with self._stats_lock:
                self.misses += 1
            template = transpile(circuit, coupling_map, allow_symbolic=True)
            entry = _TranspileTemplate(result=template, slots=parameters)
            self._entries.put(key, entry)
        else:
            with self._stats_lock:
                self.hits += 1
        return entry

    def transpile(
        self,
        circuit: QuantumCircuit,
        coupling_map: Optional[CouplingMap] = None,
        initial_layout: Optional[Sequence[int]] = None,
    ) -> TranspileResult:
        """Transpile ``circuit``, re-binding a cached template when possible.

        The output is identical (instruction for instruction) to calling
        :func:`transpile` directly.  Circuits that still carry symbolic
        parameters bypass the cache — their structure key cannot distinguish
        different bindings — as do calls with an explicit ``initial_layout``.
        """
        if initial_layout is not None or any(
            inst.is_parameterized for inst in circuit.instructions
        ):
            return transpile(circuit, coupling_map, initial_layout=initial_layout)

        entry, values = self.template(circuit, coupling_map)
        binding = dict(zip(entry.slots, values))
        template = entry.result
        bound = template.circuit.bind_parameters(binding)
        bound.name = (
            f"{circuit.name}_basis_routed" if coupling_map is not None else f"{circuit.name}_basis"
        )
        return TranspileResult(
            circuit=bound,
            layout=dict(template.layout),
            inserted_swaps=template.inserted_swaps,
            cx_count=template.cx_count,
            depth=template.depth,
        )
