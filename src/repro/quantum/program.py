"""Compile-once sweep programs: the :class:`SweepProgram` IR.

The training hot path is dominated by *structure-sharing sweeps*: every
parameter-shift row and every data sample of a QuClassi gradient evaluation
executes the **same** gate skeleton with different rotation angles, so the
per-gate plan — gate matrices, noise channels — need only be derived once.

:class:`SweepProgram` splits that hot path into **compile once / execute
many**:

* ``compile`` walks one representative circuit and produces an ordered plan
  of :class:`GateStep` entries — fixed unitaries with their matrices
  precomputed, and *parameter bind sites* whose angles are read out of a
  ``(batch, columns)`` bindings matrix at execution time (affine slots
  ``coefficient * column`` represent the
  :class:`~repro.quantum.operations.ScaledParameter` expressions the
  transpiler emits).
* :class:`DensitySuperoperatorEngine` additionally precomposes, per gate
  step, the gate's noise channels into a single ``(4**k, 4**k)``
  superoperator — and for fixed gates the unitary itself is folded in — so a
  repeat sweep on a noisy backend applies **one** contraction per gate and
  never resolves Kraus channels again.  Runs of fixed gates on one block of
  the layout schedule (:func:`density_schedule`) are multiplied into a
  single contraction at plan time, and the fixed tail after the last
  parametric step is folded into a measurement observable
  (:class:`ReadoutPlan`), so a tile reads out with one matmul.
* :class:`StatevectorEngine` reads a SWAP test — ``h`` on the ancilla, two
  registers that never touch, then one ``cswap(ancilla, a_i, b_i)`` per
  pair and a final ``h`` — as a register overlap
  (:func:`swap_test_registers`): each register evolves as its own
  sub-program and ``P(ancilla = 0) = (1 + |<A|B>|**2) / 2``, so the
  ``2**n`` discriminator state is never built.  Every other program reads
  its final state stepwise.
* :class:`StatevectorEngine` also runs a program's leading one-qubit steps
  (:func:`factor_region`) on per-qubit ``(batch, 2)`` factors and builds
  the ``2**n`` register once, as their Kronecker product; every later step
  runs on the register.
* :meth:`SweepProgram.execute` streams the sweep through
  :class:`~repro.quantum.batched.BatchedStatevector` /
  :class:`~repro.quantum.batched_density.BatchedDensityMatrix` tile by tile
  under a :class:`TilePlan` that budgets **both** workload axes — parameter
  rows and data-sample columns — and reassembles the read-out bit-identically
  to the untiled pass (tiles are contiguous in row-major order, and NumPy's
  stacked multinomial consumes the bit generator row by row, so downstream
  shot sampling is draw-for-draw independent of the tiling).

Consumers compile through caches so the plan is derived once per circuit
*structure*: the simulators key whole-grid programs by
:func:`~repro.quantum.transpiler.circuit_structure_key` plus the
binding-column order, and :class:`~repro.quantum.transpiler.TranspileCache`
attaches a compiled program to every transpile template so noisy sweeps
execute straight from the cache.
"""

from __future__ import annotations

import bisect
import dataclasses
import os
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro import arrays
from repro.analysis.verify import full_verification_enabled
from repro.arrays import COMPLEX_DTYPE
from repro.exceptions import SimulationError
from repro.quantum import gates as gate_library
from repro.quantum import kernels
from repro.quantum.batched import BatchedStatevector
from repro.quantum.batched_density import (
    BatchedDensityMatrix,
    LayoutStep,
    canonical_layout,
    channel_superoperator,
    conjugation_superoperator,
    plan_layout,
)
from repro.quantum.noise import NoiseModel, apply_readout_error
from repro.quantum.operations import Parameter, ScaledParameter


def check_deferred_measurement(instruction, measured: set, engine_name: str) -> None:
    """Reject circuits the deferred-measurement strategy cannot represent.

    Every engine (and the compiled-program executor) defers measurements to
    the end of the circuit: unitary evolution runs first, then the joint
    distribution of the measured qubits is read out once.  That is only sound
    when no operation touches a qubit *after* it has been measured and no
    qubit is measured twice — either case would silently corrupt the reported
    joint distribution.
    """
    if instruction.is_measurement:
        duplicates = measured.intersection(instruction.qubits)
        if duplicates:
            raise SimulationError(
                f"{engine_name}: qubit(s) {sorted(duplicates)} measured more than "
                "once; the deferred-measurement strategy supports a single "
                "measurement per qubit"
            )
        return
    touched = measured.intersection(instruction.qubits)
    if touched:
        raise SimulationError(
            f"{engine_name}: instruction '{instruction.name}' acts on already-"
            f"measured qubit(s) {sorted(touched)}; the deferred-measurement "
            "strategy cannot apply operations after a measurement"
        )


# --------------------------------------------------------------------------- #
# Tile planning
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """How a (parameter rows x data samples) sweep is cut into memory tiles.

    A sweep workload is a grid: ``rows`` parameter-shift vectors by
    ``samples`` data points.  A plan fixes how many of each axis one tile may
    hold so that the tile's working set stays under a single amplitude
    budget, and enumerates the tiles in **row-major contiguous** order —
    the same order as the untiled pass and the per-circuit loop, which is
    what keeps tiled shot sampling draw-for-draw identical.  A tile may hold
    several grid rows; :meth:`SweepProgram.execute` evolves the steps that
    are constant within each row once per row the tile touches
    (:meth:`tile_rows`).

    Two cost models are provided as constructors:

    * :meth:`for_circuit_sweep` — each grid element is a full circuit state
      (a SWAP-test discriminator holding both registers), so a tile of
      ``r x s`` elements costs ``r * s * element_amplitudes``.
    * :meth:`for_state_overlap` — the analytic estimator's tiled matmul,
      where a tile holds ``r`` trained-state rows *and* ``s`` data-state
      columns side by side, costing ``(r + s) * state_amplitudes``.  This is
      the accounting that makes the budget honest about **both** axes
      instead of only the batch of trained states.

    Both raise :class:`~repro.exceptions.SimulationError` when the budget
    cannot hold the smallest tile.

    Attributes
    ----------
    rows, samples:
        Grid extents.
    row_tile, sample_tile:
        Maximum rows/samples per tile.  ``sample_tile < samples`` forces
        single-row tiles so flat enumeration stays contiguous.
    max_amplitudes:
        The budget the plan was derived from (recorded for reports).
    """

    rows: int
    samples: int
    row_tile: int
    sample_tile: int
    max_amplitudes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rows < 0 or self.samples < 0:
            raise SimulationError(
                f"grid extents must be non-negative, got {self.rows} x {self.samples}"
            )
        if self.row_tile <= 0 or self.sample_tile <= 0:
            raise SimulationError(
                f"tile extents must be positive, got {self.row_tile} x {self.sample_tile}"
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _fitting(what: str, size: int, max_amplitudes: int, smallest: int) -> int:
        """How many ``size``-amplitude states fit the budget; at least ``smallest``."""
        if size <= 0 or max_amplitudes <= 0:
            raise SimulationError(
                f"{what}_amplitudes and max_amplitudes must be positive, got "
                f"{size} and {max_amplitudes}"
            )
        if max_amplitudes < smallest * size:
            raise SimulationError(
                f"amplitude budget {max_amplitudes} cannot hold the smallest "
                f"tile, {smallest} state(s) of {size} amplitudes; raise "
                f"max_amplitudes to at least {smallest * size}"
            )
        return max_amplitudes // size

    @classmethod
    def for_circuit_sweep(
        cls, rows: int, samples: int, element_amplitudes: int, max_amplitudes: int
    ) -> "TilePlan":
        """Plan a sweep whose every (row, sample) pair is one circuit state."""
        budget_elements = cls._fitting("element", element_amplitudes, max_amplitudes, 1)
        if samples and budget_elements >= samples:
            row_tile = budget_elements // samples
            sample_tile = samples
        else:
            row_tile = 1
            sample_tile = min(samples, budget_elements) or 1
        return cls(
            rows=rows,
            samples=samples,
            row_tile=row_tile,
            sample_tile=sample_tile,
            max_amplitudes=int(max_amplitudes),
        )

    @classmethod
    def for_grid_sweep(
        cls, rows: int, samples: int, element_amplitudes: int, max_amplitudes: int
    ) -> "TilePlan":
        """The :meth:`for_circuit_sweep` plan, under the name older callers use."""
        return cls.for_circuit_sweep(rows, samples, element_amplitudes, max_amplitudes)

    @classmethod
    def for_state_overlap(
        cls, rows: int, samples: int, state_amplitudes: int, max_amplitudes: int
    ) -> "TilePlan":
        """Plan a tiled overlap matmul holding row states and sample columns.

        One tile whenever all ``rows + samples`` states fit the budget;
        otherwise up to half the budget holds sample columns and the rest
        row states.
        """
        budget_states = cls._fitting("state", state_amplitudes, max_amplitudes, 2)
        if rows + samples <= budget_states:
            sample_tile = samples or 1
        else:
            sample_tile = min(samples, budget_states // 2) or 1
        row_tile = min(rows, budget_states - sample_tile) or 1
        return cls(
            rows=rows,
            samples=samples,
            row_tile=row_tile,
            sample_tile=sample_tile,
            max_amplitudes=int(max_amplitudes),
        )

    # ------------------------------------------------------------------ #
    @property
    def total_elements(self) -> int:
        """Number of grid elements (rows x samples)."""
        return self.rows * self.samples

    @property
    def tile_elements(self) -> int:
        """Largest number of grid elements alive in one tile."""
        if self.sample_tile >= self.samples:
            return min(self.row_tile, self.rows) * max(self.samples, 1)
        return self.sample_tile

    @property
    def num_tiles(self) -> int:
        return len(list(self.flat_tiles()))

    def row_tiles(self) -> Iterator[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` spans over the row axis."""
        for start in range(0, self.rows, self.row_tile):
            yield start, min(self.rows, start + self.row_tile)

    def sample_tiles(self) -> Iterator[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` spans over the sample axis."""
        for start in range(0, self.samples, self.sample_tile):
            yield start, min(self.samples, start + self.sample_tile)

    def flat_tiles(self) -> Iterator[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` ranges over the row-major flat index.

        Full-row blocks when a row fits the budget, within-row sample blocks
        otherwise (one row at a time, so the tiles stay contiguous) — either
        way the concatenation of the tiles is exactly the untiled row-major
        order.
        """
        if self.total_elements == 0:
            return
        if self.sample_tile >= self.samples:
            chunk = self.row_tile * self.samples
            for start in range(0, self.total_elements, chunk):
                yield start, min(self.total_elements, start + chunk)
            return
        for row in range(self.rows):
            base = row * self.samples
            for start, stop in self.sample_tiles():
                yield base + start, base + stop

    def tile_rows(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """The grid rows the flat tile ``[start, stop)`` touches.

        Returns ``(firsts, counts)``: the flat index of the tile's first
        element in each row it touches, and how many of its elements lie in
        that row.  ``counts`` sums to ``stop - start`` whether the tile
        spans whole rows, splits one, or starts and ends mid-row.
        """
        rows = np.arange(start // self.samples, (stop - 1) // self.samples + 2)
        bounds = np.clip(rows * self.samples, start, stop)
        return bounds[:-1], np.diff(bounds)


# --------------------------------------------------------------------------- #
# The program IR
# --------------------------------------------------------------------------- #

#: A slot is ``("value", v)`` for a fixed angle or ``("column", c, coeff)``
#: reading ``coeff * bindings[:, c]`` at execution time.
Slot = Tuple


@dataclasses.dataclass(frozen=True)
class GateStep:
    """One gate of a compiled sweep: fixed unitary or parameter bind site.

    ``matrix`` holds the precomputed ``(2**k, 2**k)`` unitary when no slot
    reads a bindings column (the step is *fixed* across the whole sweep);
    parametric steps build a shared or per-element matrix from the bindings
    at execution time.
    """

    name: str
    qubits: Tuple[int, ...]
    slots: Tuple[Slot, ...]
    matrix: Optional[np.ndarray] = None

    @property
    def is_fixed(self) -> bool:
        return self.matrix is not None


#: The retired plan-time fusion switch.  Density schedules now fold runs of
#: fixed steps by default (:func:`density_schedule`), so the variable has no
#: meaning left: :meth:`SweepProgram.compile` refuses to run while it is set.
OPTIMIZE_PROGRAMS_ENV = "REPRO_OPTIMIZE_PROGRAMS"


def optimization_enabled() -> bool:
    """Whether ``REPRO_OPTIMIZE_PROGRAMS`` is set to a true value.

    The only reader of the retired variable; a true value makes every
    compile fail closed instead of silently meaning nothing.
    """
    return os.environ.get(OPTIMIZE_PROGRAMS_ENV, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


class SweepProgram:
    """Compiled execution plan of one structure-sharing sweep.

    Build via :meth:`compile`; execute via :meth:`evolve` (full batch, final
    states retained), :meth:`execute` (tiled, read-out probabilities only)
    or :meth:`read_out` (the readout first and the final states on
    demand, for ``run``).
    Programs are immutable after compilation and safe to cache/share across
    calls — all per-execution state lives in the engines' batched states.
    """

    def __init__(
        self,
        *,
        num_qubits: int,
        num_clbits: int,
        steps: Sequence[GateStep],
        measured_qubits: Sequence[int],
        clbits: Sequence[int],
        num_columns: int,
        parameters: Tuple[Parameter, ...],
        column_sites: Tuple[Tuple[int, int], ...],
        name: str,
    ) -> None:
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.steps: Tuple[GateStep, ...] = tuple(steps)
        self.measured_qubits: Tuple[int, ...] = tuple(measured_qubits)
        self.clbits: Tuple[int, ...] = tuple(clbits)
        self.num_columns = int(num_columns)
        #: Symbolic parameters defining the column order (symbolic mode only).
        self.parameters = parameters
        #: ``(instruction position, param position)`` of each float column in
        #: the *reference* circuit (bound-reference mode only; barrier
        #: positions included).  Introspection only.
        self.column_sites = column_sites
        self.name = name

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        circuit,
        *,
        bind_floats: bool,
        parameters: Optional[Sequence[Parameter]] = None,
        name: Optional[str] = None,
    ) -> "SweepProgram":
        """Compile one representative circuit into a sweep program.

        Two modes cover every consumer:

        * ``bind_floats=True`` — the representative is one *bound* circuit of
          a sweep: every float gate angle becomes a bindings column, because
          sibling circuits are free to bind a different value there.
          Symbolic parameters are rejected.
        * ``bind_floats=False`` — the representative is *symbolic* (a
          transpile template or the builder's trained-state circuit): float
          angles are genuine structural constants (compiled into fixed
          matrices, eligible for noise precomposition), and each distinct
          :class:`Parameter` becomes a column.  ``parameters`` fixes the
          column order (defaults to first appearance);
          :class:`ScaledParameter` angles become affine slots.

        Resets are rejected (they need per-element projective randomness the
        vectorised engines do not model), as are circuits the
        deferred-measurement strategy cannot represent.  So is any compile
        while the retired ``REPRO_OPTIMIZE_PROGRAMS`` variable is set.
        """
        if optimization_enabled():
            raise SimulationError(
                f"{OPTIMIZE_PROGRAMS_ENV} was removed: plan-time fusion is gone "
                "and density schedules now fold runs of fixed steps by "
                f"default; unset {OPTIMIZE_PROGRAMS_ENV}"
            )
        program_name = name or f"sweep({getattr(circuit, 'name', 'circuit')})"
        column_of: Dict[Parameter, int] = {}
        explicit_order = parameters is not None
        if explicit_order:
            for param in parameters:
                if param in column_of:
                    raise SimulationError(
                        f"{program_name}: duplicate parameter {param!r} in ordering"
                    )
                column_of[param] = len(column_of)
        column_sites: List[Tuple[int, int]] = []
        steps: List[GateStep] = []
        measured_qubits: List[int] = []
        measured_set: set = set()
        clbits: List[int] = []

        def parameter_column(param: Parameter) -> int:
            column = column_of.get(param)
            if column is None:
                if explicit_order:
                    raise SimulationError(
                        f"{program_name}: parameter {param!r} not in the "
                        "provided parameter ordering"
                    )
                column = len(column_of)
                column_of[param] = column
            return column

        for position, instruction in enumerate(circuit.instructions):
            if instruction.name == "barrier":
                continue
            check_deferred_measurement(instruction, measured_set, program_name)
            if instruction.is_measurement:
                measured_qubits.extend(instruction.qubits)
                measured_set.update(instruction.qubits)
                clbits.extend(instruction.clbits)
                continue
            if instruction.name == "reset":
                raise SimulationError(
                    f"{program_name}: cannot compile resets — they need "
                    "per-element projective randomness the vectorised sweep "
                    "engines do not model"
                )
            if not instruction.is_gate:
                raise SimulationError(
                    f"{program_name}: cannot compile non-unitary instruction "
                    f"'{instruction.name}'"
                )
            slots: List[Slot] = []
            for param_position, param in enumerate(instruction.params):
                if isinstance(param, Parameter):
                    if bind_floats:
                        raise SimulationError(
                            f"{program_name}: circuit has unbound parameter "
                            f"{param!r}"
                        )
                    slots.append(("column", parameter_column(param), 1.0))
                elif isinstance(param, ScaledParameter):
                    if bind_floats:
                        raise SimulationError(
                            f"{program_name}: circuit has unbound parameter "
                            f"{param.parameter!r}"
                        )
                    slots.append(
                        ("column", parameter_column(param.parameter), param.coefficient)
                    )
                elif bind_floats:
                    column = len(column_of) + len(column_sites)
                    column_sites.append((position, param_position))
                    slots.append(("column", column, 1.0))
                else:
                    slots.append(("value", float(param)))
            if any(slot[0] == "column" for slot in slots):
                matrix = None
            else:
                matrix = gate_library.gate_matrix(
                    instruction.name, *(slot[1] for slot in slots)
                )
            steps.append(
                GateStep(
                    name=instruction.name,
                    qubits=instruction.qubits,
                    slots=tuple(slots),
                    matrix=matrix,
                )
            )
        program = cls(
            num_qubits=circuit.num_qubits,
            num_clbits=circuit.num_clbits,
            steps=steps,
            measured_qubits=measured_qubits,
            clbits=clbits,
            num_columns=len(column_of) + len(column_sites),
            parameters=tuple(
                sorted(column_of, key=lambda param: column_of[param])
            ),
            column_sites=tuple(column_sites),
            name=program_name,
        )
        # Static verification at the compile boundary: the cheap structural
        # subset (bind-column/qubit/read-out bounds) always runs — compiles
        # are structure-cached, so it costs one linear walk per structure —
        # and REPRO_VERIFY=1 upgrades to the full numerical level.  A
        # plan-time bug aborts here instead of surfacing as wrong sweep
        # numbers three layers down.
        from repro.analysis.verify import verify_compilation

        verify_compilation(program)
        return program

    def _check_bindings(self, bindings) -> np.ndarray:
        bindings = np.asarray(bindings, dtype=float)
        if bindings.ndim != 2:
            raise SimulationError(
                f"{self.name}: bindings must be 2-D (batch, columns), got "
                f"shape {bindings.shape}"
            )
        if bindings.shape[1] != self.num_columns:
            raise SimulationError(
                f"{self.name}: expected {self.num_columns} binding column(s), "
                f"got {bindings.shape[1]}"
            )
        if bindings.shape[0] == 0:
            raise SimulationError(f"{self.name}: cannot execute an empty batch")
        return bindings

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _resolve_operands(
        self, bindings: np.ndarray, steps: range, samples: Optional[int] = None
    ) -> List:
        """Per-step gate-operand plan for one sweep's **full** bindings.

        For every parametric step in ``steps``, decide once — from the whole
        batch, never from an individual tile — how the step binds its
        angles: identically everywhere (``shared``: one ``(2**k, 2**k)``
        matrix, built here), identically within each grid row of
        ``samples`` consecutive elements (``rows``), or per element
        (``batched``); the latter two keep the evaluated columns, sliced per
        tile later.  Making the decision tile-independent is what keeps
        tiled execution bit-identical to the untiled pass: a one-element
        tile must not collapse onto the shared-matrix code path when the
        full sweep takes the batched one.  Fixed steps and steps outside
        ``steps`` get ``None``; without ``samples`` no step is ``rows``.
        """
        operands: List = [None] * len(self.steps)
        for index in steps:
            step = self.steps[index]
            if step.is_fixed:
                continue
            columns: List = []
            scalars: List[float] = []
            kind = "shared"
            for slot in step.slots:
                if slot[0] == "value":
                    columns.append(slot[1])
                    scalars.append(slot[1])
                    continue
                _, column, coefficient = slot
                values = bindings[:, column]
                if coefficient != 1.0:
                    values = values * coefficient
                columns.append(values)
                if kind == "shared" and np.all(values == values[0]):
                    scalars.append(float(values[0]))
                elif kind != "batched" and samples and np.all(
                    values.reshape(-1, samples) == values[::samples, None]
                ):
                    kind = "rows"
                else:
                    kind = "batched"
            if kind == "shared":
                operands[index] = (
                    "shared",
                    gate_library.gate_matrix(step.name, *scalars),
                )
            else:
                operands[index] = (kind, columns)
        return operands

    def _step_matrix(self, step: GateStep, operand, elements):
        """The gate matrix (shared or batched) of one step for ``elements``.

        ``elements`` selects flat sweep elements: a tile's slice, or the
        index array of one element per grid row.
        """
        if operand is None:
            return step.matrix
        if operand[0] == "shared":
            return operand[1]
        return gate_library.gate_matrix_batch(
            step.name,
            *(
                column if np.isscalar(column) else column[elements]
                for column in operand[1]
            ),
        )

    def _apply_steps(self, engine, plans, operands, state, steps: range, elements) -> None:
        """Apply ``steps`` to ``state``, whose batch holds ``elements``.

        ``plans`` are the engine's step plans, resolved once per sweep; a
        ``None`` plan marks a step the engine folded into an earlier one
        (:func:`density_schedule`), and it is never dispatched.
        """
        for index in steps:
            plan = plans[index]
            if plan is None:
                continue
            step = self.steps[index]
            engine.apply_step(
                state, step, plan, self._step_matrix(step, operands[index], elements)
            )

    def _evolve_tile(
        self,
        engine,
        plans: tuple,
        operands: List,
        start: int,
        stop: int,
        *,
        steps: range,
        prefix: int = 0,
        tile_plan: Optional[TilePlan] = None,
    ):
        """Evolve one contiguous tile ``[start, stop)`` from ``|0...0>``.

        ``steps`` starts at step 0.  The engine's factor region
        (:meth:`StatevectorEngine.factor_region`; empty on the density
        engine) runs first: each qubit evolves its own one-qubit factor
        through the region's steps, and the register is then built once as
        the Kronecker product of the factors
        (:meth:`~repro.quantum.batched.BatchedStatevector.from_product`).
        The first ``prefix`` steps — every operand fixed, ``shared`` or
        ``rows`` (:meth:`_resolve_operands`) — evolve once per grid row of
        ``tile_plan`` that the tile touches, and one ``repeat`` then expands
        each row's state to its elements: the register's when the prefix
        covers the factor region, else the factors' before the region's
        per-element steps.  Repeating an evolved state is bit-identical to
        evolving its copies (every kernel and the product are elementwise
        over the batch axis), and the prefix is decided from the very
        bindings that feed the evolution, so it needs no certificate of its
        own.
        """
        tile = slice(start, stop)
        rows = counts = None
        batch = stop - start
        if prefix:
            rows, counts = tile_plan.tile_rows(start, stop)
            batch = len(rows)

        def expand(state):
            return state if batch == stop - start else state.repeat(counts)

        region = min(engine.factor_region(self), steps.stop)
        if region:
            factors = [engine.initial_state(batch, 1) for _ in range(self.num_qubits)]
            self._apply_factor_steps(
                engine, plans, operands, factors, range(min(prefix, region)), rows
            )
            if prefix < region:
                factors = [expand(factor) for factor in factors]
                self._apply_factor_steps(
                    engine, plans, operands, factors, range(prefix, region), tile
                )
            state = BatchedStatevector.from_product(factors)
        else:
            state = engine.initial_state(batch, self.num_qubits)
        self._apply_steps(engine, plans, operands, state, range(region, prefix), rows)
        if prefix >= region:
            state = expand(state)
        self._apply_steps(
            engine, plans, operands, state, range(max(prefix, region), steps.stop), tile
        )
        return state

    def _apply_factor_steps(
        self, engine, plans, operands, factors: List, steps: range, elements
    ) -> None:
        """Apply the one-qubit ``steps`` each to its qubit's factor in ``factors``."""
        for index in steps:
            step = self.steps[index]
            engine.apply_step(
                factors[step.qubits[0]],
                step,
                plans[index],
                self._step_matrix(step, operands[index], elements),
            )

    def _pin_noise(self, engine) -> Optional[int]:
        """The noise-model version a sweep's plans were resolved under."""
        return engine.noise_model.version if engine.is_noisy else None

    def _check_noise_pinned(self, engine, pinned: Optional[int], start: int, stop: int) -> None:
        """Fail closed when the noise model changed while the sweep ran.

        A sweep resolves its plans once; a model mutated between (or inside)
        its tiles would leave the rest of the sweep on stale plans.
        """
        current = self._pin_noise(engine)
        if current != pinned:
            raise SimulationError(
                f"{self.name}: noise_model changed during the sweep (version "
                f"{pinned} when its plans were resolved, {current} after tile "
                f"[{start}, {stop})); mutate a noise model between sweeps, "
                "not during one"
            )

    def evolve(self, bindings, engine):
        """Evolve the whole batch at once; returns the engine's batched state.

        Used by the analytic estimator, which needs every element's final
        state.  ``bindings`` is a ``(batch, num_columns)`` float matrix (one
        row per sweep element).
        """
        bindings = self._check_bindings(bindings)
        steps = range(len(self.steps))
        operands = self._resolve_operands(bindings, steps)
        pinned = self._pin_noise(engine)
        total = bindings.shape[0]
        state = self._evolve_tile(
            engine, engine.step_plans(self), operands, 0, total, steps=steps
        )
        self._check_noise_pinned(engine, pinned, 0, total)
        return state

    def read_out(self, bindings, engine):
        """The readout of ``bindings`` as ``run`` needs it, and their final states.

        Returns ``(joint, final_state)``: the ``(batch, 2**m)`` joint
        distribution of the measured qubits (``None`` without measurements)
        and a callable, to be called at most once, that returns the
        engine's batched final state.  The readout takes the route of
        :meth:`execute` on the same bindings, so it equals the untiled
        sweep bit for bit.  Stepwise or at an observable split, the batch
        evolves to the split and reads out there, and ``final_state``
        applies the steps after the split.  An overlap readout evolves only
        the two registers, and ``final_state`` evolves the whole program:
        a caller that needs only the readout never builds the ``2**n``
        state.
        """
        bindings = self._check_bindings(bindings)
        total = bindings.shape[0]
        steps = range(len(self.steps))
        pinned = self._pin_noise(engine)
        plans, readout = engine.sweep_plans(self)
        operands = self._resolve_operands(bindings, steps)
        if readout.mode == "overlap":
            joint = self._overlap_tile(engine, readout, operands, 0, total, 0, None)
            return joint, lambda: self.evolve(bindings, engine)
        split = readout.split
        state = self._evolve_tile(engine, plans, operands, 0, total, steps=range(split))
        joint = None
        if self.measured_qubits:
            joint = engine.joint_probabilities(state, self.measured_qubits, readout)

        def final_state():
            self._apply_steps(
                engine, plans, operands, state, range(split, steps.stop), slice(0, total)
            )
            self._check_noise_pinned(engine, pinned, 0, total)
            return state

        return joint, final_state

    def execute(self, bindings, engine, *, tile_plan: Optional[TilePlan] = None) -> np.ndarray:
        """Tiled execution: joint read-out probabilities, final states dropped.

        Streams contiguous row-major tiles of the bindings through the
        engine, keeping only each tile's ``(tile, 2**m)`` joint distribution
        over the measured qubits (readout error applied by noisy engines).
        The concatenated result is bit-identical to the untiled pass — per
        element the arithmetic is the same, only the batch extent differs.
        Peak engine memory is bounded by the largest tile instead of the
        whole sweep.  The engine's plans are resolved once for the whole
        sweep, and a noise model mutated while the sweep runs raises
        :class:`~repro.exceptions.SimulationError`.  How a tile reads out is
        the engine's :class:`ReadoutPlan`: stepwise, at the split where the
        density engine folded the fixed tail into a measurement observable,
        or — for a SWAP test on the statevector engine — as the overlap of
        its two register states (:meth:`_overlap_tile`), without building
        the full state.  With a ``tile_plan``, the leading steps constant
        within each of its grid rows evolve once per row a tile touches
        (:meth:`_evolve_tile`).
        """
        bindings = self._check_bindings(bindings)
        if not self.measured_qubits:
            raise SimulationError(
                f"{self.name}: cannot read out a program without measurements"
            )
        total = bindings.shape[0]
        if tile_plan is None:
            tiles: Sequence[Tuple[int, int]] = ((0, total),)
        else:
            if tile_plan.total_elements != total:
                raise SimulationError(
                    f"{self.name}: tile plan covers {tile_plan.total_elements} "
                    f"elements but the bindings have {total} rows"
                )
            tiles = tile_plan.flat_tiles()
        pinned = self._pin_noise(engine)
        plans, readout = engine.sweep_plans(self)
        overlap = readout.mode == "overlap"
        steps = range(len(self.steps) if overlap else readout.split)
        samples = None if tile_plan is None else tile_plan.samples
        operands = self._resolve_operands(bindings, steps, samples)
        # The prefix ends at the first per-element step.
        prefix = 0
        if samples is not None:
            batched = (i for i in steps if operands[i] and operands[i][0] == "batched")
            prefix = next(batched, steps.stop)
        out = np.empty((total, 2 ** len(self.measured_qubits)), dtype=float)
        for start, stop in tiles:
            if overlap:
                out[start:stop] = self._overlap_tile(
                    engine, readout, operands, start, stop, prefix, tile_plan
                )
                continue
            state = self._evolve_tile(
                engine,
                plans,
                operands,
                start,
                stop,
                steps=steps,
                prefix=prefix,
                tile_plan=tile_plan,
            )
            self._check_noise_pinned(engine, pinned, start, stop)
            out[start:stop] = engine.joint_probabilities(
                state, self.measured_qubits, readout
            )
            del state  # free the tile before the next one is allocated
        return out

    def _overlap_tile(
        self,
        engine,
        readout: "ReadoutPlan",
        operands: List,
        start: int,
        stop: int,
        prefix: int,
        tile_plan: Optional[TilePlan],
    ) -> np.ndarray:
        """The SWAP-test readout of tile ``[start, stop)`` from its two registers.

        Each register sub-program evolves with the parent's operands: its
        steps before the parent's ``prefix`` once per grid row the tile
        touches, the rest per element (:meth:`_evolve_tile`).  Element
        ``i`` then reads ``P(ancilla = 0) = (1 + f) / 2`` with
        ``f = min(|<A_i|B_i>|**2, 1)`` (:func:`swap_test_probabilities`).
        """
        states = []
        for register in readout.registers:
            program = register.program
            states.append(
                program._evolve_tile(
                    engine,
                    engine.step_plans(program),
                    [operands[index] for index in register.steps],
                    start,
                    stop,
                    steps=range(len(program.steps)),
                    prefix=bisect.bisect_left(register.steps, prefix),
                    tile_plan=tile_plan,
                )
            )
        return swap_test_probabilities(*states)


# --------------------------------------------------------------------------- #
# Execution engines
# --------------------------------------------------------------------------- #


#: Widest measurement observable the density engine folds a tail into:
#: ``2**m`` rows of ``4**n`` amplitudes, at most the estimators' default
#: ``max_batch_amplitudes``.  A shape rule on the program alone, so a grid
#: sweep and ``run`` of one program always read out the same way.
OBSERVABLE_MAX_AMPLITUDES = 2**23


@dataclasses.dataclass(frozen=True, eq=False)
class RegisterProgram:
    """One register of a SWAP test, as a sub-program of its parent.

    ``program`` acts on the register's ``len(qubits)`` qubits: local qubit
    ``i`` is parent qubit ``qubits[i]``.  Its steps are the parent steps
    ``steps`` (ascending indices), moved onto the local qubits; they keep
    the parent's slots, so they read the parent's bindings columns.
    """

    program: "SweepProgram"
    qubits: Tuple[int, ...]
    steps: Tuple[int, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class ReadoutPlan:
    """Where an engine stops evolving a program's tiles, and how it reads out.

    Three modes (:attr:`mode`):

    * *stepwise* — every tile evolves the whole program (``split`` is its
      length) and the final state's diagonal is marginalised;
    * *observable* — every tile evolves the first ``split`` steps, and
      ``observable`` is the ``(4**n, 2**m)`` measurement observable of the
      fixed tail after the split: column ``j`` maps a state at the split,
      flattened in the physical axis order ``layout``, to the probability
      of outcome ``j`` after the tail (density engine);
    * *overlap* — the program is a SWAP test, and ``registers`` holds its
      two registers' sub-programs: a tile evolves those and reads
      ``P(ancilla = 0)`` from their overlap (statevector engine).  ``split``
      is the program's length, the steps ``run`` evolves for the state it
      returns.

    ``reason`` records the choice.
    """

    split: int
    observable: Optional[np.ndarray]
    layout: Optional[Tuple[int, ...]]
    reason: str
    registers: Optional[Tuple[RegisterProgram, RegisterProgram]] = None

    @property
    def mode(self) -> str:
        if self.registers is not None:
            return "overlap"
        return "stepwise" if self.observable is None else "observable"


def density_readout_split(program: "SweepProgram") -> Tuple[Optional[int], str]:
    """Where the density engine splits ``program`` for its observable readout.

    Returns ``(split, reason)``.  ``split`` is the index after the last
    parametric step (0 for an all-fixed program): every step from there on
    is fixed, so the tail can be folded into a measurement observable at
    plan time.  ``split`` is ``None`` — stepwise readout — when nothing is
    measured or the observable's ``2**m * 4**n`` amplitudes exceed
    :data:`OBSERVABLE_MAX_AMPLITUDES`.  The rule reads only the program,
    never a noise model or tile plan, so the engine and the VER2xx cost
    model share it.
    """
    m, n = len(program.measured_qubits), program.num_qubits
    if not m:
        return None, "stepwise: the program measures no qubit"
    size = 2**m * 4**n
    if size > OBSERVABLE_MAX_AMPLITUDES:
        return None, (
            f"stepwise: a {2**m} x {4**n} observable ({size} amplitudes) "
            f"exceeds the {OBSERVABLE_MAX_AMPLITUDES}-amplitude bound"
        )
    split = 1 + max(
        (index for index, step in enumerate(program.steps) if not step.is_fixed),
        default=-1,
    )
    return split, (
        f"observable: steps [{split}, {len(program.steps)}) fold into "
        f"{2**m} readout row(s)"
    )


def outcome_selectors(
    measured_qubits: Sequence[int], num_qubits: int, layout: Tuple[int, ...]
) -> np.ndarray:
    """``(2**m, 4**n)`` 0/1 covectors of the measured outcomes on the diagonal.

    Row ``j`` sums the diagonal entries whose measured bits (in
    ``measured_qubits`` order, first most significant) spell ``j``, read
    in the physical axis order ``layout``.
    """
    basis = np.arange(2**num_qubits)
    bits = [(basis >> (num_qubits - 1 - qubit)) & 1 for qubit in range(num_qubits)]
    # The physical index of diagonal entry (b, b): qubit q's row and column
    # axes both carry bit q of b, at their positions in ``layout``.
    weight = {axis: 2 ** (len(layout) - 1 - i) for i, axis in enumerate(layout)}
    diagonal = sum(
        bits[q] * (weight[q] + weight[num_qubits + q]) for q in range(num_qubits)
    )
    outcome = np.zeros_like(basis)
    for qubit in measured_qubits:
        outcome = 2 * outcome + bits[qubit]
    selectors = np.zeros((2 ** len(measured_qubits), 4**num_qubits), dtype=COMPLEX_DTYPE)
    selectors[outcome, diagonal] = 1.0
    return selectors


def prefix_partition(
    program: "SweepProgram", stop: Optional[int] = None
) -> Tuple[Tuple[int, ...], ...]:
    """Qubit-grain partition of the interaction graph of ``steps[:stop]``.

    Two qubits share a block when a chain of steps before ``stop`` (every
    step by default) joins them; a qubit no step touches is a block of its
    own.  Blocks are ascending tuples, ordered by their first qubit.  Until
    a step joins two blocks their states evolve independently, so a block
    is a factor the prefix's state is the product of.
    """
    parent = list(range(program.num_qubits))

    def root(qubit: int) -> int:
        while parent[qubit] != qubit:
            parent[qubit] = parent[parent[qubit]]
            qubit = parent[qubit]
        return qubit

    for step in program.steps[:stop]:
        first = root(step.qubits[0])
        for qubit in step.qubits[1:]:
            parent[root(qubit)] = first
    blocks: Dict[int, List[int]] = {}
    for qubit in range(program.num_qubits):
        blocks.setdefault(root(qubit), []).append(qubit)
    return tuple(sorted(tuple(block) for block in blocks.values()))


def swap_test_registers(
    program: "SweepProgram",
) -> Tuple[Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]], str]:
    """The two registers of a SWAP-test program, in pairing order.

    Returns ``((a, b), reason)`` when ``program`` reads out exactly as the
    overlap ``P(ancilla = 0) = (1 + |<A|B>|**2) / 2``: it measures one
    qubit, the ancilla; it ends with one fixed ``cswap(ancilla, a_i, b_i)``
    per pair and then a fixed ``h(ancilla)``, the pairs a bijection between
    registers A and B that with the ancilla cover every qubit; before that
    tail only one fixed ``h`` touches the ancilla; and every other step
    lies within A or within B (:func:`prefix_partition`).  ``a`` is
    ascending and ``b[i]`` is ``a[i]``'s partner, so any pair order reads
    the same overlap.  Otherwise returns ``(None, reason)``, the reason
    naming the first condition that failed.  The rule reads only the
    program, so a grid sweep, ``run`` and the VER2xx cost model share it.
    """
    steps = program.steps
    if len(program.measured_qubits) != 1:
        return None, (
            f"stepwise: the program measures {len(program.measured_qubits)} "
            "qubit(s), not one ancilla"
        )
    (ancilla,) = program.measured_qubits

    def on_ancilla(step: GateStep, name: str) -> bool:
        """A fixed ``name`` step whose first qubit is the ancilla."""
        return step.name == name and step.is_fixed and step.qubits[0] == ancilla

    if not steps or not (on_ancilla(steps[-1], "h") and len(steps[-1].qubits) == 1):
        return None, (
            f"stepwise: the program does not end with a fixed h on the "
            f"measured qubit {ancilla}"
        )
    tail = len(steps) - 1
    while tail and on_ancilla(steps[tail - 1], "cswap"):
        tail -= 1
    pairs = [steps[index].qubits[1:] for index in range(tail, len(steps) - 1)]
    if not pairs:
        return None, (
            f"stepwise: no cswap controlled by qubit {ancilla} precedes the final h"
        )
    partner = dict(pairs)
    a, b = set(partner), set(partner.values())
    if len(partner) != len(pairs) or len(b) != len(pairs) or a & b:
        return None, (
            f"stepwise: the tail's cswap pairs {pairs} are not a bijection "
            "between two registers"
        )
    idle = sorted(set(range(program.num_qubits)) - a - b - {ancilla})
    if idle:
        return None, (
            f"stepwise: qubit(s) {idle} lie outside the ancilla and the "
            "cswap pairs"
        )
    touching = [step for step in steps[:tail] if ancilla in step.qubits]
    if len(touching) != 1 or not (
        on_ancilla(touching[0], "h") and len(touching[0].qubits) == 1
    ):
        names = [step.name for step in touching]
        return None, (
            f"stepwise: before the tail the ancilla {ancilla} is touched by "
            f"{names}, not by one fixed h"
        )
    for block in prefix_partition(program, tail):
        if block != (ancilla,) and not (set(block) <= a or set(block) <= b):
            return None, (
                f"stepwise: prefix steps join qubits {list(block)} across the "
                "cswap registers"
            )
    order = tuple(sorted(a))
    registers = (order, tuple(partner[qubit] for qubit in order))
    return registers, (
        f"overlap: registers A {list(registers[0])} and B "
        f"{list(registers[1])} read P(ancilla {ancilla} = 0) from <A|B>"
    )


def register_program(program: "SweepProgram", qubits: Tuple[int, ...]) -> RegisterProgram:
    """The sub-program of ``program``'s steps that lie within ``qubits``."""
    local = {qubit: index for index, qubit in enumerate(qubits)}
    indices = tuple(
        index
        for index, step in enumerate(program.steps)
        if all(qubit in local for qubit in step.qubits)
    )
    steps = [
        dataclasses.replace(
            program.steps[index],
            qubits=tuple(local[qubit] for qubit in program.steps[index].qubits),
        )
        for index in indices
    ]
    sub = SweepProgram(
        num_qubits=len(qubits),
        num_clbits=0,
        steps=steps,
        measured_qubits=(),
        clbits=(),
        num_columns=program.num_columns,
        parameters=program.parameters,
        column_sites=program.column_sites,
        name=f"{program.name}:register{list(qubits)}",
    )
    return RegisterProgram(sub, tuple(qubits), indices)


def swap_test_probabilities(a: BatchedStatevector, b: BatchedStatevector) -> np.ndarray:
    """``(batch, 2)`` ancilla distribution of a SWAP test of ``a_i`` with ``b_i``.

    ``P(0) = (1 + f) / 2`` and ``P(1) = (1 - f) / 2`` with
    ``f = min(|<a_i|b_i>|**2, 1)``.  Each overlap is one row's sum of
    ``conj(a) * b``, so its arithmetic does not depend on the batch extent:
    every tiling, the untiled pass and ``run`` agree bit for bit.  Consumes
    ``a``: the product is formed in its buffer.
    """
    width = (2**a.num_qubits,)
    product = a.view(width)
    np.conjugate(product, out=product)
    product *= b.view(width)
    fidelity = np.minimum(np.abs(product.sum(axis=1)).astype(float) ** 2, 1.0)
    return np.stack([(1.0 + fidelity) / 2.0, (1.0 - fidelity) / 2.0], axis=1)


#: Certified kernel plans per program.  Module level, not per engine: the
#: simulators and estimators build a fresh ``StatevectorEngine()`` per call,
#: while a cached program lives across calls.
_KERNEL_PLANS: "WeakKeyDictionary[SweepProgram, tuple]" = WeakKeyDictionary()
_KERNEL_PLANS_LOCK = threading.Lock()
#: Statevector readout plans per program, kept the same way.
_READOUT_PLANS: "WeakKeyDictionary[SweepProgram, ReadoutPlan]" = WeakKeyDictionary()
#: Factor regions per program (:func:`factor_region`), kept the same way.
_FACTOR_REGIONS: "WeakKeyDictionary[SweepProgram, int]" = WeakKeyDictionary()


def factor_region(program: SweepProgram) -> int:
    """How many leading steps of ``program`` act on one qubit each.

    Until a step acts on two or more qubits no step joins two qubits, so
    the state after those steps is the Kronecker product of one-qubit
    factors, each evolved by its own qubit's steps.  The statevector
    engine runs this region on ``(batch, 2)`` factors and builds the
    register once (:meth:`SweepProgram._evolve_tile`).  The rule reads
    only the program, so the engine and the VER2xx cost model share it; it
    is computed once per program.
    """
    region = _FACTOR_REGIONS.get(program)
    if region is None:
        region = next(
            (index for index, step in enumerate(program.steps) if len(step.qubits) > 1),
            len(program.steps),
        )
        with _KERNEL_PLANS_LOCK:
            region = _FACTOR_REGIONS.setdefault(program, region)
    return region


class StatevectorEngine:
    """Pure-state executor: every step runs its kernel class's kernel.

    :meth:`step_plans` classifies each step once per program
    (:mod:`repro.quantum.kernels`: permutation, diagonal, controlled or
    dense), certifies every plan with VER405, and memoises the plans for as
    long as the program lives; :meth:`apply_step` only dispatches.  The
    leading one-qubit steps (:func:`factor_region`) run on per-qubit
    ``(batch, 2)`` factors, so they are planned and certified on one
    qubit; every later step on the register.  A SWAP-test program reads
    out from its two register sub-programs (:meth:`readout_plan`), whose
    plans are built the same way; the full program is planned only when
    its state is asked for.
    """

    name = "statevector"
    is_noisy = False

    def initial_state(self, batch: int, num_qubits: int) -> BatchedStatevector:
        return BatchedStatevector(batch, num_qubits)

    def step_plans(self, program: SweepProgram) -> tuple:
        plans = _KERNEL_PLANS.get(program)
        if plans is not None:
            return plans
        from repro.analysis.equiv import verify_kernel_plan
        from repro.analysis.verify import assert_clean

        # Each step is planned at the width it is dispatched at: a factor
        # step on its one-qubit factor, every later step on the register.
        region = factor_region(program)
        placed = [
            (dataclasses.replace(step, qubits=(0,)), 1)
            if index < region
            else (step, program.num_qubits)
            for index, step in enumerate(program.steps)
        ]
        kinds = [kernels.classify_step(step) for step in program.steps]
        diagnostics = []
        for index, ((step, width), kind) in enumerate(zip(placed, kinds)):
            diagnostics.extend(
                verify_kernel_plan(
                    step,
                    kind,
                    num_qubits=width,
                    program_name=program.name,
                    index=index,
                )
            )
        assert_clean(diagnostics, context=f"{program.name}: kernel-class plans")
        plans = tuple(
            kernels.build_kernel(kind, step, width)
            for (step, width), kind in zip(placed, kinds)
        )
        with _KERNEL_PLANS_LOCK:
            return _KERNEL_PLANS.setdefault(program, plans)

    def factor_region(self, program: SweepProgram) -> int:
        """The leading steps that run on one-qubit factors (:func:`factor_region`)."""
        return factor_region(program)

    def sweep_plans(self, program: SweepProgram) -> Tuple[Optional[tuple], ReadoutPlan]:
        """What one sweep of ``program`` runs: its step plans and readout plan.

        An overlap readout runs only its register sub-programs, so the
        whole program's step plans are not built for it (``None``).
        """
        readout = self.readout_plan(program)
        if readout.mode == "overlap":
            return None, readout
        return self.step_plans(program), readout

    def readout_plan(self, program: SweepProgram) -> ReadoutPlan:
        """Overlap for a SWAP test (:func:`swap_test_registers`), else stepwise.

        Reads the program alone and builds the register sub-programs once
        per program.
        """
        readout = _READOUT_PLANS.get(program)
        if readout is not None:
            return readout
        registers, reason = swap_test_registers(program)
        readout = ReadoutPlan(
            len(program.steps),
            None,
            None,
            reason,
            None
            if registers is None
            else tuple(register_program(program, qubits) for qubits in registers),
        )
        with _KERNEL_PLANS_LOCK:
            return _READOUT_PLANS.setdefault(program, readout)

    def apply_step(self, state, step: GateStep, plan, matrix) -> None:
        plan.apply(state, matrix)

    def joint_probabilities(
        self, state, measured_qubits, readout: ReadoutPlan
    ) -> np.ndarray:
        return state.probabilities(measured_qubits)


def statevector_element_amplitudes(program: SweepProgram) -> int:
    """Complex entries one grid element of ``program`` holds on the statevector engine.

    Read off the engine's readout plan (:meth:`StatevectorEngine.readout_plan`):
    a stepwise element is its ``2**n`` state.  An overlap element holds two
    ``2**k`` registers and a tile one more per grid row it touches, so three
    per element keep the tile (``2 * elements + rows`` registers) in budget.
    """
    registers = StatevectorEngine().readout_plan(program).registers
    if registers is None:
        return 2**program.num_qubits
    return 3 * 2 ** len(registers[0].qubits)


def gate_noise_superoperator(
    gate_name: str, qubits: Tuple[int, ...], noise_model: NoiseModel
) -> Optional[np.ndarray]:
    """All of a gate's noise channels composed into one ``(4**k, 4**k)`` matrix.

    Channels are composed in the order of the sequential Kraus walk — model
    order, and single-qubit channels after a multi-qubit gate expand per
    qubit in instruction order — so the precomposed superoperator is
    mathematically identical to applying each channel in turn with
    :meth:`~repro.quantum.density_matrix.DensityMatrix.apply_kraus`, the
    reference ``run`` is tested against.  Returns ``None`` when the model
    attaches no channels to the gate, letting fixed ideal gates skip the
    superoperator path.
    """
    k = len(qubits)
    composed: Optional[np.ndarray] = None

    def fold(superop: np.ndarray) -> None:
        nonlocal composed
        composed = superop if composed is None else superop @ composed

    for channel in noise_model.gate_channels(gate_name, k):
        channel_width = int(np.log2(np.asarray(channel[0]).shape[0]))
        if channel_width not in (k, 1):
            raise SimulationError(
                f"noise channel width {channel_width} incompatible with gate "
                f"'{gate_name}' on {k} qubit(s)"
            )
        if channel_width == k:
            fold(channel_superoperator(channel))
            continue
        for position in range(k):
            # A single-qubit channel after a k-qubit gate acts on each of the
            # gate's qubits in turn; lift its Kraus operators to the k-qubit
            # block with identities around the target position, exactly like
            # a per-qubit ``DensityMatrix.apply_kraus(channel, (qubit,))``.
            before = np.eye(2**position, dtype=COMPLEX_DTYPE)
            after = np.eye(2 ** (k - 1 - position), dtype=COMPLEX_DTYPE)
            lifted = [
                arrays.kron(
                    arrays.kron(before, np.asarray(kraus, dtype=COMPLEX_DTYPE)),
                    after,
                )
                for kraus in channel
            ]
            fold(channel_superoperator(lifted))
    return composed


def density_schedule(
    program: SweepProgram,
) -> Tuple[Tuple[LayoutStep, ...], Tuple[int, ...]]:
    """A density program's layout schedule and the run each step folds into.

    Walks the steps from the canonical axis order through
    :func:`~repro.quantum.batched_density.plan_layout`, giving each step its
    :class:`~repro.quantum.batched_density.LayoutStep`.  ``heads[i]`` is
    ``i`` for a step the engine dispatches, or the index of the earlier
    fixed step whose operator absorbs it.  A fixed step joins the run of the
    fixed step before it when it needs no transpose and contracts a block of
    the run head's width: the layout has not moved since the head, so that
    is the head's own trailing block.  Parametric steps and transposes end a
    run.  The grouping reads only qubit supports and fixedness, never a
    noise model, so the engine and the VER2xx cost model share it.
    """
    layout = canonical_layout(program.num_qubits)
    entries: List[LayoutStep] = []
    heads: List[int] = []
    head: Optional[int] = None
    for index, step in enumerate(program.steps):
        entry = plan_layout(layout, step.qubits)
        layout = entry.target
        joins = (
            step.is_fixed
            and head is not None
            and entry.transpose is None
            and entry.gather.size == entries[head].gather.size
        )
        if not joins:
            head = index if step.is_fixed else None
        entries.append(entry)
        heads.append(head if joins else index)
    return tuple(entries), tuple(heads)


@dataclasses.dataclass(frozen=True, eq=False)
class DensityStepPlan:
    """One dispatched step of a density program, planned against the schedule.

    ``superop`` is the step's own canonical ``(4**k, 4**k)`` plan, which
    the certificates check: the folded unitary and noise of a fixed step,
    or the noise alone of a parametric bind site (``None`` when the model
    attaches none).  ``layout`` is the step's entry in the schedule, and
    ``operator`` a fixed step's operator in ``layout``'s physical block
    order — for a run head, the product of every folded step's operator.
    """

    kind: str
    superop: Optional[np.ndarray]
    layout: LayoutStep
    operator: Optional[np.ndarray]


class DensitySuperoperatorEngine:
    """Mixed-state executor with compile-time noise precomposition.

    Per program and noise-model version, :meth:`step_plans` plans every step
    **once**: fixed gates fold their unitary and every attached noise
    channel into a single ``(4**k, 4**k)`` superoperator, and parametric
    bind sites precompose their noise channels alone (at execution time the
    per-tile gate superoperator is left-multiplied by that matrix).  The
    same pass follows the *layout schedule* of :func:`density_schedule`:
    each step gets either no transpose or one, and a fixed step's
    superoperator is stored already permuted (or lifted) into the physical
    order it will meet.  Each run of fixed steps on one trailing block is
    then multiplied into its head's operator, and the folded steps get a
    ``None`` plan.  A dispatched step is one matmul and at most one
    transpose copy, with no Kraus-channel resolution on repeat sweeps.

    The same pass folds the fixed tail after the program's last parametric
    step (:func:`density_readout_split`) into a measurement observable by
    walking the tail's plans backwards (:meth:`readout_plan`).  A tile then
    evolves only the steps before the split and reads out with one matmul.
    """

    name = "density_superoperator"
    is_noisy = True

    def __init__(self, noise_model: Optional[NoiseModel] = None) -> None:
        self.noise_model = noise_model if noise_model is not None else NoiseModel.ideal()
        #: Per program: ``(noise version, step plans, readout plan)``.
        self._plans: "WeakKeyDictionary[SweepProgram, tuple]" = WeakKeyDictionary()
        #: Plan compilations performed (cache-instrumentation for benchmarks).
        self.plans_compiled = 0

    def initial_state(self, batch: int, num_qubits: int) -> BatchedDensityMatrix:
        return BatchedDensityMatrix(batch, num_qubits)

    def factor_region(self, program: SweepProgram) -> int:
        """Empty: every density step runs on the full ``4**n`` state."""
        return 0

    def step_plans(self, program: SweepProgram) -> tuple:
        version = getattr(self.noise_model, "version", 0)
        cached = self._plans.get(program)
        if cached is not None and cached[0] == version:
            return cached[1]
        # First plan for this program, or the noise model was mutated
        # in place since the plan was precomposed (its ``add_*`` builders
        # bump ``version``) — recompose so every sweep tracks the live model.
        entries, heads = density_schedule(program)
        plans: List[Optional[DensityStepPlan]] = []
        for step, entry in zip(program.steps, entries):
            kind, superop = self._plan_step(step)
            operator = entry.physical(superop) if kind == "fixed" else None
            plans.append(DensityStepPlan(kind, superop, entry, operator))
        if full_verification_enabled():
            # REPRO_VERIFY=1: CPTP-check every precomposed superoperator plan
            # before the engine ever contracts with it.
            from repro.analysis.verify import verify_step_plan_superoperators

            verify_step_plan_superoperators(program, plans)
        for index, head in enumerate(heads):
            if head != index:
                # Later operators on the left: the head now applies the run.
                plans[head] = dataclasses.replace(
                    plans[head], operator=plans[index].operator @ plans[head].operator
                )
                plans[index] = None
        plans = tuple(plans)
        self._plans[program] = (version, plans, self._fold_tail(program, plans))
        self.plans_compiled += 1
        return plans

    def sweep_plans(self, program: SweepProgram) -> Tuple[tuple, ReadoutPlan]:
        """What one sweep of ``program`` runs: its step plans and readout plan.

        One :meth:`step_plans` call; the readout plan is the fold cached
        beside those plans under the same noise-model version, so a mutated
        model replans both together.
        """
        plans = self.step_plans(program)
        cached = self._plans.get(program)
        if cached is not None and cached[1] is plans:
            return plans, cached[2]
        # Another thread replanned in between: fold these plans.
        return plans, self._fold_tail(program, plans)

    def readout_plan(self, program: SweepProgram) -> ReadoutPlan:
        """The readout plan folded with the current :meth:`step_plans`."""
        return self.sweep_plans(program)[1]

    def _fold_tail(self, program: SweepProgram, plans: tuple) -> ReadoutPlan:
        """Walk the tail's plans backwards from the outcome selectors.

        A dispatched step maps a state ``X`` (rows of the trailing block's
        width ``w``) to ``X @ operator.T`` after its optional transpose, so
        an observable row ``o`` read after the step equals the row
        ``o.reshape(-1, w) @ operator`` read before it, put back through the
        inverse transpose.  Folded (``None``) plans are already inside
        their head's operator and never move the layout.
        """
        split, reason = density_readout_split(program)
        if split is None:
            return ReadoutPlan(len(program.steps), None, None, reason)
        n, rows = program.num_qubits, 2 ** len(program.measured_qubits)
        layout = canonical_layout(n)
        for plan in plans:
            if plan is not None:
                layout = plan.layout.target
        observable = outcome_selectors(program.measured_qubits, n, layout)
        for plan in reversed(plans[split:]):
            if plan is None:
                continue
            width = plan.operator.shape[-1]
            observable = (observable.reshape(rows, -1, width) @ plan.operator).reshape(
                rows, -1
            )
            if plan.layout.transpose is not None:
                observable = (
                    observable.reshape((rows,) + (2,) * (2 * n))
                    .transpose(np.argsort(plan.layout.transpose))
                    .reshape(rows, -1)
                )
            layout = plan.layout.source
        return ReadoutPlan(split, np.ascontiguousarray(observable.T), layout, reason)

    def _plan_step(self, step: GateStep):
        noise = gate_noise_superoperator(step.name, step.qubits, self.noise_model)
        if not step.is_fixed:
            return ("parametric", noise)
        if noise is None:
            return ("fixed", conjugation_superoperator(step.matrix))
        return ("fixed", noise @ conjugation_superoperator(step.matrix))

    def apply_step(self, state, step: GateStep, plan: DensityStepPlan, matrix) -> None:
        operator = plan.operator
        if operator is None:
            operator = conjugation_superoperator(arrays.as_complex(matrix))
            if plan.superop is not None:
                operator = arrays.as_complex(plan.superop) @ operator
            operator = plan.layout.physical(operator)
        state.apply_planned(plan.layout, operator)

    def joint_probabilities(
        self, state, measured_qubits, readout: ReadoutPlan
    ) -> np.ndarray:
        if readout.observable is None:
            joint = state.probabilities(measured_qubits)
        else:
            joint = state.observable_probabilities(readout.observable, readout.layout)
        return apply_readout_error(joint, measured_qubits, self.noise_model)
