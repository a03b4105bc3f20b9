"""Static cost-model verification of compiled sweep programs (VER2xx).

An abstract interpreter over a compiled
:class:`~repro.quantum.program.SweepProgram` and its
:class:`~repro.quantum.program.TilePlan`: without executing anything, it
computes what one tiled execution *will* allocate and contract —

* the peak amplitude count of one tile's working set (``2**n`` complex
  entries per element on a statevector engine, ``4**n`` on a density
  engine) and the size of one element in the unit the backends budget grid
  tiles in (:func:`~repro.quantum.program.statevector_element_amplitudes`);
* the peak resident bytes, modelling the engine's double-buffering
  (input and output amplitude arrays are live together during every step)
  plus the sweep-wide bindings matrix and read-out buffer;
* the step-application count of the full sweep, one per dispatched step
  per tile: every compiled step on a statevector engine, and on a density
  engine one matmul per entry of the composed layout schedule
  (:func:`~repro.quantum.program.density_schedule`, the grouping the
  engine itself uses, so a run of fixed steps folded into one operator
  counts once) before the readout split
  (:func:`~repro.quantum.program.density_readout_split`, the engine's own
  rule), one readout matmul for the fixed tail folded into the
  measurement observable, and the prefix schedule's transpose copies;
* the bytes each step moves over the sweep (its matmul reads and writes
  every element's state, and so does its transpose) and the readout's;
* of those the einsum and matmul calls: every density contraction is a
  matmul; on a statevector engine a dense step wider than one qubit is one
  einsum, a one-qubit dense or controlled step is one matmul when its 2x2
  update variant (:func:`repro.quantum.kernels.update_variant`, the
  kernels' own rule) is a matmul and none when it is the axpy, and
  permutation and diagonal steps contract nothing;
* the leading one-qubit steps (the engines' own rules: on a statevector
  engine :func:`~repro.quantum.program.factor_region`, on a density engine
  :func:`~repro.quantum.program.density_factor_region`, which ends at the
  readout split) charged on the one-qubit factor they run on — two
  amplitudes with that width's update variant (the left matmul), or four
  density entries — plus the bytes of the Kronecker product that builds
  the register or the ``4**n`` stack from the factors; the density
  schedule after the region starts from the product's layout;
* for a SWAP test on a statevector engine, which reads out as a register
  overlap (:meth:`~repro.quantum.program.StatevectorEngine.readout_plan`,
  the engine's own rule), the same accounts over the two register
  sub-programs alone, at the register's width and placement: no full
  ``2**n`` state is built, and a tile holds both registers of each
  element plus register A's grid rows;
* in ``state_overlap`` mode (the analytic estimator) the program's steps
  and products at the trained-state rows alone: the sample states come
  from the cached encoder program, and only the resident peak holds both.

and verifies the prediction against the plan's declared
``max_amplitudes`` budget (the ``max_batch_amplitudes`` knob of the
estimators).  The point is to catch budget bugs at *plan* time: a tile
whose working set exceeds the budget, a single element no tiling can ever
fit, a noisy engine whose ``4**n`` footprint silently blows a budget sized
for statevectors.  Where :mod:`repro.analysis.verify` checks that a plan is
*well-formed* (VER140/VER141 partition checks), this module checks that it
is *affordable*.

The model is deliberately coarse — it bounds the dominant allocations and
ignores O(gate) temporaries — but it is calibrated: the reference-suite
predictions stay within 1.5x of tracemalloc peaks measured by
``benchmarks/bench_program_compile.py`` (asserted in
``tests/analysis/test_cost_model.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Location, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.quantum.program import SweepProgram, TilePlan

#: Code -> one-line description, mirrored in ``docs/static_analysis.md``.
COST_CODES = {
    "VER201": "tile working set exceeds the declared amplitude budget",
    "VER202": "a single sweep element exceeds the budget — no tiling can fit it",
    "VER203": "tile plan uses under a quarter of the budget while still tiling",
    "VER205": "budget fits a statevector element but not one density (4**n) element",
}

#: Bytes per complex amplitude at the canonical (double) precision; the
#: live prediction uses :func:`repro.arrays.complex_itemsize`, so a
#: ``set_precision("single")`` run is budgeted at 8 bytes per amplitude.
BYTES_PER_AMPLITUDE = 16
#: Live amplitude arrays per per-element step: the tile's state and the
#: kernel's output (the einsum's or matmul's, or the 2x2 axpy's two
#: half-state products).  The executor frees each tile before it
#: allocates the next, so no earlier tile adds to the peak; measured
#: against tracemalloc in ``tests/analysis/test_cost_model.py``.
EINSUM_LIVE_ARRAYS = 2
#: VER203 fires when a *tiling* plan uses less than this fraction of the
#: budget — the sweep pays per-tile contraction overhead it did not need to.
UNDERUTILISATION_FRACTION = 0.25

_ENGINE_KINDS = ("statevector", "density")
_MODES = ("circuit_sweep", "state_overlap")


@dataclasses.dataclass(frozen=True)
class CostReport:
    """Statically predicted execution cost of one (program, tile plan) pair."""

    program: str
    engine: str  #: ``statevector`` or ``density``
    mode: str  #: ``circuit_sweep`` or ``state_overlap``
    num_qubits: int
    #: Complex entries one element holds: ``4**n`` on a density engine;
    #: on a statevector engine ``2**n``, or for an overlap readout three
    #: ``2**k`` registers (the unit the backends budget grid tiles in).
    element_amplitudes: int
    rows: int
    samples: int
    row_tile: int
    sample_tile: int
    num_tiles: int
    #: Elements resident in the largest tile's working set.
    tile_elements: int
    #: Amplitudes of the largest tile's working set: ``tile_elements *
    #: element_amplitudes``, or for an overlap readout both registers of
    #: every element plus register A's grid rows.
    peak_amplitudes: int
    #: Bytes per amplitude at the precision configured when the report was
    #: built (16 under double, 8 under single — see ``repro.arrays``).
    bytes_per_amplitude: int
    #: Predicted peak resident bytes of one execution (see module docstring).
    peak_bytes: int
    #: Step applications over the whole sweep: ``num_tiles`` times the
    #: dispatched steps (every step on a statevector engine, or the
    #: register steps of an overlap readout; on a density engine the
    #: composed schedule's matmuls before the readout split, plus the one
    #: observable readout matmul).
    contractions: int
    #: Of which precomposed superoperator matmuls (every density-engine
    #: contraction; 0 otherwise).
    superoperator_contractions: int
    #: ``repro.arrays.einsum`` calls of the step kernels: the statevector
    #: dense steps wider than one qubit (0 on a density engine).
    einsum_contractions: int
    #: ``repro.arrays.matmul`` calls of the step kernels: every density
    #: contraction; on a statevector engine the 2x2 updates whose variant
    #: is a matmul.
    matmul_contractions: int
    #: The plan's declared budget (``None`` when undeclared).
    max_amplitudes: Optional[int]
    #: Leading steps evolved once per grid row of each tile and then
    #: repeated across the row's elements (the row-constant trained-state
    #: prefix); 0 when none.
    shared_prefix_steps: int = 0
    #: Per-element step applications over the whole sweep.  Without a
    #: prefix every element pays every step; a prefix step pays once per
    #: grid row of each tile instead, so this is the quantity the
    #: whole-grid executor actually reduces.
    element_contractions: int = 0
    #: Transpose copies of the density layout schedule over the whole
    #: sweep (0 on a statevector engine).
    transposes: int = 0
    #: Bytes each program step moves over the whole sweep: reading and
    #: writing every element's state once for its matmul or kernel, and
    #: again for a transpose; 0 for a step folded into a run head or into
    #: the measurement observable.  A factor step's state is its one-qubit
    #: factor: two amplitudes, or four density entries.
    step_bytes_moved: Tuple[int, ...] = ()
    #: Bytes the factor products move over the whole sweep: about one
    #: full-state step's (read and write) per product built.
    product_bytes_moved: int = 0
    #: Every step's bytes, the products' and the readout's: it reads each
    #: element's state once, and an observable readout reads the
    #: observable per tile.
    bytes_moved: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering for the analysis payload's ``cost`` section."""
        return dataclasses.asdict(self)


def _element_amplitudes(program: "SweepProgram", engine: str, mode: str) -> int:
    """Complex entries one element holds.

    ``4**n`` on a density engine.  On the statevector engine a circuit-sweep
    element holds what the engine's readout plan keeps for it
    (:func:`~repro.quantum.program.statevector_element_amplitudes`, the rule
    the backends budget grid tiles by); a state-overlap element is its
    ``2**n`` state.
    """
    if engine == "density":
        return 4**program.num_qubits
    if mode == "state_overlap":
        return 2**program.num_qubits
    from repro.quantum.program import statevector_element_amplitudes

    return statevector_element_amplitudes(program)


def _tile_counts(plan: "TilePlan", mode: str):
    """(working-set elements of the largest tile, number of tiles)."""
    if mode == "state_overlap":
        # Overlap sweeps hold one tile of row states *and* one tile of
        # sample states simultaneously (the (r + s) budget of
        # ``TilePlan.for_state_overlap``).
        row_tiles = math.ceil(plan.rows / plan.row_tile)
        sample_tiles = math.ceil(plan.samples / plan.sample_tile)
        working = min(plan.rows, plan.row_tile) + min(plan.samples, plan.sample_tile)
        return working, row_tiles * sample_tiles
    # Circuit sweeps stream contiguous row-major element tiles
    # (``TilePlan.flat_tiles``); the plan itself knows both quantities.
    return plan.tile_elements, plan.num_tiles


def estimate_cost(
    program: "SweepProgram",
    plan: "TilePlan",
    *,
    engine: str = "statevector",
    mode: str = "circuit_sweep",
    shared_prefix_steps: int = 0,
) -> CostReport:
    """Predict the execution cost of ``program`` under ``plan``.

    ``engine`` selects the per-element state size (``statevector``: ``2**n``
    complex amplitudes; ``density``: ``4**n``); ``mode`` selects the tiling
    semantics (``circuit_sweep``: contiguous element tiles of a
    ``rows x samples`` grid; ``state_overlap``: a row-state tile and a
    sample-state tile resident together, as in the analytic estimator).
    ``shared_prefix_steps`` declares how many leading steps the executor
    evolves once per grid row of each tile and then repeats across the
    row's elements (the steps whose operands are constant within every
    grid row; :func:`repro.analysis.equiv.shared_prefix_length` of one
    row's bindings); in the ``element_contractions`` account those steps
    cost one element per row of each tile
    (:meth:`~repro.quantum.program.TilePlan.tile_rows`) instead of one per
    grid element.  The readout mode is read off the program: a SWAP test
    on the statevector engine is charged its register sub-programs'
    steps only (see the module docstring).
    """
    if engine not in _ENGINE_KINDS:
        raise ValueError(f"engine must be one of {_ENGINE_KINDS}, got {engine!r}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if shared_prefix_steps < 0 or shared_prefix_steps > len(program.steps):
        raise ValueError(
            f"shared_prefix_steps must lie in [0, {len(program.steps)}], "
            f"got {shared_prefix_steps}"
        )
    from repro.arrays import complex_itemsize

    element_amplitudes = _element_amplitudes(program, engine, mode)
    tile_elements, num_tiles = _tile_counts(plan, mode)
    peak_amplitudes = tile_elements * element_amplitudes
    # Sweep-wide buffers resident across every tile: the float bindings
    # matrix and the accumulated joint read-out distribution.  Bindings and
    # read-outs stay float64 in both precision modes (the sampling boundary
    # is outside the knob), but amplitude bytes scale with the configured
    # complex itemsize.
    bytes_per_amplitude = complex_itemsize()
    sweep_elements = (
        plan.rows + plan.samples if mode == "state_overlap" else plan.total_elements
    )
    # The elements the program evolves: a state-overlap sweep evolves its
    # trained-state rows only, since its sample states come from the cached
    # encoder program.
    evolved_elements = plan.rows if mode == "state_overlap" else sweep_elements
    bindings_bytes = sweep_elements * program.num_columns * 8
    readout_bytes = sweep_elements * (2 ** len(program.measured_qubits)) * 8
    state_bytes = element_amplitudes * bytes_per_amplitude
    readout_bytes_moved = sweep_elements * state_bytes
    # A prefix step evolves one element per grid row of each tile, every
    # other dispatched step every element.
    prefix_elements = num_tiles
    registers = None
    if mode == "circuit_sweep":
        tile_rows = [
            len(plan.tile_rows(start, stop)[0]) for start, stop in plan.flat_tiles()
        ]
        prefix_elements = sum(tile_rows)
        if engine == "statevector":
            from repro.quantum.program import StatevectorEngine

            registers = StatevectorEngine().readout_plan(program).registers
    if registers is not None:
        # Overlap readout: only the two register sub-programs' steps run,
        # each on its ``2**k``-amplitude register; every tile holds both
        # registers of every element plus register A's grid rows, and the
        # readout reads both registers once.
        width = len(registers[0].qubits)
        evolved = [(register.program, register.steps) for register in registers]
        state_bytes = 2**width * bytes_per_amplitude
        peak_amplitudes = (2 * tile_elements + max(tile_rows, default=0)) * 2**width
        # Register B's kernel output is live beside both registers.
        live_amplitudes = peak_amplitudes + tile_elements * 2**width
        readout_bytes_moved = sweep_elements * 2 * state_bytes
    else:
        width = program.num_qubits
        evolved = [(program, range(len(program.steps)))]
        live_amplitudes = EINSUM_LIVE_ARRAYS * peak_amplitudes
    # Each step's qubits on the state it is dispatched to (``None`` for a
    # step no tile dispatches), that state's width and its bytes: a factor
    # step runs on its qubit's one-qubit factor (the engine's factor
    # region), every other step on the ``width``-qubit state.  The
    # factors' Kronecker product is built once per grid row of each tile
    # when the shared prefix covers the factor region, else once per
    # element.
    from repro.quantum.program import density_factor_region, factor_region

    statevector = engine == "statevector"
    region_of = factor_region if statevector else density_factor_region
    factor_bytes = (2 if statevector else 4) * bytes_per_amplitude
    placements: List[Optional[Tuple[int, ...]]] = [None] * len(program.steps)
    widths = [width] * len(program.steps)
    step_state_bytes = [state_bytes] * len(program.steps)
    product_elements = 0
    for sub, indices in evolved:
        region = region_of(sub)
        for local, (index, step) in enumerate(zip(indices, sub.steps)):
            placements[index] = (0,) if local < region else step.qubits
            widths[index] = 1 if local < region else width
            step_state_bytes[index] = factor_bytes if local < region else state_bytes
        if region:
            shared = indices[region - 1] < shared_prefix_steps
            product_elements += prefix_elements if shared else evolved_elements
    # The product writes its partial products (under one register in all)
    # and the register, about what one register step moves.
    product_bytes_moved = 2 * product_elements * state_bytes
    peak_bytes = live_amplitudes * bytes_per_amplitude + bindings_bytes + readout_bytes
    if engine == "density":
        from repro.quantum.program import density_readout_split, density_schedule

        entries, heads = density_schedule(program)
        split, _ = density_readout_split(program)
        stop = len(program.steps) if split is None else split
        dispatched = [head == index and index < stop for index, head in enumerate(heads)]
        moves = [
            dispatched[index] * (1 + (entry.transpose is not None))
            for index, entry in enumerate(entries)
        ]
        transposes = num_tiles * sum(
            entry.transpose is not None for entry in entries[:stop]
        )
        readout_matmuls = 0 if split is None else 1
        contractions = matmul_contractions = num_tiles * (
            sum(dispatched) + readout_matmuls
        )
        einsum_contractions = 0
        readout_bytes_moved += (
            num_tiles * readout_matmuls * 2 ** len(program.measured_qubits) * state_bytes
        )
    else:
        from repro.quantum.kernels import (
            DENSE,
            MATMUL_LEFT,
            MATMUL_RIGHT,
            classify_step,
            update_variant,
        )

        dispatched = moves = [int(qubits is not None) for qubits in placements]
        transposes = 0
        contractions = num_tiles * sum(dispatched)
        kinds = [
            classify_step(step) if qubits is not None else None
            for step, qubits in zip(program.steps, placements)
        ]
        variants = [
            update_variant(kind, qubits, step_width) if qubits is not None else None
            for kind, qubits, step_width in zip(kinds, placements, widths)
        ]
        einsum_contractions = num_tiles * sum(
            kind == DENSE and variant is None for kind, variant in zip(kinds, variants)
        )
        matmul_contractions = num_tiles * sum(
            variant in (MATMUL_LEFT, MATMUL_RIGHT) for variant in variants
        )
    step_elements = [
        prefix_elements if index < shared_prefix_steps else evolved_elements
        for index in range(len(program.steps))
    ]
    element_contractions = sum(
        count * elements for count, elements in zip(dispatched, step_elements)
    )
    step_bytes_moved = tuple(
        2 * count * elements * moved
        for count, elements, moved in zip(moves, step_elements, step_state_bytes)
    )
    return CostReport(
        program=program.name,
        engine=engine,
        mode=mode,
        num_qubits=program.num_qubits,
        element_amplitudes=element_amplitudes,
        rows=plan.rows,
        samples=plan.samples,
        row_tile=plan.row_tile,
        sample_tile=plan.sample_tile,
        num_tiles=num_tiles,
        tile_elements=tile_elements,
        peak_amplitudes=peak_amplitudes,
        bytes_per_amplitude=bytes_per_amplitude,
        peak_bytes=peak_bytes,
        contractions=contractions,
        superoperator_contractions=contractions if engine == "density" else 0,
        einsum_contractions=einsum_contractions,
        matmul_contractions=matmul_contractions,
        max_amplitudes=plan.max_amplitudes,
        shared_prefix_steps=shared_prefix_steps,
        element_contractions=element_contractions,
        transposes=transposes,
        step_bytes_moved=step_bytes_moved,
        product_bytes_moved=product_bytes_moved,
        bytes_moved=sum(step_bytes_moved) + product_bytes_moved + readout_bytes_moved,
    )


def verify_cost(
    program: "SweepProgram",
    plan: "TilePlan",
    *,
    engine: str = "statevector",
    mode: str = "circuit_sweep",
) -> List[Diagnostic]:
    """Check the predicted cost of ``program`` under ``plan`` against its budget.

    Emits VER201/VER202 errors when the declared ``max_amplitudes`` budget
    cannot hold the tile working set (respectively a single element), a
    VER203 warning when a plan tiles the sweep while using under a quarter
    of its budget, and a VER205 warning when the budget holds a statevector
    element but not a single density (``4**n``) element — a noisy backend
    could not run the program under it at all.  Plans without a declared
    budget verify vacuously.
    """
    report = estimate_cost(program, plan, engine=engine, mode=mode)
    budget = report.max_amplitudes
    out: List[Diagnostic] = []
    if budget is None:
        return out
    obj = f"{program.name}[{engine}/{mode}]"

    def diag(code: str, message: str, severity: Severity, hint: str) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=severity,
            location=Location(obj=obj),
            message=message,
            hint=hint,
        )

    if report.element_amplitudes > budget:
        out.append(
            diag(
                "VER202",
                f"one element needs {report.element_amplitudes} amplitudes on "
                f"the {engine} engine but the budget is {budget} — no tiling "
                "can fit it",
                Severity.ERROR,
                "raise max_batch_amplitudes or shrink the circuit; tiling "
                "cannot split a single element's state",
            )
        )
    elif report.peak_amplitudes > budget:
        out.append(
            diag(
                "VER201",
                f"tile working set is {report.peak_amplitudes} amplitudes "
                f"({report.tile_elements} elements x "
                f"{report.element_amplitudes}) but the declared budget is "
                f"{budget}",
                Severity.ERROR,
                "shrink row_tile/sample_tile or derive the plan with "
                "TilePlan.for_circuit_sweep/for_state_overlap from the budget",
            )
        )
    else:
        if (
            report.num_tiles > 1
            and report.peak_amplitudes < budget * UNDERUTILISATION_FRACTION
        ):
            out.append(
                diag(
                    "VER203",
                    f"plan streams {report.num_tiles} tiles but each uses only "
                    f"{report.peak_amplitudes} of {budget} budgeted amplitudes "
                    f"(< {int(UNDERUTILISATION_FRACTION * 100)}%)",
                    Severity.WARNING,
                    "grow the tile extents toward the budget to amortise "
                    "per-tile contraction overhead",
                )
            )
        if engine == "statevector":
            density_element = _element_amplitudes(program, "density", mode)
            if density_element > budget:
                out.append(
                    diag(
                        "VER205",
                        f"budget {budget} holds a statevector element "
                        f"({report.element_amplitudes} amplitudes) but one "
                        f"density element needs {density_element} — a noisy "
                        "backend cannot run this program under the budget at "
                        "all",
                        Severity.WARNING,
                        "raise max_batch_amplitudes past 4**num_qubits before "
                        "pointing the sweep at a noisy backend",
                    )
                )
    return out


@functools.lru_cache(maxsize=None)
def _reference_sweeps() -> tuple:
    """``(program, plan, engine)`` for every reference workload and engine.

    Compiles each discriminator of
    :func:`repro.analysis.verify.reference_workloads` and plans a
    representative parameter-shift sweep (16 shift rows x a 64-sample test
    batch) for it on both engines, under the SWAP-test estimator's default
    ``max_batch_amplitudes``.  Built once per process, so the reports and
    their budget verification see the very same ``(program, plan)`` pairs.
    """
    from repro.analysis.verify import reference_workloads
    from repro.core.swap_test import SwapTestFidelityEstimator
    from repro.quantum.program import SweepProgram, TilePlan

    budget = SwapTestFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES
    sweeps = []
    for label, builder, values, features in reference_workloads():
        program = SweepProgram.compile(
            builder.build(features, values),
            bind_floats=True,
            name=f"{label}:discriminator",
        )
        for engine in _ENGINE_KINDS:
            element = _element_amplitudes(program, engine, "circuit_sweep")
            plan = TilePlan.for_circuit_sweep(16, 64, element, budget)
            sweeps.append((program, plan, engine))
    return tuple(sweeps)


def reference_cost_reports() -> List[CostReport]:
    """Cost reports of the reference suite's representative sweep programs.

    One report per workload and engine (see :func:`_reference_sweeps`).
    Feeds the machine-readable ``cost`` section of the analysis payload
    (CLI ``--verify``).
    """
    return [
        estimate_cost(program, plan, engine=engine, mode="circuit_sweep")
        for program, plan, engine in _reference_sweeps()
    ]


def verify_reference_costs() -> List[Diagnostic]:
    """Budget-verify the plans :func:`reference_cost_reports` reports on."""
    out: List[Diagnostic] = []
    for program, plan, engine in _reference_sweeps():
        out.extend(verify_cost(program, plan, engine=engine, mode="circuit_sweep"))
    return out
