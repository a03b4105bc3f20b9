"""Static cost-model verification of compiled sweep programs (VER2xx).

An abstract interpreter over a compiled
:class:`~repro.quantum.program.SweepProgram` and its
:class:`~repro.quantum.program.TilePlan`: without executing anything, it
computes what one tiled execution *will* allocate and contract —

* the peak amplitude count of one tile's working set (``2**n`` complex
  entries per element on a statevector engine, ``4**n`` on a density
  engine);
* the peak resident bytes, modelling the engine's einsum double-buffering
  (input and output amplitude arrays are live together during every step)
  plus the sweep-wide bindings matrix and read-out buffer;
* the step-application count of the full sweep (one per compiled step per
  tile), and of those the dense contractions: every step on a density
  engine, and on a statevector engine only the steps whose kernel class
  (:mod:`repro.quantum.kernels`) is dense or controlled — permutation and
  diagonal steps contract nothing.

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
from typing import TYPE_CHECKING, Any, Dict, List, Optional

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
#: Live amplitude arrays per einsum step: the input state, the einsum
#: output, and one internal contraction intermediate (``np.einsum`` routes
#: two-operand contractions through a BLAS path that materialises a
#: reordered copy), measured against tracemalloc in
#: ``tests/analysis/test_cost_model.py``.
EINSUM_LIVE_ARRAYS = 3
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
    #: Complex entries of one element's state: ``2**n`` or ``4**n``.
    element_amplitudes: int
    rows: int
    samples: int
    row_tile: int
    sample_tile: int
    num_tiles: int
    #: Elements resident in the largest tile's working set.
    tile_elements: int
    #: Amplitudes of the largest tile's working set (the budgeted quantity).
    peak_amplitudes: int
    #: Bytes per amplitude at the precision configured when the report was
    #: built (16 under double, 8 under single — see ``repro.arrays``).
    bytes_per_amplitude: int
    #: Predicted peak resident bytes of one execution (see module docstring).
    peak_bytes: int
    #: Step applications over the whole sweep: ``num_tiles * len(steps)``.
    contractions: int
    #: Of which precomposed ``(4**k, 4**k)`` superoperator contractions
    #: (density engines contract every step as a superoperator; 0 otherwise).
    superoperator_contractions: int
    #: Of which dense einsum contractions: every step on a density engine;
    #: on a statevector engine the dense and controlled kernel-class steps.
    dense_contractions: int
    #: The plan's declared budget (``None`` when undeclared).
    max_amplitudes: Optional[int]
    #: Leading steps evolved once per tile at batch 1 and broadcast (the
    #: VER403-certified shared trained-state prefix); 0 when not shared.
    shared_prefix_steps: int = 0
    #: Per-element step applications over the whole sweep.  Without prefix
    #: sharing every element pays every step; a shared prefix pays its steps
    #: once per tile instead of once per element, so this is the quantity
    #: the whole-grid executor actually reduces.
    element_contractions: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering for the analysis payload's ``cost`` section."""
        return dataclasses.asdict(self)


def _element_amplitudes(num_qubits: int, engine: str) -> int:
    if engine == "density":
        return 4**num_qubits
    return 2**num_qubits


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
    ``shared_prefix_steps`` declares how many leading steps a
    ``TilePlan.for_grid_sweep`` execution evolves once per tile and
    broadcasts (:func:`repro.analysis.equiv.shared_prefix_length`); those
    steps cost one element per tile instead of one per grid element in the
    ``element_contractions`` account.
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

    element_amplitudes = _element_amplitudes(program.num_qubits, engine)
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
    bindings_bytes = sweep_elements * program.num_columns * 8
    readout_bytes = sweep_elements * (2 ** len(program.measured_qubits)) * 8
    peak_bytes = (
        EINSUM_LIVE_ARRAYS * peak_amplitudes * bytes_per_amplitude
        + bindings_bytes
        + readout_bytes
    )
    contractions = num_tiles * len(program.steps)
    if engine == "density":
        dense_contractions = contractions
    else:
        from repro.quantum.kernels import CONTROLLED, DENSE, classify_step

        dense_steps = sum(
            classify_step(step) in (DENSE, CONTROLLED) for step in program.steps
        )
        dense_contractions = num_tiles * dense_steps
    suffix_steps = len(program.steps) - shared_prefix_steps
    element_contractions = (
        num_tiles * shared_prefix_steps + sweep_elements * suffix_steps
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
        dense_contractions=dense_contractions,
        max_amplitudes=plan.max_amplitudes,
        shared_prefix_steps=shared_prefix_steps,
        element_contractions=element_contractions,
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
    budget verify vacuously.  Prefix-shared plans
    (``TilePlan.for_grid_sweep``) are exempt from VER203: their single-row
    tiles are what makes the shared trained-state prefix legal, not an
    under-sized budget.
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
            # Prefix-shared grid plans tile one parameter row at a time ON
            # PURPOSE: the trained columns must be constant within a tile
            # for the executor to evolve the trained-state prefix once and
            # broadcast it.  Growing such a tile toward the budget would
            # forfeit the shared prefix, so small tiles are not waste here
            # and the under-utilisation warning would be a false positive.
            and not getattr(plan, "shared_prefix", False)
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
            density_element = _element_amplitudes(program.num_qubits, "density")
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
            element = _element_amplitudes(program.num_qubits, engine)
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
