"""Static IR verifier for compiled :class:`~repro.quantum.program.SweepProgram`s.

PR 5 moved the sweep hot path into a compiled IR: gate steps with
precomputed unitaries, parameter bind sites reading a ``(batch, columns)``
bindings matrix, noise precomposed into ``(4**k, 4**k)`` superoperators, and
a :class:`~repro.quantum.program.TilePlan` cutting the (shift rows x samples)
grid.  Each of those artefacts has invariants that, when silently violated —
a bind-site column outside the bindings matrix, a non-CPTP precomposed
channel, a tile enumeration that skips grid elements — produce *wrong
numbers*, not exceptions, three layers away from the defect.

This module checks those invariants **statically**, over the IR itself, and
reports through the shared :class:`~repro.analysis.diagnostics.Diagnostic`
record:

====== ====================================================================
code   invariant
====== ====================================================================
VER101 every bind-site column index lies in ``[0, num_columns)``
VER102 every parametric site is covered by the supplied bindings matrix
VER103 every declared binding column is read by at least one site (warning)
VER110 gate qubit tuples lie within the register width, without duplicates
VER111 measured qubits/clbits lie within their registers, measured once,
       and pair up one clbit per measured qubit
VER120 fixed-step matrices are ``(2**k, 2**k)`` and unitary (full level)
VER121 the fixed/parametric split is consistent (fixed steps carry a
       matrix, parametric steps do not)
VER130 a (precomposed) superoperator/channel is well-formed (a complex
       ``(4**k, 4**k)`` block for a density step plan) and trace preserving
VER131 a (precomposed) superoperator is completely positive (Choi PSD)
VER140 the tile plan exactly partitions the sweep grid it claims to cover
VER141 a tile exceeds the plan's declared amplitude budget (warning)
VER150 the circuit fits the deferred-measurement strategy (no operation on
       an already-measured qubit, no qubit measured twice, no resets)
====== ====================================================================

Two verification levels keep the hot path honest without taxing it:

* the **cheap** subset (index/bounds/consistency checks, ``O(steps)``) runs
  on *every* :meth:`SweepProgram.compile` — compiles are structure-cached,
  so this costs one linear walk per circuit structure;
* the **full** level adds the numerical checks (unitarity of fixed
  matrices, CPTP of precomposed noise superoperators) and is switched on by
  the ``REPRO_VERIFY=1`` environment flag, which also makes the density
  engine verify each precomposed step plan before executing it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import COMPLEX_DTYPE

from repro.analysis.diagnostics import Diagnostic, Location, Severity, errors
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.quantum.program import SweepProgram, TilePlan

#: Environment flag enabling the full (numerical) verification level.
REPRO_VERIFY_ENV = "REPRO_VERIFY"

#: Default absolute tolerance of the numerical (unitarity / CPTP) checks.
DEFAULT_ATOL = 1e-8

#: Code -> one-line description, mirrored in ``docs/static_analysis.md``.
VERIFIER_CODES = {
    "VER101": "bind-site column index out of range of the program's columns",
    "VER102": "parametric site not covered by the supplied bindings matrix",
    "VER103": "declared binding column never read by any bind site",
    "VER110": "gate qubit tuple outside the register width or duplicated",
    "VER111": "measurement read-out outside the registers or inconsistent",
    "VER120": "fixed gate step matrix malformed or not unitary",
    "VER121": "fixed/parametric step split inconsistent with its matrix",
    "VER130": "superoperator or channel is malformed or not trace preserving",
    "VER131": "superoperator is not completely positive",
    "VER140": "tile plan does not exactly partition the sweep grid",
    "VER141": "tile exceeds the plan's declared amplitude budget",
    "VER150": "circuit violates the deferred-measurement strategy",
}


def full_verification_enabled() -> bool:
    """Whether ``REPRO_VERIFY`` requests the full (numerical) level."""
    return os.environ.get(REPRO_VERIFY_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


def _diag(
    code: str,
    message: str,
    *,
    obj: str,
    severity: Severity = Severity.ERROR,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        location=Location(obj=obj),
        message=message,
        hint=hint,
    )


# --------------------------------------------------------------------------- #
# Superoperator / channel checks (VER130, VER131)
# --------------------------------------------------------------------------- #


def verify_superoperator(
    superoperator: np.ndarray,
    num_qubits: int,
    *,
    name: str = "superoperator",
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """CPTP-check one ``(4**k, 4**k)`` superoperator in the kron layout.

    The layout is the one :func:`~repro.quantum.batched_density.conjugation_superoperator`
    produces (``vec`` row-major, so ``S = sum_k kron(K_k, K_k.conj())``):

    * trace preservation — ``sum_r S[(r, r), (c, c')] == delta(c, c')``,
      i.e. the trace row of the superoperator is the vectorised identity;
    * complete positivity — the Choi matrix ``J[(c, r), (c', r')] =
      S[(r, r'), (c, c')]`` is positive semi-definite within ``atol``.
    """
    out: List[Diagnostic] = []
    matrix = np.asarray(superoperator, dtype=COMPLEX_DTYPE)
    dim = 2 ** int(num_qubits)
    expected = (dim * dim, dim * dim)
    if matrix.ndim != 2 or matrix.shape != expected:
        out.append(
            _diag(
                "VER130",
                f"expected a {expected[0]}x{expected[1]} superoperator for "
                f"{num_qubits} qubit(s), got shape {matrix.shape}",
                obj=name,
            )
        )
        return out
    if not np.all(np.isfinite(matrix.view(float))):
        out.append(_diag("VER130", "superoperator contains non-finite entries", obj=name))
        return out
    tensor = matrix.reshape(dim, dim, dim, dim)  # [r, r', c, c']
    trace_row = np.einsum("rrcd->cd", tensor)
    tp_defect = float(np.max(np.abs(trace_row - np.eye(dim))))
    if tp_defect > atol:
        out.append(
            _diag(
                "VER130",
                f"not trace preserving: trace-row defect {tp_defect:.3e} "
                f"exceeds tolerance {atol:.1e}",
                obj=name,
                hint="channels must satisfy sum_k K_k^dagger K_k = I; check the "
                "Kraus operators (and their composition order) feeding this "
                "superoperator",
            )
        )
    choi = tensor.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim)
    hermiticity = float(np.max(np.abs(choi - choi.conj().T)))
    if hermiticity > max(atol, 1e-10):
        out.append(
            _diag(
                "VER131",
                f"not completely positive: Choi matrix is non-Hermitian "
                f"(defect {hermiticity:.3e})",
                obj=name,
            )
        )
        return out
    min_eig = float(np.min(np.linalg.eigvalsh(choi)))
    if min_eig < -max(atol, 1e-10):
        out.append(
            _diag(
                "VER131",
                f"not completely positive: Choi matrix has eigenvalue "
                f"{min_eig:.3e} below zero",
                obj=name,
                hint="a map that is not a Kraus-representable channel was "
                "composed into this superoperator",
            )
        )
    return out


def verify_channel(
    kraus_operators: Sequence[np.ndarray],
    *,
    name: str = "channel",
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """CPTP-check a channel given in Kraus form.

    A Kraus-form channel is completely positive by construction, so the
    substantive check is trace preservation (the completeness relation) plus
    shape consistency — every operator square, all of one dimension, and the
    dimension a power of two.
    """
    out: List[Diagnostic] = []
    operators = [np.asarray(k, dtype=COMPLEX_DTYPE) for k in kraus_operators]
    if not operators:
        return [_diag("VER130", "channel has no Kraus operators", obj=name)]
    dim = operators[0].shape[0] if operators[0].ndim == 2 else None
    for index, kraus in enumerate(operators):
        if kraus.ndim != 2 or kraus.shape[0] != kraus.shape[1]:
            out.append(
                _diag(
                    "VER130",
                    f"Kraus operator {index} is not square (shape {kraus.shape})",
                    obj=name,
                )
            )
            return out
        if kraus.shape[0] != dim:
            out.append(
                _diag(
                    "VER130",
                    f"Kraus operator {index} has dimension {kraus.shape[0]}, "
                    f"expected {dim}",
                    obj=name,
                )
            )
            return out
        if not np.all(np.isfinite(kraus.view(float))):
            out.append(
                _diag(
                    "VER130",
                    f"Kraus operator {index} contains non-finite entries",
                    obj=name,
                )
            )
            return out
    if dim < 1 or dim & (dim - 1):
        out.append(
            _diag(
                "VER130",
                f"Kraus dimension {dim} is not a power of two",
                obj=name,
            )
        )
        return out
    total = np.zeros((dim, dim), dtype=COMPLEX_DTYPE)
    for kraus in operators:
        total += kraus.conj().T @ kraus
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > atol:
        out.append(
            _diag(
                "VER130",
                f"not trace preserving: completeness defect {defect:.3e} "
                f"exceeds tolerance {atol:.1e}",
                obj=name,
                hint="sum_k K_k^dagger K_k must equal the identity",
            )
        )
    return out


# --------------------------------------------------------------------------- #
# Tile-plan checks (VER140, VER141)
# --------------------------------------------------------------------------- #


def verify_tile_plan(
    plan: "TilePlan",
    *,
    expected_rows: Optional[int] = None,
    expected_samples: Optional[int] = None,
    element_amplitudes: Optional[int] = None,
) -> List[Diagnostic]:
    """Check that a tile plan exactly partitions the grid it claims to cover.

    The flat tile enumeration must be contiguous, in order, non-overlapping,
    and cover exactly ``rows * samples`` elements — the property the tiled
    executor's "bit-identical to the untiled pass" guarantee rests on.  When
    ``expected_rows``/``expected_samples`` are given the plan's declared grid
    is additionally matched against them (VER140); when
    ``element_amplitudes`` is given, tiles whose working set exceeds the
    plan's declared ``max_amplitudes`` budget are reported (VER141, warning —
    the budget is advisory for the overlap-matmul cost model).
    """
    out: List[Diagnostic] = []
    obj = (
        f"tile plan {plan.rows}x{plan.samples} "
        f"(row_tile={plan.row_tile}, sample_tile={plan.sample_tile})"
    )
    if expected_rows is not None and plan.rows != expected_rows:
        out.append(
            _diag(
                "VER140",
                f"plan declares {plan.rows} row(s) but the sweep has {expected_rows}",
                obj=obj,
            )
        )
    if expected_samples is not None and plan.samples != expected_samples:
        out.append(
            _diag(
                "VER140",
                f"plan declares {plan.samples} sample(s) but the sweep has "
                f"{expected_samples}",
                obj=obj,
            )
        )
    total = plan.rows * plan.samples
    cursor = 0
    for start, stop in plan.flat_tiles():
        if start != cursor:
            kind = "overlaps" if start < cursor else "skips"
            out.append(
                _diag(
                    "VER140",
                    f"tile [{start}, {stop}) {kind} the grid at element "
                    f"{cursor}: tiles must be contiguous in row-major order",
                    obj=obj,
                )
            )
            return out
        if stop <= start:
            out.append(
                _diag("VER140", f"tile [{start}, {stop}) is empty or reversed", obj=obj)
            )
            return out
        if (
            element_amplitudes is not None
            and plan.max_amplitudes is not None
            and (stop - start) * element_amplitudes > plan.max_amplitudes
            and stop - start > 1
        ):
            out.append(
                _diag(
                    "VER141",
                    f"tile [{start}, {stop}) holds "
                    f"{(stop - start) * element_amplitudes} amplitudes, over "
                    f"the declared budget of {plan.max_amplitudes}",
                    obj=obj,
                    severity=Severity.WARNING,
                    hint="derive the plan with TilePlan.for_circuit_sweep so "
                    "tiles respect the amplitude budget",
                )
            )
        cursor = stop
    if cursor != total:
        out.append(
            _diag(
                "VER140",
                f"tiles cover {cursor} element(s) of a {total}-element grid",
                obj=obj,
                hint="every (row, sample) pair must be executed exactly once",
            )
        )
    return out


# --------------------------------------------------------------------------- #
# Circuit checks (VER110, VER150)
# --------------------------------------------------------------------------- #


def verify_circuit(circuit, *, name: Optional[str] = None) -> List[Diagnostic]:
    """Structured deferred-measurement and bounds diagnostics for a circuit.

    Generalises :func:`repro.quantum.program.check_deferred_measurement` —
    which raises on the first violation — into a pass that reports *every*
    violation as a :class:`Diagnostic`: operations or resets on
    already-measured qubits, qubits measured twice, resets (which the
    vectorised sweep engines cannot model), and qubit indices outside the
    register.
    """
    out: List[Diagnostic] = []
    circuit_name = name or getattr(circuit, "name", "circuit")
    num_qubits = circuit.num_qubits
    measured: set = set()
    for position, instruction in enumerate(circuit.instructions):
        if instruction.name == "barrier":
            continue
        obj = f"circuit '{circuit_name}' instruction {position} ({instruction.name})"
        bad_qubits = [q for q in instruction.qubits if not 0 <= q < num_qubits]
        if bad_qubits:
            out.append(
                _diag(
                    "VER110",
                    f"qubit(s) {bad_qubits} outside the {num_qubits}-qubit register",
                    obj=obj,
                )
            )
        if instruction.is_measurement:
            duplicates = measured.intersection(instruction.qubits)
            if duplicates:
                out.append(
                    _diag(
                        "VER150",
                        f"qubit(s) {sorted(duplicates)} measured more than once; "
                        "deferred measurement supports a single measurement per "
                        "qubit",
                        obj=obj,
                        hint="measure each qubit at most once, at the end of the "
                        "circuit",
                    )
                )
            measured.update(instruction.qubits)
            continue
        touched = measured.intersection(instruction.qubits)
        if touched:
            out.append(
                _diag(
                    "VER150",
                    f"instruction '{instruction.name}' acts on already-measured "
                    f"qubit(s) {sorted(touched)}; deferred measurement cannot "
                    "apply operations after a measurement",
                    obj=obj,
                    hint="move the measurement after every operation on the qubit",
                )
            )
        if instruction.name == "reset":
            out.append(
                _diag(
                    "VER150",
                    "reset requires per-element projective randomness the "
                    "vectorised sweep engines do not model",
                    obj=obj,
                    hint="compile-once sweeps cannot contain resets; use the "
                    "per-circuit simulator instead",
                )
            )
    return out


# --------------------------------------------------------------------------- #
# Program checks (VER101-VER121)
# --------------------------------------------------------------------------- #


def _program_structural_diagnostics(program: "SweepProgram") -> List[Diagnostic]:
    """The cheap ``O(steps)`` subset: bounds and IR-consistency checks."""
    out: List[Diagnostic] = []
    prog = f"program '{program.name}'"
    num_qubits = program.num_qubits
    columns_read: set = set()
    for index, step in enumerate(program.steps):
        obj = f"{prog} step {index} ({step.name})"
        bad_qubits = [q for q in step.qubits if not 0 <= q < num_qubits]
        if bad_qubits:
            out.append(
                _diag(
                    "VER110",
                    f"qubit(s) {bad_qubits} outside the {num_qubits}-qubit register",
                    obj=obj,
                )
            )
        if len(set(step.qubits)) != len(step.qubits):
            out.append(
                _diag(
                    "VER110",
                    f"duplicate qubit in tuple {step.qubits}",
                    obj=obj,
                )
            )
        has_column_slot = False
        for slot in step.slots:
            if slot[0] != "column":
                continue
            has_column_slot = True
            column = slot[1]
            columns_read.add(column)
            if not 0 <= column < program.num_columns:
                out.append(
                    _diag(
                        "VER101",
                        f"bind site reads column {column} of a "
                        f"{program.num_columns}-column bindings matrix",
                        obj=obj,
                        hint="bind-site columns are assigned at compile time; a "
                        "hand-built or mutated program lost the column/count "
                        "invariant",
                    )
                )
        if step.is_fixed and has_column_slot:
            out.append(
                _diag(
                    "VER121",
                    "step carries a precomputed matrix but also reads bindings "
                    "columns; the executor would ignore the bindings",
                    obj=obj,
                )
            )
        if not step.is_fixed and not has_column_slot:
            out.append(
                _diag(
                    "VER121",
                    "step has neither a precomputed matrix nor a bindings "
                    "column; the executor cannot build its gate",
                    obj=obj,
                    hint="all-value slots must be compiled into a fixed matrix",
                )
            )
    unread = sorted(set(range(program.num_columns)) - columns_read)
    if unread:
        out.append(
            _diag(
                "VER103",
                f"binding column(s) {unread} are never read by any bind site",
                obj=prog,
                severity=Severity.WARNING,
                hint="sweep callers will populate these columns to no effect; "
                "drop the unused parameters from the ordering",
            )
        )
    # Measurement read-out consistency.
    measured = program.measured_qubits
    bad = [q for q in measured if not 0 <= q < num_qubits]
    if bad:
        out.append(
            _diag(
                "VER111",
                f"measured qubit(s) {bad} outside the {num_qubits}-qubit register",
                obj=prog,
            )
        )
    if len(set(measured)) != len(measured):
        out.append(
            _diag(
                "VER111",
                f"qubit(s) measured more than once in {measured}",
                obj=prog,
            )
        )
    bad_clbits = [c for c in program.clbits if not 0 <= c < program.num_clbits]
    if bad_clbits:
        out.append(
            _diag(
                "VER111",
                f"clbit(s) {bad_clbits} outside the {program.num_clbits}-clbit register",
                obj=prog,
            )
        )
    if len(program.clbits) != len(measured):
        out.append(
            _diag(
                "VER111",
                f"{len(measured)} measured qubit(s) map to {len(program.clbits)} "
                "clbit(s); read-out needs exactly one clbit per measured qubit",
                obj=prog,
            )
        )
    return out


def _program_numeric_diagnostics(
    program: "SweepProgram", atol: float = DEFAULT_ATOL
) -> List[Diagnostic]:
    """The full-level numerical subset: fixed-matrix shapes and unitarity."""
    out: List[Diagnostic] = []
    prog = f"program '{program.name}'"
    for index, step in enumerate(program.steps):
        if not step.is_fixed:
            continue
        obj = f"{prog} step {index} ({step.name})"
        matrix = np.asarray(step.matrix, dtype=COMPLEX_DTYPE)
        dim = 2 ** len(step.qubits)
        if matrix.shape != (dim, dim):
            out.append(
                _diag(
                    "VER120",
                    f"fixed matrix has shape {matrix.shape}, expected "
                    f"({dim}, {dim}) for {len(step.qubits)} qubit(s)",
                    obj=obj,
                )
            )
            continue
        if not np.all(np.isfinite(matrix.view(float))):
            out.append(_diag("VER120", "fixed matrix has non-finite entries", obj=obj))
            continue
        defect = float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))))
        if defect > max(atol, 1e-9):
            out.append(
                _diag(
                    "VER120",
                    f"fixed matrix is not unitary (defect {defect:.3e})",
                    obj=obj,
                    hint="gate matrices must come from the gate library; a "
                    "hand-patched step matrix would silently denormalise every "
                    "sweep state",
                )
            )
    return out


def verify_program(
    program: "SweepProgram",
    *,
    bindings=None,
    tile_plan: Optional["TilePlan"] = None,
    noise_model=None,
    level: str = "full",
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """Verify one compiled program (and optionally its sweep inputs).

    Parameters
    ----------
    program:
        The compiled :class:`~repro.quantum.program.SweepProgram`.
    bindings:
        Optional ``(batch, columns)`` bindings matrix of the sweep about to
        execute; enables the VER102 coverage check of every parametric site.
    tile_plan:
        Optional :class:`~repro.quantum.program.TilePlan`; checked for exact
        grid partition (VER140/VER141) and, when ``bindings`` is also given,
        for matching the sweep's row count.
    noise_model:
        Optional :class:`~repro.quantum.noise.NoiseModel`; at the full level
        every gate's precomposed noise superoperator is CPTP-checked
        (VER130/VER131) exactly as the density engine will compose it.
    level:
        ``"cheap"`` for the always-on structural subset, ``"full"`` (default)
        to add the numerical checks.
    """
    if level not in ("cheap", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    out = _program_structural_diagnostics(program)
    prog = f"program '{program.name}'"
    if bindings is not None:
        matrix = np.asarray(bindings, dtype=float)
        if matrix.ndim != 2:
            out.append(
                _diag(
                    "VER102",
                    f"bindings must be 2-D (batch, columns), got shape {matrix.shape}",
                    obj=prog,
                )
            )
        else:
            width = matrix.shape[1]
            uncovered = sorted(
                {
                    slot[1]
                    for step in program.steps
                    for slot in step.slots
                    if slot[0] == "column" and slot[1] >= width
                }
            )
            if uncovered:
                out.append(
                    _diag(
                        "VER102",
                        f"parametric site column(s) {uncovered} are not covered "
                        f"by the {width}-column bindings matrix",
                        obj=prog,
                        hint="the bindings matrix must supply every compiled "
                        "bind-site column",
                    )
                )
            elif width != program.num_columns:
                out.append(
                    _diag(
                        "VER102",
                        f"bindings have {width} column(s) but the program "
                        f"declares {program.num_columns}",
                        obj=prog,
                    )
                )
    if tile_plan is not None:
        out.extend(
            verify_tile_plan(
                tile_plan, element_amplitudes=2**program.num_qubits
            )
        )
        if bindings is not None and np.asarray(bindings).ndim == 2:
            total = tile_plan.rows * tile_plan.samples
            rows = np.asarray(bindings).shape[0]
            if total != rows:
                out.append(
                    _diag(
                        "VER140",
                        f"tile plan covers {total} grid element(s) but the "
                        f"bindings have {rows} row(s)",
                        obj=prog,
                    )
                )
    if level == "full":
        out.extend(_program_numeric_diagnostics(program, atol))
        if noise_model is not None:
            from repro.quantum.program import gate_noise_superoperator

            seen: set = set()
            for index, step in enumerate(program.steps):
                key = (step.name, len(step.qubits))
                if key in seen:
                    continue
                seen.add(key)
                try:
                    superop = gate_noise_superoperator(
                        step.name, step.qubits, noise_model
                    )
                except SimulationError as exc:
                    out.append(
                        _diag(
                            "VER130",
                            f"noise precomposition failed: {exc}",
                            obj=f"{prog} step {index} ({step.name})",
                        )
                    )
                    continue
                if superop is None:
                    continue
                out.extend(
                    verify_superoperator(
                        superop,
                        len(step.qubits),
                        name=(
                            f"{prog} step {index} ({step.name}) precomposed "
                            "noise superoperator"
                        ),
                        atol=atol,
                    )
                )
    return out


# --------------------------------------------------------------------------- #
# Compile-time and execution-time hooks
# --------------------------------------------------------------------------- #


def assert_clean(
    diagnostics: Iterable[Diagnostic], *, context: str, error_cls=SimulationError
) -> None:
    """Raise ``error_cls`` listing every error-severity finding, if any."""
    failed = errors(diagnostics)
    if failed:
        details = "\n".join(f"  {d.format()}" for d in failed)
        raise error_cls(
            f"{context}: static verification found {len(failed)} error(s):\n{details}"
        )


def verify_compilation(program: "SweepProgram") -> None:
    """The :meth:`SweepProgram.compile` hook.

    Runs the cheap structural subset on every compile (compiles are cached
    per structure, so this is one linear walk per structure) and the full
    numerical level when ``REPRO_VERIFY=1``; error findings abort the
    compile with :class:`~repro.exceptions.SimulationError` — a plan-time
    bug surfaces here instead of as NaNs three layers down.
    """
    level = "full" if full_verification_enabled() else "cheap"
    assert_clean(
        verify_program(program, level=level),
        context=f"compiling '{program.name}'",
    )


def step_plan_diagnostics(program: "SweepProgram", plans) -> List[Diagnostic]:
    """Check a density engine's precomposed per-step superoperator plans.

    Every plan — the folded unitary+noise matrix of a fixed step, or the
    noise-only precomposition of a parametric site — must be a complex
    ``(4**k, 4**k)`` block for its step's ``k`` qubits (the flattened
    density layout the engine contracts with) and CPTP.  A ``None`` plan is
    a step folded into an earlier run head: the engine checks its plan
    before folding it, and VER406 certifies the composed schedule.
    """
    out: List[Diagnostic] = []
    prog = f"program '{program.name}'"
    for index, (step, plan) in enumerate(zip(program.steps, plans)):
        if plan is None or plan.superop is None:
            continue
        kind, superop = plan.kind, plan.superop
        name = f"{prog} step {index} ({step.name}) {kind} superoperator plan"
        dtype = np.asarray(superop).dtype
        if dtype.kind != "c":
            out.append(
                _diag(
                    "VER130",
                    f"real dtype {dtype}; density contraction operands must "
                    "be complex",
                    obj=name,
                )
            )
            continue
        out.extend(verify_superoperator(superop, len(step.qubits), name=name))
    return out


def verify_step_plan_superoperators(program: "SweepProgram", plans) -> None:
    """The :meth:`DensitySuperoperatorEngine.step_plans` hook (full level only).

    Runs :func:`step_plan_diagnostics` before the engine ever contracts
    with the plans, and raises on any error finding.
    """
    if not full_verification_enabled():
        return
    assert_clean(
        step_plan_diagnostics(program, plans),
        context=f"planning noise superoperators for '{program.name}'",
    )


# --------------------------------------------------------------------------- #
# Figure-suite reference programs
# --------------------------------------------------------------------------- #


#: The figure suite's reference discriminators: label -> (features, architecture).
REFERENCE_WORKLOADS = {
    "iris-s": (4, "s"),
    "iris-d": (4, "d"),
    "iris-e": (4, "e"),
    "mnist-s": (8, "s"),
}


def reference_workloads(
    labels: Sequence[str] = tuple(REFERENCE_WORKLOADS),
) -> Iterator[Tuple[str, object, np.ndarray, np.ndarray]]:
    """Yield ``(label, builder, values, features)`` per reference workload.

    The QuClassi discriminators behind the paper figures (Iris QC-S/QC-D/QC-E
    at 4 features, the binary-MNIST QC-S at 8), each with trained-parameter
    values and one feature vector.  Every workload draws from its own stream
    spawned from seed 2022, so its values do not depend on which subset a
    caller asks for.  The verifier, the cost model and the equivalence
    checker all run on these.
    """
    from repro.core.model import QuClassi
    from repro.utils.rng import spawn_rngs

    streams = dict(zip(REFERENCE_WORKLOADS, spawn_rngs(2022, len(REFERENCE_WORKLOADS))))
    for label in labels:
        num_features, architecture = REFERENCE_WORKLOADS[label]
        builder = QuClassi(
            num_features=num_features,
            num_classes=2,
            architecture=architecture,
            seed=2022,
        ).builder
        rng = streams[label]
        values = rng.uniform(0.0, np.pi, size=len(builder.parameters))
        features = rng.uniform(0.05, 1.0, size=num_features)
        yield label, builder, values, features


def verify_reference_suite() -> List[Diagnostic]:
    """Compile and fully verify the figure suite's representative programs.

    Takes the QuClassi discriminators of :func:`reference_workloads` and
    verifies, at the full level, every program the stack compiles from them:
    the builder's symbolic trained-state program, the whole-grid
    discriminator program the SWAP-test estimator executes, and the
    transpile template's program of one bound discriminator, all under the
    simulated IBM-Q London noise model.  The density step plans of the grid
    program and of the template program a noisy backend runs are checked
    too, exactly as the London density engine precomposes them.  Used by
    the CLI's ``--verify`` pass and the clean-suite property test.
    """
    from repro.hardware.calibration import get_calibration
    from repro.quantum.program import DensitySuperoperatorEngine, SweepProgram
    from repro.quantum.transpiler import TranspileCache

    out: List[Diagnostic] = []
    noise = get_calibration("ibmq_london").noise_model()
    for label, builder, values, features in reference_workloads():
        # Symbolic trained-state program (the analytic estimator's compile).
        symbolic = SweepProgram.compile(
            builder.trained_state_circuit(None),
            bind_floats=False,
            parameters=builder.parameters,
            name=f"{label}:trained_state",
        )
        out.extend(verify_program(symbolic, noise_model=noise))
        # Whole-grid program (the SWAP-test estimator's sweep route).
        grid = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name=f"{label}:grid",
        )
        out.extend(
            verify_program(
                grid,
                bindings=builder.grid_bindings(values[None, :], features[None, :]),
                noise_model=noise,
            )
        )
        bound_circuit = builder.build(features, values)
        out.extend(verify_circuit(bound_circuit))
        # Transpile-template program (the per-circuit noisy ``run`` path).
        cache = TranspileCache()
        entry, _ = cache.template(bound_circuit)
        out.extend(verify_program(entry.ensure_program(), noise_model=noise))
        # Density step plans, as the London engine precomposes them for the
        # grid and for the template program a noisy backend runs.
        engine = DensitySuperoperatorEngine(noise)
        for program in (grid, entry.ensure_program()):
            out.extend(step_plan_diagnostics(program, engine.step_plans(program)))
    return out
