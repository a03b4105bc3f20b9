"""Translation validation of the compile pipeline (VER4xx).

A runtime certificate module of :mod:`repro.analysis`, beside the IR and
cost verifiers.  Where the IR verifier checks one compiled
:class:`~repro.quantum.program.SweepProgram` against its *own* invariants,
this family checks an **optimised** program against its **source**: every
algebraic rewrite the plan-time fusion pass performs is re-derived here
through an independent code path and certified, so a fusion bug surfaces
as a diagnostic (or a refused compile) instead of as wrong sweep numbers.

====== ====================================================================
code   contract
====== ====================================================================
VER401 a fused step's matrix equals the ordered product of its source
       unitaries lifted to the fused qubit tuple, up to a global phase
VER402 a fused step's folded density superoperator equals the sequential
       composition of its sources' (noise ∘ conjugation) superoperators,
       and the folded matrix is still CPTP
VER403 a claimed shared trained-state prefix only covers steps whose bind
       columns are constant across every shift row of the bindings
VER404 a fused step spans a declared fusion barrier
VER405 a statevector kernel-class plan reproduces its step's matrix on the
       basis states of a register of the step's width (exactly for
       permutations, within ``state_atol`` otherwise)
VER406 the density engine's layout-scheduled evolution of a program equals
       the per-state :class:`~repro.quantum.density_matrix.DensityMatrix`
       evolution of every bindings row (within ``1e-12`` in double
       precision)
VER410 an optimised program is a faithful translation of its source:
       structural metadata, bind-column maps, and the step algebra
       (flattened through fusion provenance) all agree
VER411 the optimisation pass was vacuous — the optimised program has no
       fused steps or no fewer steps than its source (warning)
====== ====================================================================

Two implementations, one theorem
--------------------------------

The fusion pass in :mod:`repro.quantum.program` lifts gate blocks to the
fused qubit tuple with tensor ``tensordot``/``moveaxis`` axis algebra (the
engines' idiom).  The certificates here rebuild every lift from scratch
with ``kron`` plus explicit qubit-permutation matrices — a genuinely
different code path — so a bug in either lifting implementation makes the
two sides disagree and the certificate fail.

The **fusion legality oracle** (:func:`can_extend_fusion`) is the decision
procedure the pass consults *before* rewriting: fixed unitaries only,
overlapping qubit tuples, bounded fused width, and — under a noise model —
the channel-commutation condition ``C(U) · N_acc == N_acc · C(U)`` that
makes folding the run's noise superoperators behind the fused unitary
exact (moving each appended conjugation left past the accumulated noise).
Parametric bind sites and measurement barriers always block fusion.

Findings surface through the shared CLI (``--verify``), its text/JSON
outputs, and ``--select`` like every other family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.verify import DEFAULT_ATOL
from repro.exceptions import SimulationError
from repro.utils.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.quantum.noise import NoiseModel
    from repro.quantum.program import GateStep, SweepProgram

#: Code -> one-line description, mirrored in ``docs/static_analysis.md``.
EQUIV_CODES = {
    "VER401": "fused unitary differs from the ordered product of its sources",
    "VER402": "folded superoperator differs from the composed source channels",
    "VER403": "claimed shared prefix reads a column that varies across rows",
    "VER404": "fused step spans a declared fusion barrier",
    "VER405": "kernel-class plan does not reproduce its step's matrix",
    "VER406": "layout-scheduled density evolution differs from the per-state reference",
    "VER410": "optimised program is not a faithful translation of its source",
    "VER411": "optimisation pass was vacuous: nothing fused (warning)",
}

#: Default cap on the fused qubit-tuple width.  Two qubits keeps fused
#: unitaries at ``4 x 4`` and folded superoperators at ``16 x 16`` — the
#: dominant wins (``cx`` + trailing single-qubit rotations in basis-routed
#: circuits) fit, and plan matrices stay trivially cheap to certify.
DEFAULT_MAX_FUSED_QUBITS = 2


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
# Independent lifting: kron blocks + explicit qubit-permutation matrices
# --------------------------------------------------------------------------- #


def qubit_permutation_matrix(
    source_order: Sequence[int], target_order: Sequence[int]
) -> np.ndarray:
    """``P`` reordering a statevector from ``source_order`` to ``target_order``.

    Amplitude index bits are most-significant-first: bit ``i`` of an index in
    the source basis is the value of qubit ``source_order[i]``.  ``P`` is
    real orthogonal, so ``P.T`` is its inverse.
    """
    if sorted(source_order) != sorted(target_order):
        raise ValueError(
            f"permutation endpoints disagree: {source_order} vs {target_order}"
        )
    m = len(source_order)
    dim = 2**m
    matrix = np.zeros((dim, dim))
    for y in range(dim):
        bits = {
            qubit: (y >> (m - 1 - i)) & 1 for i, qubit in enumerate(source_order)
        }
        x = 0
        for qubit in target_order:
            x = (x << 1) | bits[qubit]
        matrix[x, y] = 1.0
    return matrix


def lift_unitary_kron(
    matrix: np.ndarray, qubits: Sequence[int], union: Sequence[int]
) -> np.ndarray:
    """Lift a ``(2**k, 2**k)`` block on ``qubits`` to the ``union`` register.

    Builds ``kron(matrix, eye)`` in the ``qubits``-first axis order and
    conjugates by the permutation onto ``union`` order — deliberately *not*
    the tensor-axis lift the fusion pass itself uses.
    """
    qubits = tuple(qubits)
    union = tuple(union)
    rest = [q for q in union if q not in qubits]
    block = np.kron(
        np.asarray(matrix), np.eye(2 ** len(rest), dtype=np.asarray(matrix).dtype)
    )
    perm = qubit_permutation_matrix(list(qubits) + rest, union)
    return perm @ block @ perm.T


def lift_superoperator_kron(
    superoperator: np.ndarray, qubits: Sequence[int], union: Sequence[int]
) -> np.ndarray:
    """Lift a ``(4**k, 4**k)`` kron-layout superoperator to the ``union``.

    The superoperator acts on ``vec(rho)`` with row index ``R * 2**m + C``;
    the embed keeps the sub-block on the leading axes (``qubits`` first) and
    the permutation superoperator ``kron(P, P)`` reorders both the row and
    the column factor onto ``union`` order.
    """
    qubits = tuple(qubits)
    union = tuple(union)
    k, m = len(qubits), len(union)
    rest_dim = 2 ** (m - k)
    sub = np.asarray(superoperator).reshape(2**k, 2**k, 2**k, 2**k)
    identity = np.eye(rest_dim)
    embedded = np.einsum(
        "abcd,ef,gh->aebgcfdh", sub, identity, identity
    ).reshape(4**m, 4**m)
    rest = [q for q in union if q not in qubits]
    perm = qubit_permutation_matrix(list(qubits) + rest, union)
    perm_super = np.kron(perm, perm)
    return perm_super @ embedded @ perm_super.T


def _conjugation_kron(matrix: np.ndarray) -> np.ndarray:
    """``rho -> U rho U^dagger`` as a kron-layout superoperator (local copy)."""
    matrix = np.asarray(matrix)
    return np.kron(matrix, matrix.conj())


# --------------------------------------------------------------------------- #
# The fusion legality oracle
# --------------------------------------------------------------------------- #


def fusion_union(steps: Sequence["GateStep"]) -> Tuple[int, ...]:
    """Sorted union of the qubit tuples of ``steps``."""
    return tuple(sorted({qubit for step in steps for qubit in step.qubits}))


def accumulated_noise(
    steps: Sequence["GateStep"],
    union: Sequence[int],
    noise_model: "NoiseModel",
) -> Optional[np.ndarray]:
    """The run's composed noise superoperators, lifted onto ``union``.

    ``None`` when the model attaches no channel to any step of the run —
    the commutation condition is then vacuously true.
    """
    from repro.quantum.program import gate_noise_superoperator

    composed: Optional[np.ndarray] = None
    for step in steps:
        noise = gate_noise_superoperator(step.name, step.qubits, noise_model)
        if noise is None:
            continue
        lifted = lift_superoperator_kron(noise, step.qubits, union)
        composed = lifted if composed is None else lifted @ composed
    return composed


def can_extend_fusion(
    run: Sequence["GateStep"],
    step: "GateStep",
    *,
    noise_model: Optional["NoiseModel"] = None,
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
    atol: float = DEFAULT_ATOL,
) -> Tuple[bool, str]:
    """Whether ``step`` may join the fused run ``run``; ``(ok, reason)``.

    An empty ``run`` asks whether ``step`` may *start* a run.  The
    noise-commutation condition is the exactness proof obligation: the
    fused plan ``N_k ... N_1 · C(U_k ... U_1)`` equals the sequential
    ``(N_k C_k) ... (N_1 C_1)`` iff each appended conjugation commutes with
    the noise accumulated before it, which is exactly what is checked here
    (incrementally, against the composed product — the only factor the
    rearrangement ever moves a conjugation past).
    """
    if not step.is_fixed:
        return False, "parametric bind site blocks fusion"
    if getattr(step, "fused_from", None):
        return False, "step already carries fusion provenance"
    if not run:
        return True, ""
    union = fusion_union(list(run) + [step])
    if len(union) > max_fused_qubits:
        return (
            False,
            f"fused width {len(union)} exceeds max_fused_qubits={max_fused_qubits}",
        )
    if not set(step.qubits) & set(fusion_union(run)):
        return False, "qubit tuples do not overlap"
    if noise_model is not None:
        acc = accumulated_noise(run, union, noise_model)
        if acc is not None:
            conjugation = _conjugation_kron(
                lift_unitary_kron(step.matrix, step.qubits, union)
            )
            if not np.allclose(conjugation @ acc, acc @ conjugation, atol=atol):
                return (
                    False,
                    "accumulated noise superoperator does not commute with "
                    "the appended unitary's conjugation",
                )
    return True, ""


# --------------------------------------------------------------------------- #
# Per-rewrite certificates (VER401 / VER402 / VER403)
# --------------------------------------------------------------------------- #


def verify_fused_step(
    step: "GateStep",
    *,
    program_name: str = "program",
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """VER401 — fused unitary ≡ lifted ordered product, up to global phase."""
    out: List[Diagnostic] = []
    obj = f"program '{program_name}' fused step '{step.name}'"
    sources = step.fused_from or ()
    if not sources:
        return out
    expected: Optional[np.ndarray] = None
    for source in sources:
        if source.matrix is None:
            out.append(
                _diag(
                    "VER401",
                    f"fusion provenance contains parametric step '{source.name}'",
                    obj=obj,
                    hint="only fixed unitaries may fuse; re-run the legality oracle",
                )
            )
            return out
        lifted = lift_unitary_kron(source.matrix, source.qubits, step.qubits)
        expected = lifted if expected is None else lifted @ expected
    actual = np.asarray(step.matrix)
    if actual.shape != expected.shape:
        out.append(
            _diag(
                "VER401",
                f"fused matrix has shape {actual.shape}, sources lift to "
                f"{expected.shape}",
                obj=obj,
            )
        )
        return out
    # Compare up to a global phase: align on the largest source entry.
    anchor = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    phase = 1.0 + 0.0j
    if abs(expected[anchor]) > atol:
        candidate = actual[anchor] / expected[anchor]
        if abs(abs(candidate) - 1.0) <= atol:
            phase = candidate
    if not np.allclose(actual, phase * expected, atol=atol):
        out.append(
            _diag(
                "VER401",
                "fused matrix differs from the ordered product of its source "
                "unitaries (beyond a global phase)",
                obj=obj,
                hint="the optimiser's tensor lift and the validator's "
                "kron/permutation lift disagree — the rewrite is unsound",
            )
        )
    return out


def verify_fused_superoperator_plan(
    step: "GateStep",
    plan_superoperator: np.ndarray,
    noise_model: "NoiseModel",
    *,
    program_name: str = "program",
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """VER402 — folded plan ≡ sequential source composition, CPTP preserved."""
    from repro.analysis.verify import verify_superoperator
    from repro.quantum.program import gate_noise_superoperator

    out: List[Diagnostic] = []
    obj = f"program '{program_name}' fused step '{step.name}'"
    sources = step.fused_from or ()
    if not sources:
        return out
    expected: Optional[np.ndarray] = None
    for source in sources:
        if source.matrix is None:
            out.append(
                _diag(
                    "VER402",
                    f"fusion provenance contains parametric step '{source.name}'",
                    obj=obj,
                )
            )
            return out
        term = _conjugation_kron(
            lift_unitary_kron(source.matrix, source.qubits, step.qubits)
        )
        noise = gate_noise_superoperator(source.name, source.qubits, noise_model)
        if noise is not None:
            term = lift_superoperator_kron(noise, source.qubits, step.qubits) @ term
        expected = term if expected is None else term @ expected
    actual = np.asarray(plan_superoperator)
    if actual.shape != expected.shape:
        out.append(
            _diag(
                "VER402",
                f"folded superoperator has shape {actual.shape}, the source "
                f"composition has {expected.shape}",
                obj=obj,
            )
        )
        return out
    if not np.allclose(actual, expected, atol=atol):
        out.append(
            _diag(
                "VER402",
                "folded superoperator differs from the sequential composition "
                "of the source (noise ∘ conjugation) superoperators",
                obj=obj,
                hint="the noise model disagrees with the one the program was "
                "optimised under, or a channel-commutation assumption is "
                "violated — re-optimise with the engine's noise model",
            )
        )
    for finding in verify_superoperator(
        actual, len(step.qubits), name=f"{obj} folded plan", atol=atol
    ):
        out.append(
            _diag(
                "VER402",
                f"folded superoperator is not CPTP: {finding.message}",
                obj=obj,
            )
        )
    return out


def shared_prefix_length(program: "SweepProgram", bindings) -> int:
    """Longest step prefix legal to evolve once and share across all rows.

    A step is shareable while it is fixed or reads only bind columns whose
    values are identical across every row of ``bindings`` — the invariant
    behind sharing the trained-state prefix across parameter-shift rows
    that only differ downstream.
    """
    bindings = np.asarray(bindings, dtype=float)
    if bindings.ndim != 2 or bindings.shape[0] == 0:
        return 0
    constant = {
        column
        for column in range(bindings.shape[1])
        if np.all(bindings[:, column] == bindings[0, column])
    }
    prefix = 0
    for step in program.steps:
        if not step.is_fixed:
            columns = {slot[1] for slot in step.slots if slot[0] == "column"}
            if not columns <= constant:
                break
        prefix += 1
    return prefix


def verify_shared_prefix(
    program: "SweepProgram", bindings, prefix_steps: int
) -> List[Diagnostic]:
    """VER403 — a claimed shared prefix must not read a row-varying column."""
    out: List[Diagnostic] = []
    obj = f"program '{program.name}' shared prefix"
    bindings = np.asarray(bindings, dtype=float)
    if prefix_steps > len(program.steps):
        out.append(
            _diag(
                "VER403",
                f"claimed prefix of {prefix_steps} step(s) exceeds the "
                f"program's {len(program.steps)} step(s)",
                obj=obj,
            )
        )
        return out
    legal = shared_prefix_length(program, bindings)
    if prefix_steps > legal:
        step = program.steps[legal]
        out.append(
            _diag(
                "VER403",
                f"step {legal} ('{step.name}') reads a bind column that "
                f"varies across the {bindings.shape[0]} shift row(s); the "
                f"shared prefix may cover at most {legal} step(s), not "
                f"{prefix_steps}",
                obj=obj,
                hint="sharing the trained-state evolution is only exact up "
                "to the first row-varying bind site",
            )
        )
    return out


#: Kernel-class certificate outcomes, keyed by everything the outcome
#: depends on — kind, gate name, qubit ranks, precision and the matrix
#: bytes.  Programs are rebuilt per model with the same steps, so a
#: memoised certificate spares re-deriving an identical witness.
_KERNEL_CERTIFICATES = LRUCache(max_entries=1024)


def _kernel_class_mismatch(
    kind: str, name: str, ranks: Tuple[int, ...], matrix: np.ndarray
) -> str:
    """Why the ``kind`` kernel fails ``matrix`` on qubits ``ranks`` ("" if not)."""
    from repro import arrays
    from repro.quantum import kernels
    from repro.quantum.batched import BatchedStatevector
    from repro.quantum.program import GateStep

    k = len(ranks)
    local = GateStep(name=name, qubits=ranks, slots=(), matrix=matrix)
    expected = lift_unitary_kron(matrix, ranks, range(k))
    try:
        kernel = kernels.build_kernel(kind, local, k)
    except SimulationError as exc:
        return f"the {kind} kernel cannot be built for this step: {exc}"
    for operand in (matrix, np.broadcast_to(matrix, (2**k,) + matrix.shape)):
        state = BatchedStatevector.from_amplitudes(np.eye(2**k))
        kernel.apply(state, operand)
        actual = state.amplitudes.T
        if kind == kernels.PERMUTATION:
            matches = np.array_equal(actual, expected)
        else:
            matches = np.allclose(actual, expected, rtol=0.0, atol=arrays.state_atol())
        if not matches:
            return (
                f"the {kind} kernel does not reproduce the step's matrix on "
                "the basis states"
            )
    return ""


def verify_kernel_plan(
    step: "GateStep",
    kind: str,
    *,
    program_name: str = "program",
    index: Optional[int] = None,
) -> List[Diagnostic]:
    """VER405 — the ``kind`` kernel-class plan reproduces its step's matrix.

    Builds the ``kind`` kernel (:mod:`repro.quantum.kernels`) for the step
    moved onto a register of the step's own width (qubits relabelled by
    rank, so their order — a reversed pair, a control above its target — is
    kept), applies it to every basis state, with the matrix both shared and
    per element, and compares the columns against the independent kron lift
    of the step's matrix.  Parametric steps are checked at the kernels'
    probe angles.  Permutation plans must match exactly; the other classes
    within :func:`repro.arrays.state_atol`.  A kernel that cannot be built
    for the step is a finding too.
    """
    from repro import arrays
    from repro.quantum import kernels

    ranks = tuple(sorted(step.qubits).index(qubit) for qubit in step.qubits)
    matrix = np.asarray(kernels.representative_matrix(step))
    key = (kind, step.name, ranks, arrays.get_precision(), matrix.tobytes())
    reason = _KERNEL_CERTIFICATES.get(key)
    if reason is None:
        reason = _kernel_class_mismatch(kind, step.name, ranks, matrix)
        _KERNEL_CERTIFICATES.put(key, reason)
    if not reason:
        return []
    where = f"step '{step.name}'" if index is None else f"step {index} ('{step.name}')"
    return [
        _diag(
            "VER405",
            reason
            + ("" if step.is_fixed else " (parametric: checked at the probe angles)"),
            obj=f"program '{program_name}' {where} on qubits {step.qubits}",
            hint="the step was classified into the wrong kernel class, "
            "or the class kernel is wrong for this qubit placement",
        )
    ]


# --------------------------------------------------------------------------- #
# Density layout schedule (VER406)
# --------------------------------------------------------------------------- #


def reference_density_matrices(
    program: "SweepProgram", bindings, noise_model: "NoiseModel"
) -> np.ndarray:
    """``(batch, 2**n, 2**n)`` per-state evolution of every bindings row.

    The independent oracle of the density engine: one
    :class:`~repro.quantum.density_matrix.DensityMatrix` per row walks the
    program's source steps (through fusion provenance), applying each gate
    and then each of the model's channels as Kraus operators in the full
    space — a single-qubit channel after a multi-qubit gate once per gate
    qubit.  No superoperator, precomposition or axis layout is shared with
    the engine.
    """
    from repro.quantum.density_matrix import DensityMatrix
    from repro.quantum.gates import gate_matrix

    out = []
    for row in np.asarray(bindings, dtype=float):
        rho = DensityMatrix(program.num_qubits)
        for step in program.source_steps():
            matrix = step.matrix
            if matrix is None:
                angles = [
                    slot[1] if slot[0] == "value" else slot[2] * row[slot[1]]
                    for slot in step.slots
                ]
                matrix = gate_matrix(step.name, *angles)
            rho.apply_matrix(matrix, step.qubits)
            k = len(step.qubits)
            for channel in noise_model.gate_channels(step.name, k):
                if np.asarray(channel[0]).shape[0] == 2**k:
                    rho.apply_kraus(channel, step.qubits)
                else:
                    for qubit in step.qubits:
                        rho.apply_kraus(channel, (qubit,))
        out.append(rho.data)
    return np.stack(out)


def verify_density_schedule(
    program: "SweepProgram", bindings, noise_model: "NoiseModel"
) -> List[Diagnostic]:
    """VER406 — the scheduled density engine matches the per-state reference.

    Evolves ``bindings`` through a fresh
    :class:`~repro.quantum.program.DensitySuperoperatorEngine` (layout
    schedule, permuted and lifted superoperators, transposes) and compares
    the canonical matrices with :func:`reference_density_matrices`, within
    ``1e-12`` in double precision (:func:`repro.arrays.sweep_atol` in
    single).
    """
    from repro import arrays
    from repro.quantum.program import DensitySuperoperatorEngine

    atol = max(1e-12, arrays.sweep_atol())
    engine = DensitySuperoperatorEngine(noise_model)
    actual = program.evolve(bindings, engine).matrices
    expected = reference_density_matrices(program, bindings, noise_model)
    error = float(np.max(np.abs(actual - expected)))
    if error <= atol:
        return []
    return [
        _diag(
            "VER406",
            f"layout-scheduled density evolution differs from the per-state "
            f"DensityMatrix reference by {error:.3e} (atol {atol:g})",
            obj=f"program '{program.name}' density schedule",
            hint="a layout step contracted the wrong axes, or a permuted or "
            "lifted superoperator is wrong for its block order",
        )
    ]


# --------------------------------------------------------------------------- #
# End-to-end witness (VER410 / VER411)
# --------------------------------------------------------------------------- #


def verify_translation(
    source: "SweepProgram",
    optimized: "SweepProgram",
    *,
    atol: float = DEFAULT_ATOL,
) -> List[Diagnostic]:
    """VER410/VER411 — witness that ``optimized`` faithfully translates ``source``.

    Checks structural metadata, the bind-column map, and the step algebra:
    flattening every fused step through its provenance must reproduce the
    source step sequence exactly (names, qubit tuples, slot tuples, and the
    fixed matrices themselves), so the parametric bind-site subsequence is
    identical by construction.  Emits a VER411 warning when the pass
    rewrote nothing.
    """
    out: List[Diagnostic] = []
    obj = f"translation '{source.name}' -> '{optimized.name}'"
    for field in (
        "num_qubits",
        "num_clbits",
        "measured_qubits",
        "clbits",
        "num_columns",
        "parameters",
        "column_sites",
        "fusion_barriers",
    ):
        before, after = getattr(source, field), getattr(optimized, field)
        if before != after:
            out.append(
                _diag(
                    "VER410",
                    f"structural metadata '{field}' changed: {before!r} -> {after!r}",
                    obj=obj,
                )
            )
    flattened: List["GateStep"] = []
    barriers = set(getattr(optimized, "fusion_barriers", ()) or ())
    position = 0
    for index, step in enumerate(optimized.steps):
        span = len(step.fused_from) if step.fused_from else 1
        crossed = sorted(b for b in barriers if position < b < position + span)
        if crossed:
            out.append(
                _diag(
                    "VER404",
                    f"fused step {index} ('{step.name}') spans source steps "
                    f"[{position}, {position + span}) across declared fusion "
                    f"barrier(s) {crossed}",
                    obj=obj,
                    hint="barriers mark boundaries fusion must respect — the "
                    "whole-grid compile path barriers the trained/encoder "
                    "seam so shared-prefix claims survive optimisation",
                )
            )
        position += span
        if step.fused_from:
            if not step.is_fixed:
                out.append(
                    _diag(
                        "VER410",
                        f"fused step {index} ('{step.name}') carries no matrix",
                        obj=obj,
                    )
                )
            if step.slots:
                out.append(
                    _diag(
                        "VER410",
                        f"fused step {index} ('{step.name}') carries bind "
                        "slots; fusion must not absorb parametric sites",
                        obj=obj,
                    )
                )
            if fusion_union(step.fused_from) != tuple(sorted(step.qubits)):
                out.append(
                    _diag(
                        "VER410",
                        f"fused step {index} ('{step.name}') acts on "
                        f"{step.qubits} but its provenance spans "
                        f"{fusion_union(step.fused_from)}",
                        obj=obj,
                    )
                )
            flattened.extend(step.fused_from)
        else:
            flattened.append(step)
    if len(flattened) != len(source.steps):
        out.append(
            _diag(
                "VER410",
                f"flattened step algebra has {len(flattened)} step(s), the "
                f"source has {len(source.steps)}",
                obj=obj,
            )
        )
    else:
        for index, (theirs, ours) in enumerate(zip(flattened, source.steps)):
            if (
                theirs.name != ours.name
                or theirs.qubits != ours.qubits
                or theirs.slots != ours.slots
            ):
                out.append(
                    _diag(
                        "VER410",
                        f"flattened step {index} is "
                        f"('{theirs.name}', {theirs.qubits}) but the source "
                        f"step is ('{ours.name}', {ours.qubits}) with "
                        "matching slots required",
                        obj=obj,
                    )
                )
                continue
            if (theirs.matrix is None) != (ours.matrix is None):
                out.append(
                    _diag(
                        "VER410",
                        f"flattened step {index} ('{ours.name}') disagrees "
                        "with the source on being fixed vs parametric",
                        obj=obj,
                    )
                )
            elif theirs.matrix is not None and not (
                theirs.matrix is ours.matrix
                or np.allclose(theirs.matrix, ours.matrix, atol=atol)
            ):
                out.append(
                    _diag(
                        "VER410",
                        f"flattened step {index} ('{ours.name}') carries a "
                        "matrix that differs from the source step's",
                        obj=obj,
                    )
                )
    if optimized is source or not any(step.fused_from for step in optimized.steps):
        out.append(
            _diag(
                "VER411",
                "optimisation pass was vacuous: the program has no fused steps",
                obj=obj,
                severity=Severity.WARNING,
                hint="nothing to certify — either no runs were legal to fuse "
                "or the pass was asked to rewrite an already-optimised program",
            )
        )
    elif len(optimized.steps) >= len(source.steps):
        out.append(
            _diag(
                "VER411",
                f"optimised program has {len(optimized.steps)} step(s), not "
                f"fewer than the source's {len(source.steps)}",
                obj=obj,
                severity=Severity.WARNING,
            )
        )
    return out


# --------------------------------------------------------------------------- #
# Figure-suite reference equivalence (the CLI's ``--verify`` entry)
# --------------------------------------------------------------------------- #


def verify_reference_equivalence() -> List[Diagnostic]:
    """Optimise the reference programs and certify every rewrite (VER4xx).

    For each reference workload: the transpile-template program is fused
    under the simulated IBM-Q London noise model and certified end to end
    (VER410 witness, VER401 per fused unitary, VER402 against the density
    engine's actual folded plans), an ideal (noise-free) fusion of the same
    program is certified for the statevector path, and a parameter-shift
    bindings matrix is checked for shared-prefix legality (VER403).  The
    whole-grid program of the same workload — trained and encoder bind
    columns in one symbolic compile — is then fused and certified too:
    VER404 (via the translation witness) proves fusion never crossed the
    trained/encoder barrier, VER403 proves a single-row grid tile legally
    shares its trained-state prefix before and after optimisation, and
    VER405 certifies every grid step's statevector kernel-class plan.
    Last, VER406 runs every noisy program of every reference workload that
    fits the London chip through the density engine's layout schedule and
    checks it against the per-state reference.
    """
    from repro.analysis.verify import reference_workloads
    from repro.hardware.calibration import get_calibration
    from repro.quantum.kernels import classify_step
    from repro.quantum.program import DensitySuperoperatorEngine, SweepProgram
    from repro.quantum.transpiler import TranspileCache
    from repro.utils.rng import ensure_rng

    out: List[Diagnostic] = []
    london = get_calibration("ibmq_london")
    noise = london.noise_model()
    batch_rng = ensure_rng(2023)
    for label, builder, values, features in reference_workloads(
        ("iris-s", "mnist-s")
    ):
        bound_circuit = builder.build(features, values)
        cache = TranspileCache()
        entry, row = cache.template(bound_circuit)
        source = entry.ensure_program(optimize=False)
        transpiled = f"{label}:transpiled"
        try:
            noisy = source.optimized(noise_model=noise)
            ideal = source.optimized()
        except SimulationError as exc:
            out.append(
                _diag(
                    "VER410",
                    f"optimising '{transpiled}' failed its own certification: {exc}",
                    obj=f"program '{transpiled}'",
                )
            )
            continue
        for optimized in (noisy, ideal):
            if optimized is source:
                continue
            out.extend(verify_translation(source, optimized))
            for step in optimized.steps:
                if step.fused_from:
                    out.extend(
                        verify_fused_step(step, program_name=optimized.name)
                    )
        if noisy is not source:
            engine = DensitySuperoperatorEngine(noise)
            for step, plan in zip(noisy.steps, engine.step_plans(noisy)):
                if step.fused_from:
                    out.extend(
                        verify_fused_superoperator_plan(
                            step,
                            plan.superop,
                            noise,
                            program_name=noisy.name,
                        )
                    )
        # Shared-prefix legality across parameter-shift-style rows: every
        # row binds the same values except one late column.
        bindings = np.tile(np.asarray(row, dtype=float), (3, 1))
        if bindings.shape[1]:
            bindings[1:, -1] += 0.5
        out.extend(
            verify_shared_prefix(
                source, bindings, shared_prefix_length(source, bindings)
            )
        )
        # Whole-grid path: the symbolic discriminator compiles trained AND
        # encoder bind columns into one program with a fusion barrier at the
        # trained/encoder seam.  Certify that fusing it preserves the
        # barrier (VER404 inside verify_translation) and that a grid tile —
        # one parameter row, several samples — legally shares the trained
        # prefix up to the barrier (VER403).
        grid_source = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name=f"{label}:grid",
        )
        try:
            grid_optimized = grid_source.optimized()
        except SimulationError as exc:
            out.append(
                _diag(
                    "VER410",
                    f"optimising '{grid_source.name}' failed its own "
                    f"certification: {exc}",
                    obj=f"program '{grid_source.name}'",
                )
            )
            continue
        if grid_optimized is not grid_source:
            out.extend(verify_translation(grid_source, grid_optimized))
            for step in grid_optimized.steps:
                if step.fused_from:
                    out.extend(
                        verify_fused_step(step, program_name=grid_optimized.name)
                    )
        feature_batch = batch_rng.uniform(0.05, 0.95, size=(4, features.size))
        tile = builder.grid_bindings(values[None, :], feature_batch)
        for program in (grid_source, grid_optimized):
            for index, step in enumerate(program.steps):
                out.extend(
                    verify_kernel_plan(
                        step,
                        classify_step(step),
                        program_name=program.name,
                        index=index,
                    )
                )
            prefix = shared_prefix_length(program, tile)
            if prefix == 0:
                out.append(
                    _diag(
                        "VER403",
                        f"grid tile of '{program.name}' shares no prefix at "
                        "all — the trained-state evolution is not constant "
                        "across a single parameter row's samples",
                        obj=f"program '{program.name}' shared prefix",
                        hint="trained columns must precede every encoder "
                        "bind site for the grid fast path to pay off",
                    )
                )
            out.extend(verify_shared_prefix(program, tile, prefix))
    # VER406 on every noisy program of every reference workload the London
    # chip can run (a wider register never reaches its density engine): the
    # symbolic grid, its transpiled template (the noisy grid route) and the
    # per-circuit template (the noisy ``run`` route), fused when
    # REPRO_OPTIMIZE_PROGRAMS=1, all under the London model.
    for label, builder, values, features in reference_workloads():
        if builder.layout.total_qubits > london.num_qubits:
            continue
        tile = builder.grid_bindings(
            values[None, :], batch_rng.uniform(0.05, 0.95, size=(3, features.size))
        )
        grid = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name=f"{label}:grid",
        )
        cache = TranspileCache()
        routed = cache.symbolic_template(
            builder.symbolic_discriminator(), builder.grid_parameters
        )
        entry, row = cache.template(builder.build(features, values))
        for program, bindings in (
            (grid, tile),
            (routed.ensure_program(noise_model=noise), tile),
            (entry.ensure_program(noise_model=noise), np.asarray(row, dtype=float)[None, :]),
        ):
            out.extend(verify_density_schedule(program, bindings, noise))
    return out
