"""Equivalence certificates of the execution plans (VER4xx).

A runtime certificate module of :mod:`repro.analysis`, beside the IR and
cost verifiers.  Where the IR verifier checks one compiled
:class:`~repro.quantum.program.SweepProgram` against its *own* invariants,
this family checks that what the engines actually run — a kernel-class
plan, a composed density schedule, an observable or overlap readout —
computes what the program says, each through an independent code path.  VER403 checks
the reference programs' trained-state prefix; it has no runtime gate, since
the grid executor decides its row-constant prefix from the very bindings it
evolves.

====== ====================================================================
code   contract
====== ====================================================================
VER403 a claimed shared trained-state prefix only covers steps whose bind
       columns are constant across every shift row of the bindings
VER405 a statevector kernel-class plan reproduces its step's matrix on the
       basis states of a register of the step's qubits plus one spectator
       per run of untouched qubits of its real placement (exactly for
       permutations, within ``state_atol`` otherwise)
VER406 the density engine's layout-scheduled evolution of a program, with
       its runs of fixed steps composed, equals the per-state
       :class:`~repro.quantum.density_matrix.DensityMatrix` evolution of
       every bindings row (within ``1e-12`` in double precision)
VER407 the density engine's readout — the prefix evolved to the readout
       split, the fixed tail folded into a measurement observable — equals
       the per-state evolution of the whole program, its diagonal
       marginalised onto the measured qubits and convolved with the
       readout error (within ``1e-12`` in double precision)
VER408 the statevector engine's overlap readout of a SWAP test — its two
       register sub-programs evolved, ``P(ancilla = 0)`` read from their
       overlap — equals the stepwise evolution of the whole program, its
       final state marginalised onto the ancilla (within ``1e-12`` in
       double precision)
VER409 the statevector engine's factor region — leading one-qubit steps
       evolved on per-qubit factors, the register built as their Kronecker
       product — equals the region's steps applied one by one to the full
       register (within ``1e-12`` in double precision)
====== ====================================================================

The engines lift gate blocks with tensor-axis algebra; the certificates
rebuild every lift from scratch with ``kron`` plus explicit
qubit-permutation matrices (VER405) or walk full-space
:class:`~repro.quantum.density_matrix.DensityMatrix` Kraus applications
(VER406, VER407), the whole program's state (VER408) or the full
register's dense einsum (VER409) — genuinely different code paths, so a
bug in either side makes the two disagree and the certificate fail.

Findings surface through the shared CLI (``--verify``), its text/JSON
outputs, and ``--select`` like every other family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.exceptions import SimulationError
from repro.utils.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.quantum.noise import NoiseModel
    from repro.quantum.program import GateStep, SweepProgram

#: Code -> one-line description, mirrored in ``docs/static_analysis.md``.
EQUIV_CODES = {
    "VER403": "claimed shared prefix reads a column that varies across rows",
    "VER405": "kernel-class plan does not reproduce its step's matrix",
    "VER406": "layout-scheduled density evolution differs from the per-state reference",
    "VER407": "observable readout differs from the per-state evolution's marginal",
    "VER408": "overlap readout differs from the stepwise evolution's marginal",
    "VER409": "factor-region Kronecker state differs from the flat evolution",
}


def _diag(
    code: str,
    message: str,
    *,
    obj: str,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
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
    the tensor-axis lift the engines use.
    """
    qubits = tuple(qubits)
    union = tuple(union)
    rest = [q for q in union if q not in qubits]
    block = np.kron(
        np.asarray(matrix), np.eye(2 ** len(rest), dtype=np.asarray(matrix).dtype)
    )
    perm = qubit_permutation_matrix(list(qubits) + rest, union)
    return perm @ block @ perm.T


# --------------------------------------------------------------------------- #
# Shared trained-state prefix (VER403)
# --------------------------------------------------------------------------- #


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


# --------------------------------------------------------------------------- #
# Kernel-class plans (VER405)
# --------------------------------------------------------------------------- #

#: Kernel-class certificate outcomes, keyed by everything the outcome
#: depends on — kind, gate name, the certificate register's placement,
#: update variant, precision and the matrix bytes.  Programs are rebuilt
#: per model with the same steps, so a memoised certificate spares
#: re-deriving an identical witness.
_KERNEL_CERTIFICATES = LRUCache(max_entries=1024)


def certificate_placement(
    qubits: Sequence[int], num_qubits: int
) -> Tuple[Tuple[int, ...], int]:
    """``qubits`` on the smallest register that keeps their kernel layout.

    The step's qubits keep their order, and each run of untouched qubits of
    the real ``num_qubits`` register — above, between or below them —
    becomes one spectator qubit.  The kernel built there has the real
    placement's axis structure, so it runs the same 2x2 update variant
    (:func:`repro.quantum.kernels.update_variant`).  Returns the relabelled
    qubits and the register width.
    """
    local: Dict[int, int] = {}
    width = 0
    previous = -1
    for qubit in sorted(qubits):
        width += qubit - previous > 1
        local[qubit] = width
        width += 1
        previous = qubit
    width += previous < num_qubits - 1
    return tuple(local[qubit] for qubit in qubits), width


def _kernel_class_mismatch(
    kind: str, name: str, qubits: Tuple[int, ...], width: int, matrix: np.ndarray
) -> str:
    """Why the ``kind`` kernel fails ``matrix`` on ``qubits`` of ``width`` ("" if not)."""
    from repro import arrays
    from repro.quantum import kernels
    from repro.quantum.batched import BatchedStatevector
    from repro.quantum.program import GateStep

    local = GateStep(name=name, qubits=qubits, slots=(), matrix=matrix)
    expected = lift_unitary_kron(matrix, qubits, range(width))
    try:
        kernel = kernels.build_kernel(kind, local, width)
    except SimulationError as exc:
        return f"the {kind} kernel cannot be built for this step: {exc}"
    for operand in (matrix, np.broadcast_to(matrix, (2**width,) + matrix.shape)):
        state = BatchedStatevector.from_amplitudes(np.eye(2**width))
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
    num_qubits: Optional[int] = None,
    program_name: str = "program",
    index: Optional[int] = None,
) -> List[Diagnostic]:
    """VER405 — the ``kind`` kernel-class plan reproduces its step's matrix.

    Builds the ``kind`` kernel (:mod:`repro.quantum.kernels`) for the step
    moved onto a small register (:func:`certificate_placement`): the step's
    qubits in their order — a reversed pair, a control above its target —
    plus one spectator qubit for each run of untouched qubits the real
    ``num_qubits`` register has (by default the smallest register holding
    the step).  The certificate thereby runs the 2x2 update variant the
    real plan runs.  It applies the kernel to every basis state, with the
    matrix both shared and per element, and compares the columns against
    the independent kron lift of the step's matrix.  Parametric steps are
    checked at the kernels' probe angles.  Permutation plans must match
    exactly; the other classes within :func:`repro.arrays.state_atol`.  A
    kernel that cannot be built for the step is a finding too.
    """
    from repro import arrays
    from repro.quantum import kernels

    if num_qubits is None:
        num_qubits = max(step.qubits) + 1
    qubits, width = certificate_placement(step.qubits, num_qubits)
    variant = kernels.update_variant(kind, step.qubits, num_qubits)
    matrix = np.asarray(kernels.representative_matrix(step))
    key = (
        kind, step.name, qubits, width, variant, arrays.get_precision(), matrix.tobytes()
    )
    reason = _KERNEL_CERTIFICATES.get(key)
    if reason is None:
        reason = _kernel_class_mismatch(kind, step.name, qubits, width, matrix)
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
    program's steps, applying each gate
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
        for step in program.steps:
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
    schedule, permuted and lifted superoperators, transposes, and runs of
    fixed steps composed into one operator) and compares
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
            hint="a layout step contracted the wrong axes, a permuted or "
            "lifted superoperator is wrong for its block order, or a run of "
            "fixed steps was composed wrongly",
        )
    ]


def verify_observable_readout(
    program: "SweepProgram", bindings, noise_model: "NoiseModel"
) -> List[Diagnostic]:
    """VER407 — the observable readout matches the per-state reference.

    Reads ``bindings`` out through a fresh
    :class:`~repro.quantum.program.DensitySuperoperatorEngine` exactly as
    a sweep does (:meth:`~repro.quantum.program.SweepProgram.execute`: the
    steps before the readout plan's split, then one matmul with the
    measurement observable its backward walk folded the tail into) and
    compares with :func:`reference_density_matrices` of the *whole*
    program: the diagonal marginalised onto the measured qubits and
    convolved with the model's readout error, within ``1e-12`` in double
    precision (:func:`repro.arrays.sweep_atol` in single).
    """
    from repro import arrays
    from repro.quantum.noise import apply_readout_error
    from repro.quantum.program import DensitySuperoperatorEngine
    from repro.quantum.statevector import marginal_probabilities

    atol = max(1e-12, arrays.sweep_atol())
    engine = DensitySuperoperatorEngine(noise_model)
    readout = engine.readout_plan(program)
    actual = program.execute(bindings, engine)
    matrices = reference_density_matrices(program, bindings, noise_model)
    joint = marginal_probabilities(
        np.real(np.einsum("bii->bi", matrices)),
        program.measured_qubits,
        program.num_qubits,
    )
    expected = apply_readout_error(joint, program.measured_qubits, noise_model)
    error = float(np.max(np.abs(actual - expected)))
    if error <= atol:
        return []
    return [
        _diag(
            "VER407",
            f"observable readout ({readout.reason}) differs from the per-state "
            f"DensityMatrix marginal by {error:.3e} (atol {atol:g})",
            obj=f"program '{program.name}' readout",
            hint="the backward walk skipped or misapplied a tail plan, used "
            "the wrong inverse transpose, or started from the wrong outcome "
            "selectors",
        )
    ]


def verify_overlap_readout(program: "SweepProgram", bindings) -> List[Diagnostic]:
    """VER408 — the overlap readout matches the stepwise marginal.

    Reads ``bindings`` out through a fresh
    :class:`~repro.quantum.program.StatevectorEngine` exactly as a sweep
    does (:meth:`~repro.quantum.program.SweepProgram.execute`: the two
    register sub-programs evolved, ``P(ancilla = 0)`` read from their
    overlap) and compares with the whole program evolved step by step, its
    final state marginalised onto the measured ancilla, within ``1e-12``
    in double precision (:func:`repro.arrays.sweep_atol` in single).  A
    program the engine does not read out as an overlap is a finding: the
    check is run on programs that must take that route.
    """
    from repro import arrays
    from repro.quantum.program import StatevectorEngine

    obj = f"program '{program.name}' overlap readout"
    engine = StatevectorEngine()
    readout = engine.readout_plan(program)
    if readout.registers is None:
        return [
            _diag(
                "VER408",
                f"the program does not read out as a register overlap ({readout.reason})",
                obj=obj,
                hint="a SWAP-test program ends with one cswap(ancilla, a, b) "
                "per register pair and a final h on the measured ancilla",
            )
        ]
    atol = max(1e-12, arrays.sweep_atol())
    actual = program.execute(bindings, engine)
    expected = program.evolve(bindings, engine).probabilities(program.measured_qubits)
    error = float(np.max(np.abs(actual - expected)))
    if error <= atol:
        return []
    return [
        _diag(
            "VER408",
            f"overlap readout ({readout.reason}) differs from the stepwise "
            f"marginal by {error:.3e} (atol {atol:g})",
            obj=obj,
            hint="register B's local qubits must follow the cswap pairing, "
            "and every register step must keep its parent's bind slots",
        )
    ]


def verify_factor_prefix(program: "SweepProgram", bindings) -> List[Diagnostic]:
    """VER409 — the factor region's Kronecker state equals its flat evolution.

    Evolves ``bindings`` through the program's factor region
    (:func:`~repro.quantum.program.factor_region`) on a fresh
    :class:`~repro.quantum.program.StatevectorEngine` exactly as a tile
    does — each qubit's steps on its one-qubit factor, then the factors'
    Kronecker product — and compares with the region's steps applied one
    by one to the full register through the dense einsum of
    :meth:`~repro.quantum.batched.BatchedStatevector.apply_matrix`, within
    ``1e-12`` in double precision (:func:`repro.arrays.sweep_atol` in
    single).  An empty region compares ``|0...0>`` with itself.
    """
    from repro import arrays
    from repro.quantum.batched import BatchedStatevector
    from repro.quantum.gates import gate_matrix_batch
    from repro.quantum.program import StatevectorEngine, SweepProgram, factor_region

    bindings = np.asarray(bindings, dtype=float)
    region = program.steps[: factor_region(program)]
    head = SweepProgram(
        num_qubits=program.num_qubits,
        num_clbits=0,
        steps=region,
        measured_qubits=(),
        clbits=(),
        num_columns=program.num_columns,
        parameters=program.parameters,
        column_sites=program.column_sites,
        name=f"{program.name}:factor region",
    )
    actual = head.evolve(bindings, StatevectorEngine()).amplitudes
    flat = BatchedStatevector(bindings.shape[0], program.num_qubits)
    for step in region:
        matrix = step.matrix
        if matrix is None:
            matrix = gate_matrix_batch(
                step.name,
                *(
                    slot[1] if slot[0] == "value" else slot[2] * bindings[:, slot[1]]
                    for slot in step.slots
                ),
            )
        flat.apply_matrix(matrix, step.qubits)
    atol = max(1e-12, arrays.sweep_atol())
    error = float(np.max(np.abs(actual - flat.amplitudes)))
    if error <= atol:
        return []
    return [
        _diag(
            "VER409",
            f"the Kronecker state of the {len(region)}-step factor region "
            f"differs from the flat register evolution by {error:.3e} (atol {atol:g})",
            obj=f"program '{program.name}' factor region",
            hint="the product must take qubit 0's factor as its most "
            "significant, and every factor step must act on its own "
            "qubit's factor",
        )
    ]


# --------------------------------------------------------------------------- #
# Figure-suite reference equivalence (the CLI's ``--verify`` entry)
# --------------------------------------------------------------------------- #


#: The grid programs VER408 runs on: Iris QC-S and the 17-qubit MNIST
#: QC-S and QC-SDE discriminators, as ``(label, features, architecture)``.
OVERLAP_REFERENCE_PROGRAMS = (
    ("iris-s", 4, "s"),
    ("mnist17-s", 16, "s"),
    ("mnist17-sde", 16, "sde"),
)


def verify_reference_equivalence() -> List[Diagnostic]:
    """Certify the reference programs' execution plans (VER403/405-409).

    For each reference workload: a parameter-shift bindings matrix over the
    transpile-template program is checked for shared-prefix legality
    (VER403); the whole-grid program — trained and encoder bind columns in
    one symbolic compile — must give one grid row's samples a non-empty
    common trained-state prefix, legally (VER403); and VER405 certifies every grid
    step's statevector kernel-class plan.  Last, VER406 runs every noisy
    program of every reference workload that fits the London chip through
    the density engine's composed layout schedule and checks it against the
    per-state reference, and VER407 checks the same programs' observable
    readout.  VER408 checks the overlap readout of the
    :data:`OVERLAP_REFERENCE_PROGRAMS` grid programs over two parameter
    rows of three samples each, and VER409 the factor region of their
    register sub-programs on the same bindings, and of the QC-SDE
    trained-state and dual-angle encoder programs the analytic estimator
    evolves.
    """
    from repro.analysis.verify import reference_workloads
    from repro.core.model import QuClassi
    from repro.hardware.calibration import get_calibration
    from repro.quantum.kernels import classify_step
    from repro.quantum.program import StatevectorEngine, SweepProgram
    from repro.quantum.transpiler import TranspileCache
    from repro.utils.rng import ensure_rng

    out: List[Diagnostic] = []
    london = get_calibration("ibmq_london")
    noise = london.noise_model()
    batch_rng = ensure_rng(2023)
    for label, builder, values, features in reference_workloads(
        ("iris-s", "mnist-s")
    ):
        entry, row = TranspileCache().template(builder.build(features, values))
        source = entry.ensure_program()
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
        # Whole-grid path: a grid tile — one parameter row, several samples
        # — must legally share the trained-state prefix (VER403), and every
        # grid step's kernel-class plan must reproduce its matrix (VER405).
        grid = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name=f"{label}:grid",
        )
        feature_batch = batch_rng.uniform(0.05, 0.95, size=(4, features.size))
        tile = builder.grid_bindings(values[None, :], feature_batch)
        for index, step in enumerate(grid.steps):
            out.extend(
                verify_kernel_plan(
                    step,
                    classify_step(step),
                    num_qubits=grid.num_qubits,
                    program_name=grid.name,
                    index=index,
                )
            )
        prefix = shared_prefix_length(grid, tile)
        if prefix == 0:
            out.append(
                _diag(
                    "VER403",
                    f"grid tile of '{grid.name}' shares no prefix at all — the "
                    "trained-state evolution is not constant across a single "
                    "parameter row's samples",
                    obj=f"program '{grid.name}' shared prefix",
                    hint="trained columns must precede every encoder bind "
                    "site for the grid fast path to pay off",
                )
            )
        out.extend(verify_shared_prefix(grid, tile, prefix))
    # VER406 and VER407 on every noisy program of every reference workload
    # the London chip can run (a wider register never reaches its density
    # engine): the symbolic grid, its transpiled template (the noisy grid
    # route) and the per-circuit template (the noisy ``run`` route), all
    # under the London model, each through its composed schedule and its
    # observable readout.
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
            (routed.ensure_program(), tile),
            (entry.ensure_program(), np.asarray(row, dtype=float)[None, :]),
        ):
            out.extend(verify_density_schedule(program, bindings, noise))
            out.extend(verify_observable_readout(program, bindings, noise))
    for label, num_features, architecture in OVERLAP_REFERENCE_PROGRAMS:
        builder = QuClassi(
            num_features=num_features, num_classes=2, architecture=architecture, seed=2022
        ).builder
        grid = SweepProgram.compile(
            builder.symbolic_discriminator(),
            bind_floats=False,
            parameters=builder.grid_parameters,
            name=f"{label}:grid",
        )
        bindings = builder.grid_bindings(
            batch_rng.uniform(0.0, np.pi, size=(2, len(builder.parameters))),
            batch_rng.uniform(0.05, 0.95, size=(3, num_features)),
        )
        out.extend(verify_overlap_readout(grid, bindings))
        for register in StatevectorEngine().readout_plan(grid).registers:
            out.extend(verify_factor_prefix(register.program, bindings))
    # The analytic estimator's programs: the QC-SDE trained state and the
    # dual-angle data encoder, compiled as the estimator compiles them.
    builder = QuClassi(
        num_features=16, num_classes=2, architecture="sde", seed=2022
    ).builder
    trained = SweepProgram.compile(
        builder.trained_state_circuit(None),
        bind_floats=False,
        parameters=builder.parameters,
        name="mnist17-sde:trained_state",
    )
    encoder = SweepProgram.compile(
        builder.encoder.symbolic_encoding_circuit(
            builder.num_features,
            builder.data_parameters,
            offset=0,
            total_qubits=builder.layout.state_width,
        ),
        bind_floats=False,
        parameters=builder.data_parameters,
        name="mnist17-sde:data_state",
    )
    out.extend(
        verify_factor_prefix(
            trained, batch_rng.uniform(0.0, np.pi, size=(3, len(builder.parameters)))
        )
    )
    out.extend(
        verify_factor_prefix(
            encoder,
            builder.encoder.angle_matrix(batch_rng.uniform(0.05, 0.95, size=(3, 16))),
        )
    )
    return out
