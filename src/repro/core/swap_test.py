"""Fidelity estimation strategies for QuClassi training and inference.

Two estimators implement the same interface:

* :class:`AnalyticFidelityEstimator` — evolves the trained-state and
  data-state statevectors separately and computes ``|<omega|phi>|^2`` in
  closed form.  Exact and fast; this is the default for simulator results.
* :class:`SwapTestFidelityEstimator` — builds the full SWAP-test
  discriminator circuit and executes it on any
  :class:`~repro.quantum.backend.Backend` (ideal, finite-shot, or a noisy
  simulated device), recovering the fidelity from the ancilla statistics.
  This is the path used for the hardware experiments and the shots ablation.
  Angle encoders run a whole parameter-shift sweep as one compiled
  whole-grid program; other encoders run one bound circuit per element.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.exceptions import ValidationError
from repro.quantum.backend import Backend, IdealBackend
from repro.quantum.batched import BatchedStatevector
from repro.quantum.fidelity import fidelities_from_swap_test_probabilities
from repro.quantum.program import StatevectorEngine, SweepProgram, TilePlan
from repro.quantum.statevector import Statevector
from repro.utils.cache import LRUCache


def per_circuit_zero_probabilities(
    builder: DiscriminatorCircuitBuilder,
    backend: Backend,
    parameter_matrix: np.ndarray,
    feature_matrix: np.ndarray,
    shots: Optional[int],
) -> np.ndarray:
    """Ancilla readouts via one :meth:`Backend.run` per (row, sample), row-major.

    The per-circuit route of :class:`SwapTestFidelityEstimator` for
    loop-only encoders, and the baseline the benchmarks time the whole-grid
    program against.
    """
    return np.array(
        [
            backend.ancilla_zero_probability(
                builder.build(features, parameter_values=row), shots=shots
            )
            for row in parameter_matrix
            for features in feature_matrix
        ],
        dtype=float,
    )


class FidelityEstimator(abc.ABC):
    """Estimates the fidelity between a class's trained state and a data point.

    The trainer and model always call :meth:`fidelity_matrix`; subclasses
    that only implement :meth:`fidelity` inherit its default per-row loop.
    """

    def __init__(self, builder: DiscriminatorCircuitBuilder) -> None:
        self.builder = builder

    @abc.abstractmethod
    def fidelity(self, parameter_values: Sequence[float], features: Sequence[float]) -> float:
        """Fidelity for one data point under the given trained-state parameters."""

    def fidelities(self, parameter_values: Sequence[float], feature_matrix: np.ndarray) -> np.ndarray:
        """Fidelities for every row of ``feature_matrix`` (default: loop)."""
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        return np.array(
            [self.fidelity(parameter_values, row) for row in feature_matrix], dtype=float
        )

    def fidelity_matrix(
        self, parameter_matrix: np.ndarray, feature_matrix: np.ndarray
    ) -> np.ndarray:
        """Fidelities for every (parameter row, sample row) pair.

        Shape ``(batch, samples)``.  The default implementation loops over the
        parameter rows; :class:`AnalyticFidelityEstimator` overrides it with a
        fully vectorised statevector pass.
        """
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2:
            raise ValidationError(
                f"parameter_matrix must be 2-D (batch, params), got shape {parameter_matrix.shape}"
            )
        return np.stack(
            [self.fidelities(row, feature_matrix) for row in parameter_matrix]
        )


class AnalyticFidelityEstimator(FidelityEstimator):
    """Closed-form fidelity via statevector overlap.

    Data states depend only on the features, so they are memoised (in an LRU
    cache bounded by ``data_cache_size`` so multi-dataset sweeps cannot grow
    memory without limit): the trainer sweeps hundreds of parameter shifts
    against the same samples and the cached encodings turn each sweep into a
    single matrix product.

    The estimator is batch-native: :meth:`trained_statevectors` evolves a
    whole ``(batch, params)`` parameter matrix through the compiled gate
    program in one :class:`~repro.quantum.batched.BatchedStatevector` pass,
    and :meth:`fidelity_matrix` reduces an entire parameter-shift sweep to a
    single ``(batch, 2**n) @ (2**n, samples)`` matmul against the memoised
    data-state matrix.
    """

    #: Default bound on the memoised per-row data-state cache.
    DEFAULT_DATA_CACHE_SIZE = 4096
    #: Default bound on the stacked data-state-matrix cache.  Each entry is a
    #: full ``(samples, 2**n)`` stack, so only the handful of (mini)batches
    #: live within an epoch are worth keeping.
    DEFAULT_DATA_MATRIX_CACHE_SIZE = 8
    #: Default amplitude budget of one :meth:`fidelity_matrix` evaluation
    #: (complex entries held at once across *both* matmul operands — trained
    #: rows and data columns; ~128 MiB of complex128).
    DEFAULT_MAX_BATCH_AMPLITUDES = 2**23

    def __init__(
        self,
        builder: DiscriminatorCircuitBuilder,
        data_cache_size: int = DEFAULT_DATA_CACHE_SIZE,
        data_matrix_cache_size: int = DEFAULT_DATA_MATRIX_CACHE_SIZE,
        max_batch_amplitudes: int = DEFAULT_MAX_BATCH_AMPLITUDES,
    ) -> None:
        super().__init__(builder)
        if data_cache_size <= 0:
            raise ValidationError(
                f"data_cache_size must be positive, got {data_cache_size}"
            )
        if data_matrix_cache_size <= 0:
            raise ValidationError(
                f"data_matrix_cache_size must be positive, got {data_matrix_cache_size}"
            )
        if max_batch_amplitudes <= 0:
            raise ValidationError(
                f"max_batch_amplitudes must be positive, got {max_batch_amplitudes}"
            )
        self._data_state_cache: LRUCache = LRUCache(data_cache_size)
        # Stacked data-state matrices, keyed by the raw bytes of the feature
        # matrix: the trainer feeds the same (mini)batch to every gradient
        # evaluation, so the whole (samples, 2**n) stack is reused thousands
        # of times per epoch.
        self._data_matrix_cache: LRUCache = LRUCache(data_matrix_cache_size)
        self._max_batch_amplitudes = int(max_batch_amplitudes)
        # Compile-once: the symbolic trained-state circuit never changes, so
        # its SweepProgram is derived a single time and every parameter-shift
        # evaluation only feeds bindings into it.
        self._program = SweepProgram.compile(
            self.builder.trained_state_circuit(None),
            bind_floats=False,
            parameters=self.builder.parameters,
            name="trained_state",
        )
        # Compiled lazily: the symbolic data-encoder program that batches
        # data_state_matrix (encoders without angle-column support keep the
        # per-row loop).
        self._encoder_program: Optional[SweepProgram] = None

    # ------------------------------------------------------------------ #
    def trained_statevector(self, parameter_values: Sequence[float]) -> Statevector:
        """Trained state ``|omega(theta)>`` on the standalone register."""
        values = np.asarray(parameter_values, dtype=float)
        return self.trained_statevectors(values[None, :]).statevector(0)

    def data_statevector(self, features: Sequence[float]) -> Statevector:
        """Encoded data state ``|phi(x)>`` (memoised per feature vector, LRU)."""
        key = tuple(np.round(np.asarray(features, dtype=float), 12))
        cached = self._data_state_cache.get(key)
        if cached is None:
            circuit = self.builder.data_state_circuit(features)
            cached = Statevector(circuit.num_qubits).evolve(circuit)
            self._data_state_cache.put(key, cached)
        return cached

    def _data_encoder_program(self) -> Optional[SweepProgram]:
        """The symbolic encoder program (``None`` without angle-column support)."""
        if not getattr(self.builder.encoder, "supports_angle_columns", False):
            return None
        if self._encoder_program is None:
            self._encoder_program = SweepProgram.compile(
                self.builder.encoder.symbolic_encoding_circuit(
                    self.builder.num_features,
                    self.builder.data_parameters,
                    offset=0,
                    total_qubits=self.builder.layout.state_width,
                ),
                bind_floats=False,
                parameters=self.builder.data_parameters,
                name="data_state",
            )
        return self._encoder_program

    def data_state_matrix(self, feature_matrix: np.ndarray) -> np.ndarray:
        """Stacked data-state amplitudes, one row per sample (memoised).

        Angle-column encoders evaluate the whole batch as **one** compiled
        program pass through the :mod:`repro.arrays` kernels (no per-row
        Python circuit walk); other encoders keep the per-row loop.  The
        batched kernel evolution can differ from the per-row
        :class:`~repro.quantum.statevector.Statevector` contraction at the
        last ULP, like every other batched fast path.
        """
        feature_matrix = np.ascontiguousarray(np.asarray(feature_matrix, dtype=float))
        key = (feature_matrix.shape, feature_matrix.tobytes())
        cached = self._data_matrix_cache.get(key)
        if cached is None:
            program = self._data_encoder_program()
            if program is not None and feature_matrix.shape[0]:
                angles = self.builder.encoder.angle_matrix(feature_matrix)
                cached = program.evolve(angles, StatevectorEngine()).amplitudes
            else:
                cached = np.stack(
                    [self.data_statevector(row).data for row in feature_matrix]
                )
            cached.flags.writeable = False
            self._data_matrix_cache.put(key, cached)
        return cached

    # ------------------------------------------------------------------ #
    def fidelity(self, parameter_values: Sequence[float], features: Sequence[float]) -> float:
        omega = self.trained_statevector(parameter_values)
        phi = self.data_statevector(features)
        return omega.fidelity(phi)

    def fidelities(self, parameter_values: Sequence[float], feature_matrix: np.ndarray) -> np.ndarray:
        omega = self.trained_statevector(parameter_values).data
        data_matrix = self.data_state_matrix(feature_matrix)
        overlaps = data_matrix.conj() @ omega
        return np.abs(overlaps) ** 2

    # ------------------------------------------------------------------ #
    # Batched evaluation
    # ------------------------------------------------------------------ #
    def trained_statevectors(self, parameter_matrix: np.ndarray) -> BatchedStatevector:
        """Trained states for every row of a ``(batch, params)`` matrix.

        One vectorised pass through the compiled gate program; equivalent to
        stacking :meth:`trained_statevector` over the rows but without the
        per-row Python gate loop.
        """
        values = np.asarray(parameter_matrix, dtype=float)
        if values.ndim != 2:
            raise ValidationError(
                f"parameter_matrix must be 2-D (batch, params), got shape {values.shape}"
            )
        if values.shape[1] != self.builder.num_parameters:
            raise ValidationError(
                f"expected {self.builder.num_parameters} parameters per row, "
                f"got {values.shape[1]}"
            )
        return self._program.evolve(values, StatevectorEngine())

    def fidelity_matrix(
        self, parameter_matrix: np.ndarray, feature_matrix: np.ndarray
    ) -> np.ndarray:
        """Vectorised ``(batch, samples)`` fidelity matrix, memory-bounded.

        When both matmul operands — the ``(batch, 2**n)`` trained-state rows
        *and* the ``(samples, 2**n)`` data-state columns — fit the
        ``max_batch_amplitudes`` budget together, the whole sweep is one
        program evolution plus one matmul against the memoised data-state
        matrix (the fast path every repeat sweep hits).  Larger workloads
        tile along **both** axes under a
        :class:`~repro.quantum.program.TilePlan`: trained-state row tiles
        evolve through the compiled program, data-state column tiles stack
        from the per-row LRU cache, and each output block is one small
        matmul, so neither operand is ever fully materialised.
        """
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2:
            raise ValidationError(
                f"parameter_matrix must be 2-D (batch, params), got shape {parameter_matrix.shape}"
            )
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        rows, samples = parameter_matrix.shape[0], feature_matrix.shape[0]
        state_amplitudes = 2**self.builder.layout.state_width
        if (rows + samples) * state_amplitudes <= self._max_batch_amplitudes:
            omega = self.trained_statevectors(parameter_matrix)
            data_matrix = self.data_state_matrix(feature_matrix)
            return omega.fidelities(data_matrix)
        plan = TilePlan.for_state_overlap(
            rows, samples, state_amplitudes, self._max_batch_amplitudes
        )
        out = np.empty((rows, samples), dtype=float)
        for row_start, row_stop in plan.row_tiles():
            omega = self.trained_statevectors(parameter_matrix[row_start:row_stop])
            for sample_start, sample_stop in plan.sample_tiles():
                # Per-tile stacks go through the memoised helper, so the
                # inner row-tile loop (and every repeat sweep over the same
                # minibatch) reuses cached tile stacks instead of re-stacking
                # — and the per-row LRU keeps even evicted tiles cheap.
                data_tile = self.data_state_matrix(
                    feature_matrix[sample_start:sample_stop]
                )
                out[row_start:row_stop, sample_start:sample_stop] = omega.fidelities(
                    data_tile
                )
        return out

    def clear_cache(self) -> None:
        """Drop memoised data states (e.g. when switching datasets)."""
        self._data_state_cache.clear()
        self._data_matrix_cache.clear()


class SwapTestFidelityEstimator(FidelityEstimator):
    """Fidelity from SWAP-test ancilla statistics on an execution backend.

    Every evaluation goes through :meth:`fidelity_matrix`, which takes one of
    two routes, chosen by the encoder alone:

    * **Whole-grid program** (encoders with ``supports_angle_columns``): the
      builder's symbolic discriminator and the ``(rows x samples, columns)``
      bindings matrix go to
      :meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`,
      which compiles the circuit once and executes the grid tile by tile
      under a :class:`~repro.quantum.program.TilePlan` derived from
      ``max_batch_amplitudes``.  No per-sample circuit is built.
    * **Per-circuit loop** (loop-only encoders such as amplitude and basis
      encoding, whose circuits change structure per sample): one
      :meth:`~repro.quantum.backend.Backend.run` call per element.

    Both routes walk elements in the same row-major order, so sampled
    results are draw-for-draw identical to the per-circuit loop under a
    shared seed.

    Parameters
    ----------
    builder:
        Discriminator circuit builder.
    backend:
        Execution backend; defaults to an ideal statevector backend.
    shots:
        Number of shots per circuit; ``None`` requests exact probabilities
        (only meaningful on noiseless backends).
    max_batch_amplitudes:
        Amplitude budget of one whole-grid sweep: every in-flight (parameter
        row, data sample) pair costs its full discriminator state —
        ``2**num_qubits`` complex entries on the statevector backends,
        ``4**num_qubits`` on density backends — and the
        :class:`~repro.quantum.program.TilePlan` is derived from this bound.
    """

    #: Default amplitude budget per tile (~128 MiB of complex128).
    DEFAULT_MAX_BATCH_AMPLITUDES = 2**23

    def __init__(
        self,
        builder: DiscriminatorCircuitBuilder,
        backend: Optional[Backend] = None,
        shots: Optional[int] = 1024,
        max_batch_amplitudes: int = DEFAULT_MAX_BATCH_AMPLITUDES,
    ) -> None:
        super().__init__(builder)
        self.backend = backend if backend is not None else IdealBackend()
        if shots is not None and shots <= 0:
            raise ValidationError(f"shots must be positive or None, got {shots}")
        self.shots = shots
        if max_batch_amplitudes <= 0:
            raise ValidationError(
                f"max_batch_amplitudes must be positive, got {max_batch_amplitudes}"
            )
        self._max_batch_amplitudes = int(max_batch_amplitudes)
        #: Number of circuits executed so far (cost accounting for reports).
        self.circuits_executed = 0

    def _per_element_amplitudes(self) -> int:
        """Complex entries one in-flight discriminator state costs.

        A noisy backend simulates density matrices, whose per-element
        footprint is ``4**n`` rather than ``2**n`` — budgeting against the
        true working-set size keeps ``max_batch_amplitudes`` meaning
        "complex entries in flight" on every backend.
        """
        num_qubits = self.builder.layout.total_qubits
        if getattr(self.backend, "is_noisy", False):
            return 2 ** (2 * num_qubits)
        return 2**num_qubits

    def _grid_route(
        self, parameter_matrix: np.ndarray, feature_matrix: np.ndarray
    ) -> np.ndarray:
        """Ancilla readouts for one sweep via the whole-grid program route.

        The :meth:`~repro.quantum.program.TilePlan.for_grid_sweep` plan keeps
        every tile inside one parameter row so the executor can evolve the
        trained-state prefix once per tile and broadcast it (certified by
        VER403) across the tile's samples.
        """
        plan = TilePlan.for_grid_sweep(
            parameter_matrix.shape[0],
            feature_matrix.shape[0],
            self._per_element_amplitudes(),
            self._max_batch_amplitudes,
        )
        return self.backend.sweep_grid_zero_probabilities(
            self.builder.symbolic_discriminator(),
            self.builder.grid_parameters,
            self.builder.grid_bindings(parameter_matrix, feature_matrix),
            shots=self.shots,
            tile_plan=plan,
        )

    def clear_cache(self) -> None:
        """Drop the builder's memoised discriminator circuits."""
        self.builder.clear_cache()

    # ------------------------------------------------------------------ #
    # Fidelity evaluation
    # ------------------------------------------------------------------ #
    def fidelity(self, parameter_values: Sequence[float], features: Sequence[float]) -> float:
        """One-element :meth:`fidelity_matrix` sweep."""
        features = self.builder._check_features(features)
        return float(self.fidelities(parameter_values, features[None, :])[0])

    def fidelities(self, parameter_values: Sequence[float], feature_matrix: np.ndarray) -> np.ndarray:
        """One-row :meth:`fidelity_matrix` sweep."""
        parameter_values = np.asarray(parameter_values, dtype=float)
        return self.fidelity_matrix(parameter_values[None, :], feature_matrix)[0]

    def fidelity_matrix(
        self, parameter_matrix: np.ndarray, feature_matrix: np.ndarray
    ) -> np.ndarray:
        """``(batch, samples)`` fidelity matrix through the encoder's route."""
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2:
            raise ValidationError(
                f"parameter_matrix must be 2-D (batch, params), got shape {parameter_matrix.shape}"
            )
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        rows = parameter_matrix.shape[0]
        samples = feature_matrix.shape[0]
        if rows == 0 or samples == 0:
            return np.zeros((rows, samples))
        if self.builder.supports_grid_compile:
            zeros = self._grid_route(parameter_matrix, feature_matrix)
        else:
            zeros = per_circuit_zero_probabilities(
                self.builder, self.backend, parameter_matrix, feature_matrix, self.shots
            )
        self.circuits_executed += int(zeros.shape[0])
        return fidelities_from_swap_test_probabilities(zeros).reshape(rows, samples)
