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
  Every encoder binds its angle columns into one discriminator skeleton, so
  a whole parameter-shift sweep runs as one compiled whole-grid program
  (:meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`).
  On the statevector backends the discriminator is never evolved whole:
  the engine reads the ancilla from the overlap of the two registers
  (:func:`~repro.quantum.program.swap_test_registers`), the same
  ``|<omega|phi>|^2`` the analytic estimator computes, and samples shots
  from it.  Its tiles are budgeted in those registers, not in full
  discriminator states.
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

    Data states depend only on the features, so whole stacks of them are
    memoised (in an LRU cache bounded by ``data_matrix_cache_size``, keyed
    by the feature matrix's bytes).  One parameter-shift sweep evolves its
    samples' stack once and reduces to a single matrix product against it.
    The trainer reshuffles each class's minibatches every epoch, so a
    minibatch stack rarely returns: the cache hits when the same feature
    matrix is evaluated again, as in the epoch-end loss and score calls
    (20 of 102 ``data_state_matrix`` calls on a traced seed-0
    ``mnist-10class-analytic-train`` operation).

    The estimator is batch-native: :meth:`trained_statevectors` evolves a
    whole ``(batch, params)`` parameter matrix through the compiled gate
    program in one :class:`~repro.quantum.batched.BatchedStatevector` pass,
    and :meth:`fidelity_matrix` reduces an entire parameter-shift sweep to a
    single ``(batch, 2**n) @ (2**n, samples)`` matmul against the memoised
    data-state matrix.
    """

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
        data_matrix_cache_size: int = DEFAULT_DATA_MATRIX_CACHE_SIZE,
        max_batch_amplitudes: int = DEFAULT_MAX_BATCH_AMPLITUDES,
    ) -> None:
        super().__init__(builder)
        if data_matrix_cache_size <= 0:
            raise ValidationError(
                f"data_matrix_cache_size must be positive, got {data_matrix_cache_size}"
            )
        if max_batch_amplitudes <= 0:
            raise ValidationError(
                f"max_batch_amplitudes must be positive, got {max_batch_amplitudes}"
            )
        # Stacked data-state matrices, keyed by the raw bytes of the feature
        # matrix.  Reshuffled minibatches rarely repeat, so the hits are the
        # feature matrices evaluated again, such as the epoch-end loss and
        # score calls.
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
        # Compiled lazily: the symbolic data-encoder program that evolves
        # every data_state_matrix.
        self._encoder_program: Optional[SweepProgram] = None

    # ------------------------------------------------------------------ #
    def trained_statevector(self, parameter_values: Sequence[float]) -> Statevector:
        """Trained state ``|omega(theta)>`` on the standalone register."""
        values = np.asarray(parameter_values, dtype=float)
        return self.trained_statevectors(values[None, :]).statevector(0)

    def data_statevector(self, features: Sequence[float]) -> Statevector:
        """Encoded data state ``|phi(x)>``: a one-row :meth:`data_state_matrix`."""
        features = self.builder._check_features(features)
        return Statevector(self.data_state_matrix(features[None, :])[0])

    def _data_encoder_program(self) -> SweepProgram:
        """The symbolic encoder program, compiled on first use."""
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

        The whole batch is **one** compiled encoder-program pass through the
        :mod:`repro.arrays` kernels (no per-row Python circuit walk).  The
        batched kernel evolution can differ from the per-row
        :class:`~repro.quantum.statevector.Statevector` contraction at the
        last ULP, like every other batched fast path.
        """
        feature_matrix = np.ascontiguousarray(
            self.builder._check_feature_matrix(feature_matrix)
        )
        key = (feature_matrix.shape, feature_matrix.tobytes())
        cached = self._data_matrix_cache.get(key)
        if cached is None:
            angles = self.builder.encoder.angle_matrix(feature_matrix)
            cached = self._data_encoder_program().evolve(
                angles, StatevectorEngine()
            ).amplitudes
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

        Tiled along **both** axes under a
        :class:`~repro.quantum.program.TilePlan` that charges the trained-state
        rows *and* the data-state columns of a tile against
        ``max_batch_amplitudes``: trained-state row tiles evolve through the
        compiled program, data-state column tiles come from the memoised
        :meth:`data_state_matrix`, and each output block is one matmul.  A
        sweep whose operands fit the budget together is one tile: one
        program evolution plus one matmul against the memoised data-state
        matrix of the whole feature matrix (the path every repeat sweep
        hits).
        """
        parameter_matrix = np.asarray(parameter_matrix, dtype=float)
        if parameter_matrix.ndim != 2:
            raise ValidationError(
                f"parameter_matrix must be 2-D (batch, params), got shape {parameter_matrix.shape}"
            )
        feature_matrix = np.asarray(feature_matrix, dtype=float)
        rows, samples = parameter_matrix.shape[0], feature_matrix.shape[0]
        plan = TilePlan.for_state_overlap(
            rows,
            samples,
            2**self.builder.layout.state_width,
            self._max_batch_amplitudes,
        )
        out = np.empty((rows, samples), dtype=float)
        for row_start, row_stop in plan.row_tiles():
            omega = self.trained_statevectors(parameter_matrix[row_start:row_stop])
            for sample_start, sample_stop in plan.sample_tiles():
                # Per-tile stacks go through the memoised helper, so the
                # inner row-tile loop (and every repeat sweep over the same
                # minibatch) reuses cached tile stacks instead of re-stacking.
                data_tile = self.data_state_matrix(
                    feature_matrix[sample_start:sample_stop]
                )
                out[row_start:row_stop, sample_start:sample_stop] = omega.fidelities(
                    data_tile
                )
        return out

    def clear_cache(self) -> None:
        """Drop memoised data states (e.g. when switching datasets)."""
        self._data_matrix_cache.clear()


class SwapTestFidelityEstimator(FidelityEstimator):
    """Fidelity from SWAP-test ancilla statistics on an execution backend.

    Every evaluation goes through :meth:`fidelity_matrix`, which has one
    route: the builder's symbolic discriminator and the
    ``(rows x samples, columns)`` bindings matrix go to
    :meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`,
    which compiles the circuit once and executes the grid tile by tile under
    a :class:`~repro.quantum.program.TilePlan` derived from
    ``max_batch_amplitudes``.  No per-sample circuit is built.  Elements are
    walked in row-major order, so sampled results are draw-for-draw
    identical to a loop of :meth:`~repro.quantum.backend.Backend.run` over
    :meth:`~repro.core.circuit_builder.DiscriminatorCircuitBuilder.build`
    circuits under a shared seed (the base class's
    ``sweep_grid_zero_probabilities`` is that loop, so a ``run``-only
    backend serves the estimator too).

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
        row, data sample) pair costs what the backend's engine holds for it
        — three ``2**k`` registers for a SWAP test on the statevector
        backends, ``4**num_qubits`` on density backends — and the
        :class:`~repro.quantum.program.TilePlan` is derived from this bound
        (:meth:`grid_tile_plan`).
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

    def grid_tile_plan(self, rows: int, samples: int) -> TilePlan:
        """The tiling of a ``rows x samples`` whole-grid sweep.

        Fills each tile to ``max_batch_amplitudes``, whole parameter rows at
        a time when a row fits, charging each element what the backend's
        engine holds for it
        (:meth:`~repro.quantum.backend.Backend.grid_element_amplitudes`).
        """
        return TilePlan.for_circuit_sweep(
            rows,
            samples,
            self.backend.grid_element_amplitudes(
                self.builder.symbolic_discriminator(), self.builder.grid_parameters
            ),
            self._max_batch_amplitudes,
        )

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
        """``(batch, samples)`` fidelity matrix of one whole-grid sweep.

        Tiled by :meth:`grid_tile_plan`; the executor evolves the
        trained-state prefix once per row a tile touches and repeats it
        across that row's samples.
        """
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
        zeros = self.backend.sweep_grid_zero_probabilities(
            *self.builder.grid_sweep(parameter_matrix, feature_matrix),
            shots=self.shots,
            tile_plan=self.grid_tile_plan(rows, samples),
        )
        self.circuits_executed += int(zeros.shape[0])
        return fidelities_from_swap_test_probabilities(zeros).reshape(rows, samples)
