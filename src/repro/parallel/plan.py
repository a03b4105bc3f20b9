"""Shard planning: how a sweep is cut into independent units of work.

A *shard* is one self-contained unit of a figure sweep — one class's whole
training run, one (backend, setting) sweep cell — that a
:class:`~repro.parallel.executor.ShardExecutor` can hand to a worker.  The
planning layer owns everything that must be decided *before* workers start so
that results cannot depend on execution order:

* :class:`ShardPlan` fixes the shard indices and keys up front and offers
  count-balanced (:meth:`ShardPlan.chunks`) and weight-balanced
  (:meth:`ShardPlan.balanced_chunks`) splits for static worker assignment.
* :meth:`ShardPlan.spawn_seed_sequences` derives one independent
  ``SeedSequence`` child per shard *by shard index*, so shard ``i`` draws the
  same stream whether it runs first, last, or on another process.
* :class:`BackendSpec` / :class:`EstimatorSpec` are picklable *factories*:
  live backends (with their open ledgers, caches, and RNG state) are never
  shipped to a worker — the worker reconstructs a fresh backend from the spec
  and the parent merges ledgers back deterministically by shard index.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import RandomState, spawn_seed_sequences


@dataclasses.dataclass(frozen=True)
class Shard:
    """One unit of work: a stable index, a human-readable key, a payload.

    The index is the shard's identity for every determinism guarantee (seed
    streams, ledger merge order); the key names the cell for error messages
    and reports (e.g. ``("class", 2)`` or ``("backend", "ibmq_london")``).
    """

    index: int
    key: Tuple
    payload: object = None


class ShardPlan:
    """An ordered, immutable collection of shards for one sweep."""

    def __init__(self, shards: Sequence[Shard]) -> None:
        shards = tuple(shards)
        for position, shard in enumerate(shards):
            if shard.index != position:
                raise ValidationError(
                    f"shard indices must be contiguous from 0, got index "
                    f"{shard.index} at position {position}"
                )
        self._shards = shards

    @classmethod
    def from_items(
        cls, payloads: Sequence[object], keys: Optional[Sequence[Tuple]] = None
    ) -> "ShardPlan":
        """Build a plan with one shard per payload, keyed by ``keys`` or index."""
        payloads = list(payloads)
        if keys is None:
            keys = [("shard", index) for index in range(len(payloads))]
        else:
            keys = [tuple(key) if isinstance(key, (tuple, list)) else (key,) for key in keys]
            if len(keys) != len(payloads):
                raise ValidationError(
                    f"got {len(keys)} keys for {len(payloads)} payloads"
                )
        return cls(
            [
                Shard(index=index, key=key, payload=payload)
                for index, (key, payload) in enumerate(zip(keys, payloads))
            ]
        )

    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def __iter__(self):
        return iter(self._shards)

    def __getitem__(self, index: int) -> Shard:
        return self._shards[index]

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #
    def chunks(self, num_workers: int) -> List[List[Shard]]:
        """Contiguous count-balanced split into at most ``num_workers`` chunks.

        Chunk sizes differ by at most one and empty chunks are dropped, so
        ``chunks(4)`` of a 3-shard plan yields three singleton chunks.
        """
        if num_workers <= 0:
            raise ValidationError(f"num_workers must be positive, got {num_workers}")
        total = len(self._shards)
        num_chunks = min(num_workers, total)
        if num_chunks == 0:
            return []
        base, extra = divmod(total, num_chunks)
        result = []
        start = 0
        for chunk_index in range(num_chunks):
            size = base + (1 if chunk_index < extra else 0)
            result.append(list(self._shards[start : start + size]))
            start += size
        return result

    def balanced_chunks(
        self, num_workers: int, weights: Sequence[float]
    ) -> List[List[Shard]]:
        """Weight-balanced split (greedy longest-processing-time assignment).

        Heavier shards (e.g. the 10-class MNIST cell next to binary Iris
        cells) are placed first onto the least-loaded worker, which bounds
        the makespan at 4/3 of optimal.  Within each chunk shards keep their
        plan order, so per-chunk execution stays deterministic.
        """
        if num_workers <= 0:
            raise ValidationError(f"num_workers must be positive, got {num_workers}")
        weights = [float(weight) for weight in weights]
        if len(weights) != len(self._shards):
            raise ValidationError(
                f"got {len(weights)} weights for {len(self._shards)} shards"
            )
        if any(weight < 0 for weight in weights):
            raise ValidationError("shard weights must be non-negative")
        num_chunks = min(num_workers, len(self._shards))
        if num_chunks == 0:
            return []
        loads = [0.0] * num_chunks
        assignment: List[List[Shard]] = [[] for _ in range(num_chunks)]
        order = sorted(
            range(len(self._shards)), key=lambda i: (-weights[i], i)
        )
        for shard_index in order:
            lightest = min(range(num_chunks), key=lambda c: (loads[c], c))
            loads[lightest] += weights[shard_index]
            assignment[lightest].append(self._shards[shard_index])
        for chunk in assignment:
            chunk.sort(key=lambda shard: shard.index)
        return [chunk for chunk in assignment if chunk]

    # ------------------------------------------------------------------ #
    # Determinism helpers
    # ------------------------------------------------------------------ #
    def spawn_seed_sequences(self, seed: RandomState) -> List[np.random.SeedSequence]:
        """One independent ``SeedSequence`` child per shard, by shard index.

        All children are spawned up front from the root (via
        :func:`repro.utils.rng.spawn_seed_sequences`), so shard ``i``
        receives the same stream regardless of how shards are chunked,
        reordered, or raced across workers — the invariant the bit-identical
        serial/thread/process guarantee rests on.
        """
        return spawn_seed_sequences(seed, len(self._shards))

    def spawn_rngs(self, seed: RandomState) -> List[np.random.Generator]:
        """Per-shard generators over :meth:`spawn_seed_sequences`."""
        return [
            np.random.default_rng(child) for child in self.spawn_seed_sequences(seed)
        ]


# --------------------------------------------------------------------------- #
# Backend / estimator factories
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """Picklable recipe for reconstructing an execution backend in a worker.

    Live backends are deliberately never pickled: they carry open job
    ledgers, transpile caches, and RNG state whose duplication across workers
    would double-count jobs and correlate shot noise.  A spec carries only
    what construction needs; each worker builds its own instance, usually
    seeded with a per-shard stream via :meth:`with_seed`.
    """

    kind: str
    device: Optional[str] = None
    shots: Optional[int] = None
    seed: RandomState = None
    simulate_queue_latency: bool = False

    KINDS = ("ideal", "sampled", "ibmq", "ionq")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(
                f"unknown backend kind {self.kind!r}; expected one of {self.KINDS}"
            )

    def with_seed(self, seed: RandomState) -> "BackendSpec":
        """Copy of the spec with a different shot-sampling seed."""
        return dataclasses.replace(self, seed=seed)

    @classmethod
    def from_backend(cls, backend) -> "BackendSpec":
        """Derive the spec describing an existing backend instance.

        The spec intentionally omits the backend's RNG state — workers are
        expected to re-seed via :meth:`with_seed` with a per-shard stream.
        """
        from repro.hardware.ibmq import IBMQBackend
        from repro.hardware.ionq import IonQBackend
        from repro.quantum.backend import IdealBackend, SampledBackend

        if isinstance(backend, IBMQBackend):
            return cls(
                kind="ibmq",
                device=backend.name,
                simulate_queue_latency=backend.simulate_queue_latency,
            )
        if isinstance(backend, IonQBackend):
            return cls(
                kind="ionq",
                simulate_queue_latency=backend.simulate_queue_latency,
            )
        if isinstance(backend, SampledBackend):
            return cls(kind="sampled", shots=backend.shots)
        if isinstance(backend, IdealBackend):
            return cls(kind="ideal")
        raise ValidationError(
            f"cannot derive a BackendSpec from {type(backend).__name__}; "
            "sharded execution reconstructs backends per worker and only knows "
            "the ideal/sampled simulators and the IBMQ/IonQ providers"
        )

    def build(self):
        """Construct a fresh backend from the spec."""
        from repro.hardware.ibmq import IBMQBackend
        from repro.hardware.ionq import IonQBackend
        from repro.quantum.backend import IdealBackend, SampledBackend

        if self.kind == "ideal":
            return IdealBackend(seed=self.seed)
        if self.kind == "sampled":
            return SampledBackend(shots=self.shots or 1024, seed=self.seed)
        if self.kind == "ibmq":
            return IBMQBackend(
                self.device or "ibmq_london",
                seed=self.seed,
                simulate_queue_latency=self.simulate_queue_latency,
            )
        return IonQBackend(
            seed=self.seed, simulate_queue_latency=self.simulate_queue_latency
        )


@dataclasses.dataclass(frozen=True)
class EstimatorSpec:
    """Picklable recipe for reconstructing a fidelity estimator in a worker.

    The circuit builder itself is shipped (it is deterministic, shared data),
    while the execution backend travels as a :class:`BackendSpec` so every
    worker gets an isolated instance.  The estimator's tuning — memory
    guards and cache bounds — is carried
    along so a worker-rebuilt estimator behaves exactly like the one the
    caller configured (dropping e.g. a lowered ``max_batch_amplitudes``
    would reintroduce the memory blow-up that bound was set to prevent).
    """

    kind: str
    backend: Optional[BackendSpec] = None
    shots: Optional[int] = None
    max_batch_amplitudes: Optional[int] = None
    data_cache_size: Optional[int] = None
    data_matrix_cache_size: Optional[int] = None

    KINDS = ("analytic", "swap_test")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(
                f"unknown estimator kind {self.kind!r}; expected one of {self.KINDS}"
            )

    @property
    def samples_shots(self) -> bool:
        """Whether the reconstructed estimator draws shot-sampling randomness."""
        return self.kind == "swap_test"

    def with_backend_seed(self, seed: RandomState) -> "EstimatorSpec":
        """Copy of the spec whose backend samples from ``seed``."""
        if self.backend is None:
            return self
        return dataclasses.replace(self, backend=self.backend.with_seed(seed))

    @classmethod
    def from_estimator(cls, estimator) -> "EstimatorSpec":
        """Derive the spec describing an existing estimator instance."""
        from repro.core.swap_test import (
            AnalyticFidelityEstimator,
            SwapTestFidelityEstimator,
        )

        if isinstance(estimator, AnalyticFidelityEstimator):
            return cls(
                kind="analytic",
                data_cache_size=estimator._data_state_cache.max_entries,
                data_matrix_cache_size=estimator._data_matrix_cache.max_entries,
                max_batch_amplitudes=estimator._max_batch_amplitudes,
            )
        if isinstance(estimator, SwapTestFidelityEstimator):
            return cls(
                kind="swap_test",
                backend=BackendSpec.from_backend(estimator.backend),
                shots=estimator.shots,
                max_batch_amplitudes=estimator._max_batch_amplitudes,
            )
        raise ValidationError(
            f"cannot derive an EstimatorSpec from {type(estimator).__name__}; "
            "sharded training needs an analytic or SWAP-test estimator"
        )

    def build(self, builder):
        """Construct a fresh estimator around ``builder``."""
        from repro.core.swap_test import (
            AnalyticFidelityEstimator,
            SwapTestFidelityEstimator,
        )

        if self.kind == "analytic":
            return AnalyticFidelityEstimator(
                builder,
                data_cache_size=self.data_cache_size
                or AnalyticFidelityEstimator.DEFAULT_DATA_CACHE_SIZE,
                data_matrix_cache_size=self.data_matrix_cache_size
                or AnalyticFidelityEstimator.DEFAULT_DATA_MATRIX_CACHE_SIZE,
                max_batch_amplitudes=self.max_batch_amplitudes
                or AnalyticFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES,
            )
        backend = self.backend.build() if self.backend is not None else None
        return SwapTestFidelityEstimator(
            builder,
            backend=backend,
            shots=self.shots,
            max_batch_amplitudes=self.max_batch_amplitudes
            or SwapTestFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES,
        )
