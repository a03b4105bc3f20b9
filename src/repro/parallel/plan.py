"""Shard planning: how a sweep is cut into independent units of work.

A *shard* is one self-contained unit of a figure sweep — one class's whole
training run, one (backend, setting) sweep cell — that a
:class:`~repro.parallel.executor.ShardExecutor` can hand to a worker thread.
The planning layer owns everything that must be decided *before* workers
start so that results cannot depend on execution order:

* :class:`ShardPlan` fixes the shard indices and keys up front; callers
  spawn one stream per shard index with :func:`repro.utils.rng.spawn_rngs`.
* :class:`BackendSpec` / :class:`EstimatorSpec` are *factories*: every shard
  builds its own backend from the spec, so it owns its RNG stream, its job
  ledger and its counters, and the caller merges ledgers back by shard
  index.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.utils.rng import RandomState


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

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def __iter__(self):
        return iter(self._shards)

    def __getitem__(self, index: int) -> Shard:
        return self._shards[index]


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """Recipe for building one fresh execution backend per shard.

    Thread shards must not share a live backend: each shard owns its RNG
    stream, its job ledger and its counters, or shards would correlate shot
    noise, interleave ledger records and double-count jobs.  Rebuilding from
    a spec is the simplest way to get that isolation; a "fork the live
    backend" method would spread the same per-type knowledge over every
    backend class.  A spec carries only what construction needs, and each
    shard seeds its instance with a per-shard stream via :meth:`with_seed`.
    """

    kind: str
    device: Optional[str] = None
    shots: Optional[int] = None
    seed: RandomState = None
    simulate_queue_latency: bool = False
    #: Provider queue latency; ``None`` keeps the device's calibrated value.
    queue_latency_seconds: Optional[float] = None

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

        The spec intentionally omits the backend's RNG state — shards are
        expected to re-seed via :meth:`with_seed` with a per-shard stream.
        A provider backend's queue latency is carried over; a noise model
        that no longer matches the device calibration cannot be, so it raises
        :class:`~repro.exceptions.ValidationError` instead of being dropped.
        """
        from repro.hardware.ibmq import IBMQBackend
        from repro.hardware.ionq import IonQBackend
        from repro.quantum.backend import IdealBackend, SampledBackend

        if isinstance(backend, (IBMQBackend, IonQBackend)):
            spec = cls(
                kind="ibmq" if isinstance(backend, IBMQBackend) else "ionq",
                device=backend.name if isinstance(backend, IBMQBackend) else None,
                simulate_queue_latency=backend.simulate_queue_latency,
                queue_latency_seconds=backend.properties.queue_latency_seconds,
            )
            model = backend.properties.noise_model
            if (
                model is not backend._simulator.noise_model
                or model.version != spec.build().properties.noise_model.version
            ):
                raise ValidationError(
                    f"{backend.name}'s noise_model was changed after calibration; "
                    "sharded execution rebuilds each backend from its device "
                    "calibration and cannot carry a changed noise_model"
                )
            return spec
        if isinstance(backend, SampledBackend):
            return cls(kind="sampled", shots=backend.shots)
        if isinstance(backend, IdealBackend):
            return cls(kind="ideal")
        raise ValidationError(
            f"cannot derive a BackendSpec from {type(backend).__name__}; "
            "sharded execution rebuilds backends per shard and only knows "
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
            backend = IBMQBackend(
                self.device or "ibmq_london",
                seed=self.seed,
                simulate_queue_latency=self.simulate_queue_latency,
            )
        else:
            backend = IonQBackend(
                seed=self.seed, simulate_queue_latency=self.simulate_queue_latency
            )
        if self.queue_latency_seconds is not None:
            backend.properties.queue_latency_seconds = self.queue_latency_seconds
        return backend


@dataclasses.dataclass(frozen=True)
class EstimatorSpec:
    """Recipe for building one fresh fidelity estimator per shard.

    The circuit builder is shared (it is deterministic data behind locked
    caches), while the execution backend travels as a :class:`BackendSpec`
    so every shard gets its own instance.  The estimator's tuning — memory
    guards and cache bounds — is carried along so a shard-built estimator
    behaves exactly like the one the caller configured (dropping e.g. a
    lowered ``max_batch_amplitudes`` would reintroduce the memory blow-up
    that bound was set to prevent).
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
