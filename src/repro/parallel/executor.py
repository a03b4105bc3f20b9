"""Shard execution strategies: ``serial`` (the reference loop) and ``thread``.

Threads pay because the numerical kernels release the GIL inside BLAS and
simulated-hardware queue waits overlap.  Both strategies return results in
shard-index order and raise a :class:`ShardError` naming the failing shard;
the first thread failure cancels every not-yet-started shard.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, List, Optional, Sequence

from repro.exceptions import ReproError, ValidationError
from repro.parallel.plan import Shard, ShardPlan


class ShardError(ReproError):
    """A shard failed; carries which one so sweep failures are attributable.

    Attributes
    ----------
    shard_index:
        Index of the failing shard within its plan.
    shard_key:
        The shard's human-readable key, e.g. ``("class", 2)`` or
        ``("backend", "ibmq_london")``.
    """

    def __init__(self, message: str, shard_index: int, shard_key: tuple) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.shard_key = shard_key


class ShardExecutor:
    """Runs shard work functions serially or on a thread pool.

    Parameters
    ----------
    strategy:
        ``"serial"`` or ``"thread"``.
    max_workers:
        Thread-pool size; defaults to the number of shards submitted,
        capped at 32.  Ignored by ``serial``.
    """

    STRATEGIES = ("serial", "thread")

    def __init__(self, strategy: str = "serial", max_workers: Optional[int] = None) -> None:
        strategy = str(strategy).strip().lower()
        if strategy not in self.STRATEGIES:
            raise ValidationError(
                f"unknown executor strategy {strategy!r}; expected one of {self.STRATEGIES}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ValidationError(f"max_workers must be positive, got {max_workers}")
        self.strategy = strategy
        self.max_workers = max_workers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardExecutor(strategy={self.strategy!r}, max_workers={self.max_workers})"

    # ------------------------------------------------------------------ #
    def map(self, fn: Callable[[Shard], object], shards: Sequence[Shard]) -> List[object]:
        """Run ``fn`` over every shard, returning results in shard order.

        ``shards`` may be a :class:`~repro.parallel.plan.ShardPlan` or any
        shard sequence.
        """
        if isinstance(shards, ShardPlan):
            shards = shards.shards
        shards = list(shards)
        if not shards:
            return []
        if self.strategy == "serial" or len(shards) == 1:
            return [self._call(fn, shard) for shard in shards]
        results: List[object] = [None] * len(shards)
        workers = min(self.max_workers or 32, len(shards))
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(self._call, fn, shard): position
                for position, shard in enumerate(shards)
            }
            try:
                for future in concurrent.futures.as_completed(futures):
                    results[futures[future]] = future.result()
            except BaseException:
                # Fail fast: drop every shard that has not started yet so one
                # bad cell does not leave the sweep running to completion.
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results

    @staticmethod
    def _call(fn: Callable[[Shard], object], shard: Shard) -> object:
        try:
            return fn(shard)
        except ShardError:
            raise
        except Exception as error:
            raise ShardError(
                f"shard {shard.index} {shard.key!r} failed "
                f"({type(error).__name__}: {error})",
                shard_index=shard.index,
                shard_key=shard.key,
            ) from error
