"""Sharded multi-backend execution for per-class training and figure sweeps.

QuClassi trains one independent discriminator per class, and the paper's
figure sweeps repeat that training across backends, shot counts, and
encodings — an embarrassingly shard-parallel outer loop.  This package runs
it on threads without changing the science:

* :class:`~repro.parallel.plan.ShardPlan` fixes shard identities before
  execution; every stochastic draw comes from a stream spawned by shard
  index, so results do not depend on worker count or completion order.
* :class:`~repro.parallel.executor.ShardExecutor` runs shards ``serial`` or
  on ``thread``\\ s, bit-identically, failing fast with shard-attributed
  :class:`~repro.parallel.executor.ShardError`\\ s.
* :class:`~repro.parallel.plan.BackendSpec` /
  :class:`~repro.parallel.plan.EstimatorSpec` build one fresh backend per
  shard; job ledgers are merged back by shard index.

Sharded training also matches a plain ``executor=None`` fit when training
draws no shot-sampling randomness (the analytic estimator).  On
shot-sampled backends the shards draw per-shard streams instead of the live
backend's single stream.

Typical use::

    from repro.parallel import ShardExecutor

    model.fit(x, y, executor=ShardExecutor("thread", max_workers=4))
"""

from repro.parallel.executor import ShardError, ShardExecutor
from repro.parallel.plan import BackendSpec, EstimatorSpec, Shard, ShardPlan

__all__ = [
    "BackendSpec",
    "EstimatorSpec",
    "Shard",
    "ShardError",
    "ShardExecutor",
    "ShardPlan",
]
