"""The names the frozen ``perfbench/`` tracer reaches into stay defined.

``perfbench`` is frozen: it wraps library entry points from outside by name
(``perfbench/layers.py`` patches ``vars(owner)[name]``), calls
``TilePlan.for_grid_sweep`` in the ``mnist-17q-infer`` cost model and reads
two cache counters.  The encoder, builder and estimator names below are the
ones it wraps on the classes the encoder contract reshaped: ``angle_matrix``
stays defined on each angle encoder itself, not only on ``DataEncoder``.  A missing name fails a traced run with ``KeyError``
or, for ``transpile_cache_stats``, silently drops its counters, so each is
pinned here; ``python3 perfbench/check_counters.py`` checks that the
counters themselves repeat.
"""

import pytest

import repro.analysis.equiv as equiv
from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.encoding.angle import DualAngleEncoder, SingleAngleEncoder
from repro.hardware import ibmq_london
from repro.quantum.program import DensitySuperoperatorEngine, TilePlan


@pytest.mark.parametrize(
    "owner,name",
    [
        (equiv, "shared_prefix_length"),
        (equiv, "verify_shared_prefix"),
        (TilePlan, "for_grid_sweep"),
        (DualAngleEncoder, "angle_matrix"),
        (SingleAngleEncoder, "angle_matrix"),
        (DiscriminatorCircuitBuilder, "grid_bindings"),
        (AnalyticFidelityEstimator, "fidelity_matrix"),
        (AnalyticFidelityEstimator, "trained_statevectors"),
        (AnalyticFidelityEstimator, "data_state_matrix"),
        (SwapTestFidelityEstimator, "fidelity_matrix"),
    ],
)
def test_patched_name_is_defined_on_its_owner(owner, name):
    assert name in vars(owner)


def test_cache_counters_are_readable():
    assert DensitySuperoperatorEngine().plans_compiled == 0
    assert set(ibmq_london(seed=0).transpile_cache_stats) >= {"hits", "misses"}
