"""Unit tests for shard planning: splits, seed streams, and spec round-trips."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.hardware import IBMQBackend, IonQBackend
from repro.parallel import BackendSpec, EstimatorSpec, Shard, ShardPlan
from repro.quantum.backend import IdealBackend, SampledBackend


class TestShardPlanConstruction:
    def test_from_items_assigns_contiguous_indices(self):
        plan = ShardPlan.from_items(["a", "b", "c"])
        assert [shard.index for shard in plan] == [0, 1, 2]
        assert [shard.payload for shard in plan] == ["a", "b", "c"]
        assert plan[1].key == ("shard", 1)

    def test_from_items_with_keys(self):
        plan = ShardPlan.from_items([10, 20], keys=[("class", 0), ("class", 1)])
        assert plan[0].key == ("class", 0)

    def test_scalar_keys_are_wrapped(self):
        plan = ShardPlan.from_items([10, 20], keys=["a", "b"])
        assert plan[0].key == ("a",)

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan.from_items([1, 2], keys=[("only",)])

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan([Shard(index=1, key=("x",))])


class TestShardPlanSplitting:
    def test_chunks_are_contiguous_and_balanced(self):
        plan = ShardPlan.from_items(list(range(7)))
        chunks = plan.chunks(3)
        assert [len(chunk) for chunk in chunks] == [3, 2, 2]
        flattened = [shard.index for chunk in chunks for shard in chunk]
        assert flattened == list(range(7))

    def test_chunks_drop_empty_workers(self):
        plan = ShardPlan.from_items(list(range(3)))
        assert len(plan.chunks(5)) == 3

    def test_chunks_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            ShardPlan.from_items([1]).chunks(0)

    def test_balanced_chunks_spread_heavy_shards(self):
        plan = ShardPlan.from_items(list(range(4)))
        # One huge cell (index 0) and three tiny ones: LPT must isolate the
        # huge one instead of stacking work next to it.
        chunks = plan.balanced_chunks(2, weights=[100.0, 1.0, 1.0, 1.0])
        loads = sorted(
            sum(100.0 if shard.index == 0 else 1.0 for shard in chunk)
            for chunk in chunks
        )
        assert loads == [3.0, 100.0]

    def test_balanced_chunks_preserve_order_within_chunk(self):
        plan = ShardPlan.from_items(list(range(6)))
        chunks = plan.balanced_chunks(2, weights=[5, 4, 3, 3, 4, 5])
        for chunk in chunks:
            indices = [shard.index for shard in chunk]
            assert indices == sorted(indices)

    def test_balanced_chunks_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            ShardPlan.from_items([1, 2]).balanced_chunks(2, weights=[1.0])

    def test_balanced_chunks_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan.from_items([1, 2]).balanced_chunks(2, weights=[1.0, -1.0])


class TestSeedSpawning:
    def test_streams_depend_only_on_shard_index(self):
        plan = ShardPlan.from_items(list(range(4)))
        first = [rng.random() for rng in plan.spawn_rngs(7)]
        second = [rng.random() for rng in plan.spawn_rngs(7)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_different_roots_give_different_streams(self):
        plan = ShardPlan.from_items(list(range(2)))
        assert [r.random() for r in plan.spawn_rngs(0)] != [
            r.random() for r in plan.spawn_rngs(1)
        ]

    def test_seed_sequences_are_picklable(self):
        plan = ShardPlan.from_items(list(range(2)))
        sequences = plan.spawn_seed_sequences(3)
        restored = pickle.loads(pickle.dumps(sequences))
        assert [
            np.random.default_rng(child).random() for child in restored
        ] == [np.random.default_rng(child).random() for child in plan.spawn_seed_sequences(3)]


class TestBackendSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            BackendSpec(kind="mystery")

    @pytest.mark.parametrize(
        "backend, kind",
        [
            (IdealBackend(), "ideal"),
            (SampledBackend(shots=256), "sampled"),
            (IBMQBackend("ibmq_london"), "ibmq"),
            (IonQBackend(), "ionq"),
        ],
    )
    def test_round_trip_rebuilds_same_backend_type(self, backend, kind):
        spec = BackendSpec.from_backend(backend)
        assert spec.kind == kind
        rebuilt = spec.build()
        assert type(rebuilt) is type(backend)
        assert rebuilt.name == backend.name

    def test_round_trip_preserves_sampled_shots(self):
        spec = BackendSpec.from_backend(SampledBackend(shots=333))
        assert spec.build().shots == 333

    def test_round_trip_preserves_queue_latency_flag(self):
        backend = IBMQBackend("ibmq_rome", simulate_queue_latency=True)
        rebuilt = BackendSpec.from_backend(backend).build()
        assert rebuilt.simulate_queue_latency is True

    def test_specs_are_picklable(self):
        spec = BackendSpec.from_backend(IBMQBackend("ibmq_melbourne")).with_seed(
            np.random.default_rng(5)
        )
        restored = pickle.loads(pickle.dumps(spec))
        assert restored.device == "ibmq_melbourne"
        assert restored.build().name == "ibmq_melbourne"

    def test_with_seed_drives_shot_sampling(self):
        from repro.quantum.circuit import QuantumCircuit

        circuit = QuantumCircuit(1, num_clbits=1)
        circuit.h(0)
        circuit.measure(0, 0)
        counts_a = BackendSpec(kind="sampled", shots=64).with_seed(9).build().run(circuit).counts
        counts_b = BackendSpec(kind="sampled", shots=64).with_seed(9).build().run(circuit).counts
        assert counts_a == counts_b

    def test_unknown_backend_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(ValidationError):
            BackendSpec.from_backend(Mystery())


class TestEstimatorSpec:
    def _builder(self):
        from repro.core import QuClassi

        return QuClassi(num_features=4, num_classes=2, seed=0).builder

    def test_analytic_round_trip(self):
        from repro.core.swap_test import AnalyticFidelityEstimator

        builder = self._builder()
        spec = EstimatorSpec.from_estimator(AnalyticFidelityEstimator(builder))
        assert spec.kind == "analytic"
        assert spec.samples_shots is False
        assert isinstance(spec.build(builder), AnalyticFidelityEstimator)

    def test_swap_test_round_trip(self):
        from repro.core.swap_test import SwapTestFidelityEstimator

        builder = self._builder()
        estimator = SwapTestFidelityEstimator(
            builder, backend=SampledBackend(shots=128), shots=64
        )
        spec = EstimatorSpec.from_estimator(estimator)
        assert spec.kind == "swap_test" and spec.shots == 64
        rebuilt = spec.build(builder)
        assert isinstance(rebuilt, SwapTestFidelityEstimator)
        assert rebuilt.shots == 64
        assert isinstance(rebuilt.backend, SampledBackend)

    def test_round_trip_preserves_tuning(self):
        """Memory guards and cache bounds must travel."""
        from repro.core.swap_test import (
            AnalyticFidelityEstimator,
            SwapTestFidelityEstimator,
        )

        builder = self._builder()
        estimator = SwapTestFidelityEstimator(
            builder,
            backend=SampledBackend(shots=64),
            shots=32,
            max_batch_amplitudes=2**18,
        )
        rebuilt = EstimatorSpec.from_estimator(estimator).build(builder)
        assert rebuilt._max_batch_amplitudes == 2**18

        analytic = AnalyticFidelityEstimator(
            builder, data_cache_size=17, data_matrix_cache_size=3
        )
        rebuilt = EstimatorSpec.from_estimator(analytic).build(builder)
        assert rebuilt._data_state_cache.max_entries == 17
        assert rebuilt._data_matrix_cache.max_entries == 3

    def test_unknown_estimator_rejected(self):
        class Mystery:
            pass

        with pytest.raises(ValidationError):
            EstimatorSpec.from_estimator(Mystery())

    def test_with_backend_seed_no_backend_is_noop(self):
        spec = EstimatorSpec(kind="analytic")
        assert spec.with_backend_seed(3) is spec
