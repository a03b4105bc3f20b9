"""Unit tests for shard planning: plan construction and spec round-trips."""

import pytest

from repro.exceptions import ValidationError
from repro.hardware import IBMQBackend, IonQBackend
from repro.parallel import BackendSpec, EstimatorSpec, Shard, ShardPlan
from repro.quantum.backend import IdealBackend, SampledBackend
from repro.quantum.noise import NoiseModel, ReadoutError


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

    @pytest.mark.parametrize("backend_type", [IBMQBackend, IonQBackend])
    def test_round_trip_preserves_changed_queue_latency(self, backend_type):
        backend = backend_type()
        backend.properties.queue_latency_seconds = 0.001
        rebuilt = BackendSpec.from_backend(backend).build()
        assert rebuilt.properties.queue_latency_seconds == 0.001

    @staticmethod
    def _mutate_noise_model(backend):
        backend.properties.noise_model.add_readout_error(ReadoutError(0.2, 0.2))

    @staticmethod
    def _replace_noise_model(backend):
        # Same construction as the calibration, so the same version counter:
        # only the object identity shows the change.
        profile = backend.calibration
        backend.properties.noise_model = NoiseModel.from_error_rates(
            single_qubit_error=0.01,
            two_qubit_error=0.05,
            readout_error=0.1,
            t1=profile.t1_us,
            t2=profile.t2_us,
            gate_time=profile.gate_time_us,
        )

    @pytest.mark.parametrize("change", ["_mutate_noise_model", "_replace_noise_model"])
    @pytest.mark.parametrize("backend_type", [IBMQBackend, IonQBackend])
    def test_changed_noise_model_is_refused_not_dropped(self, backend_type, change):
        backend = backend_type()
        getattr(self, change)(backend)
        with pytest.raises(ValidationError, match="noise_model"):
            BackendSpec.from_backend(backend)

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
