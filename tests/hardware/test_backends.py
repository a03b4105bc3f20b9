"""Tests for the simulated IBM-Q and IonQ backends."""

import numpy as np
import pytest

from repro.core import QuClassi
from repro.hardware import (
    IBMQBackend,
    IonQBackend,
    ibmq_cairo,
    ibmq_london,
    ibmq_melbourne,
    ibmq_rome,
    ionq,
)
from repro.hardware.calibration import available_devices
from repro.quantum import IdealBackend
from repro.quantum.circuit import QuantumCircuit


def discriminator_circuit() -> QuantumCircuit:
    model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0)
    return model.discriminator_circuit(0, np.array([0.2, 0.7, 0.4, 0.9]))


class TestFactories:
    def test_site_factories(self):
        assert ibmq_london().name == "ibmq_london"
        assert ibmq_rome().name == "ibmq_rome"
        assert ibmq_melbourne().name == "ibmq_melbourne"
        assert ibmq_cairo().name == "ibmq_cairo"
        assert ionq().name == "ionq_trapped_ion"

    def test_non_ibmq_profile_rejected(self):
        with pytest.raises(ValueError):
            IBMQBackend("ionq_trapped_ion")

    def test_backends_report_noisy(self):
        assert ibmq_london().is_noisy
        assert ionq().is_noisy


class TestExecution:
    def test_ibmq_run_returns_counts_and_ledger(self):
        backend = ibmq_london(seed=0)
        result = backend.run(discriminator_circuit(), shots=1024)
        assert result.counts.shots == 1024
        assert backend.ledger.num_jobs == 1
        assert backend.ledger.total_shots == 1024
        assert backend.ledger.records[0].cx_count > 0

    def test_ionq_needs_no_routing_swaps(self):
        backend = ionq(seed=0)
        backend.run(discriminator_circuit(), shots=256)
        assert backend.last_transpile_stats["inserted_swaps"] == 0

    def test_ibmq_needs_routing_swaps(self):
        backend = ibmq_london(seed=0)
        backend.run(discriminator_circuit(), shots=256)
        assert backend.last_transpile_stats["inserted_swaps"] > 0

    def test_cairo_routes_more_cnots_than_ionq(self):
        """The mechanism behind the paper's IonQ (~80%) vs Cairo (~72%) gap."""
        circuit = discriminator_circuit()
        ionq_backend = ionq(seed=0)
        cairo_backend = ibmq_cairo(seed=0)
        ionq_backend.run(circuit, shots=128)
        cairo_backend.run(circuit, shots=128)
        assert cairo_backend.last_transpile_stats["cx_count"] > ionq_backend.last_transpile_stats["cx_count"]
        assert cairo_backend.last_transpile_stats["added_cx"] >= 15

    def test_noise_pulls_swap_test_towards_half(self):
        """Hardware noise dilutes P(ancilla=0) towards 0.5 relative to the ideal value."""
        circuit = discriminator_circuit()
        ideal = IdealBackend().ancilla_zero_probability(circuit)
        noisy = ibmq_melbourne(seed=0).ancilla_zero_probability(circuit, shots=None)
        assert abs(noisy - 0.5) < abs(ideal - 0.5)

    def test_ionq_closer_to_ideal_than_ibmq(self):
        circuit = discriminator_circuit()
        ideal = IdealBackend().ancilla_zero_probability(circuit)
        ionq_p = ionq(seed=0).ancilla_zero_probability(circuit, shots=None)
        ibmq_p = ibmq_cairo(seed=0).ancilla_zero_probability(circuit, shots=None)
        assert abs(ionq_p - ideal) < abs(ibmq_p - ideal)

    def test_job_ledger_summary(self):
        backend = ibmq_rome(seed=0)
        circuit = discriminator_circuit()
        backend.run(circuit, shots=100)
        backend.run(circuit, shots=100)
        summary = backend.ledger.summary()
        assert summary["num_jobs"] == 2
        assert summary["total_shots"] == 200
        assert summary["mean_cx"] > 0
        assert summary["total_queue_latency_seconds"] > 0

    def test_melbourne_hosts_five_qubit_circuit_without_full_device_simulation(self):
        """15-qubit Melbourne only simulates the 5 qubits the circuit needs."""
        backend = ibmq_melbourne(seed=0)
        result = backend.run(discriminator_circuit(), shots=None)
        assert result.density_matrix.num_qubits == 5


def grid_sweep(backend, model, features, shots):
    """One whole-grid sweep of class 0's discriminator over ``features``."""
    builder = model.builder
    return backend.sweep_grid_zero_probabilities(
        builder.symbolic_discriminator(),
        builder.grid_parameters,
        builder.grid_bindings(model.parameters_[:1], features),
        shots=shots,
    )


class TestBatchExecution:
    def test_batch_counts_seed_match_the_run_loop(self):
        """The whole-grid noisy sweep draws shot for shot like sequential runs."""
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0)
        features = np.random.default_rng(0).uniform(0, 1, (4, 4))
        swept = grid_sweep(ibmq_london(seed=7), model, features, shots=300)
        loop_backend = ibmq_london(seed=7)
        looped = [
            loop_backend.ancilla_zero_probability(
                model.discriminator_circuit(0, row), shots=300
            )
            for row in features
        ]
        np.testing.assert_array_equal(swept, looped)

    @pytest.mark.parametrize("factory", [ibmq_london, ionq])
    def test_batch_records_every_job_in_the_ledger(self, factory):
        backend = factory(seed=0)
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0)
        grid_sweep(backend, model, np.full((3, 4), 0.5), shots=128)
        assert backend.ledger.num_jobs == 3
        assert backend.ledger.total_shots == 3 * 128
        assert all(record.cx_count >= 0 for record in backend.ledger.records)


class TestQueueLatencySimulation:
    """Calibrated queue latency is book-kept in metadata and the ledger, never slept."""

    def _sleep_recorder(self, monkeypatch):
        slept = []
        monkeypatch.setattr("time.sleep", lambda seconds: slept.append(seconds))
        return slept

    def test_disabled_by_default(self, monkeypatch):
        slept = self._sleep_recorder(monkeypatch)
        backend = ibmq_london(seed=0)
        backend.run(discriminator_circuit(), shots=32)
        assert slept == []

    @pytest.mark.parametrize("device", available_devices())
    def test_run_and_sweep_record_the_calibrated_latency(self, device, monkeypatch):
        slept = self._sleep_recorder(monkeypatch)
        backend = (
            IonQBackend(seed=0) if device.startswith("ionq") else IBMQBackend(device, seed=0)
        )
        latency = backend.calibration.queue_latency_seconds
        assert latency > 0
        result = backend.run(discriminator_circuit(), shots=32)
        model = QuClassi(num_features=4, num_classes=2, architecture="s", seed=0)
        grid_sweep(backend, model, np.full((2, 4), 0.5), shots=32)
        assert result.metadata["queue_latency_seconds"] == latency
        assert [record.queue_latency_seconds for record in backend.ledger.records] == [
            latency
        ] * 3
        assert backend.ledger.total_queue_latency_seconds == pytest.approx(3 * latency)
        assert [record.job_id for record in backend.ledger.records] == [0, 1, 2]
        assert slept == []

    def test_changed_latency_is_what_the_ledger_records(self, monkeypatch):
        """The ledger books the backend's current latency, not the calibration's."""
        slept = self._sleep_recorder(monkeypatch)
        backend = ibmq_london(seed=0)
        backend.properties.queue_latency_seconds = 0.001
        result = backend.run(discriminator_circuit(), shots=32)
        assert result.metadata["queue_latency_seconds"] == 0.001
        assert backend.ledger.records[0].queue_latency_seconds == 0.001
        assert slept == []
