"""Tests for the provider job ledger."""

from repro.hardware.job import JobLedger
from repro.quantum.simulator import SimulationResult


def fake_result(cx: int = 10, swaps: int = 2, shots: int = 100) -> SimulationResult:
    return SimulationResult(
        circuit_name="circ",
        probabilities={"0": 1.0},
        shots=shots,
        metadata={"transpile": {"cx_count": cx, "inserted_swaps": swaps, "depth": 20}},
    )


class TestJobLedger:
    def test_record_extracts_transpile_stats(self):
        ledger = JobLedger()
        record = ledger.record("ibmq_test", fake_result(), queue_latency_seconds=30.0)
        assert record.cx_count == 10
        assert record.inserted_swaps == 2
        assert record.depth == 20
        assert record.total_two_qubit_gates == 10

    def test_job_ids_increment(self):
        ledger = JobLedger()
        first = ledger.record("b", fake_result(), 0.0)
        second = ledger.record("b", fake_result(), 0.0)
        assert second.job_id == first.job_id + 1

    def test_totals(self):
        ledger = JobLedger()
        ledger.record("b", fake_result(shots=100), 10.0)
        ledger.record("b", fake_result(shots=200), 10.0)
        assert ledger.num_jobs == 2
        assert ledger.total_shots == 300
        assert ledger.total_queue_latency_seconds == 20.0

    def test_summary_empty(self):
        assert JobLedger().summary()["num_jobs"] == 0

    def test_summary_means(self):
        ledger = JobLedger()
        ledger.record("b", fake_result(cx=10), 0.0)
        ledger.record("b", fake_result(cx=20), 0.0)
        assert ledger.summary()["mean_cx"] == 15.0

    def test_clear(self):
        ledger = JobLedger()
        ledger.record("b", fake_result(), 0.0)
        ledger.clear()
        assert ledger.num_jobs == 0

    def test_missing_transpile_metadata_defaults_to_zero(self):
        result = SimulationResult(circuit_name="c", probabilities={}, shots=None)
        record = JobLedger().record("b", result, 0.0)
        assert record.cx_count == 0
        assert record.shots is None
