"""Tests for the provider job ledger."""

from repro.hardware.job import JobLedger


def record_job(ledger, backend_name, latency, cx: int = 10, swaps: int = 2, shots: int = 100):
    stats = {"cx_count": cx, "inserted_swaps": swaps, "depth": 20}
    return ledger.record(backend_name, "circ", shots, stats, latency)


class TestJobLedger:
    def test_record_extracts_transpile_stats(self):
        ledger = JobLedger()
        record = record_job(ledger, "ibmq_test", 30.0)
        assert record.cx_count == 10
        assert record.inserted_swaps == 2
        assert record.depth == 20
        assert record.total_two_qubit_gates == 10

    def test_job_ids_increment(self):
        ledger = JobLedger()
        first = record_job(ledger, "b", 0.0)
        second = record_job(ledger, "b", 0.0)
        assert second.job_id == first.job_id + 1

    def test_totals(self):
        ledger = JobLedger()
        record_job(ledger, "b", 10.0, shots=100)
        record_job(ledger, "b", 10.0, shots=200)
        assert ledger.num_jobs == 2
        assert ledger.total_shots == 300
        assert ledger.total_queue_latency_seconds == 20.0

    def test_summary_empty(self):
        assert JobLedger().summary()["num_jobs"] == 0

    def test_summary_means(self):
        ledger = JobLedger()
        record_job(ledger, "b", 0.0, cx=10)
        record_job(ledger, "b", 0.0, cx=20)
        assert ledger.summary()["mean_cx"] == 15.0

    def test_clear(self):
        ledger = JobLedger()
        record_job(ledger, "b", 0.0)
        ledger.clear()
        assert ledger.num_jobs == 0

    def test_missing_transpile_metadata_defaults_to_zero(self):
        entry = JobLedger().record("b", "c", None, {}, 0.0)
        assert entry.cx_count == 0
        assert entry.shots is None
