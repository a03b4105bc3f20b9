"""Serial vs sharded wall-clock on the Iris multi-class hardware sweep.

Measures what the ``repro.parallel`` executor buys on the paper's outer loop:
the Iris multi-class sweep across simulated IBM-Q sites (the fig. 11
workload), fanned out one sweep cell per backend through
:func:`repro.experiments.harness.run_cells`.

Each cell trains end-to-end on its own noisy backend with
``simulate_queue_latency=True``: every job *submission* sleeps out the
site's queue latency, modelling the shared public queue the paper calls the
dominant cost of its hardware runs.  That is exactly the regime where
multi-backend scale-out pays: a ``thread`` executor overlaps the queue waits
of all sites, so the sweep finishes in roughly one site's wall-clock instead
of the sum — independent of host core count.  (A compute-bound per-class
sharding measurement on the analytic estimator is recorded alongside for
reference, at ``min(4, os.cpu_count())`` threads with that worker count
recorded next to its time; its scaling tracks the host's free cores, which
on a single-core CI box is ~1x.)

Sharding must not change the science: every cell builds its own backend
with the same seed the serial sweep uses, and the payload records that all
sharded runs reproduced the serial rows bit-for-bit.

Timings are written to ``benchmarks/results/BENCH_shard_scaling.json``.
Runs as a pytest test (``pytest benchmarks/bench_shard_scaling.py -s``) or
standalone (``PYTHONPATH=src python benchmarks/bench_shard_scaling.py``).
"""

import os
import time

import numpy as np

from repro.core import QuClassi
from repro.datasets import load_iris, prepare_task
from repro.experiments.harness import run_cells
from repro.hardware import IBMQBackend
from repro.parallel import ShardExecutor

SITES = ("ibmq_london", "ibmq_new_york", "ibmq_melbourne", "ibmq_rome")
EPOCHS = 2
SAMPLES_PER_CLASS = 3
SHOTS = 256
#: Simulated queue wait per job submission.  The real sites' calibrated
#: latencies are minutes; this scaled-down stand-in keeps the benchmark
#: tractable while preserving the latency-dominated shape of hardware sweeps.
QUEUE_LATENCY_SECONDS = 0.5
WORKER_COUNTS = (1, 2, 4)
SEED = 0
MIN_SPEEDUP = 1.8


def _sweep_cell(payload):
    """Train the Iris multi-class model on one latency-simulating site."""
    site, epochs, samples_per_class, shots, latency, seed = payload
    data = prepare_task(
        load_iris(), samples_per_class=samples_per_class, test_fraction=0.25, rng=seed
    )
    backend = IBMQBackend(site, seed=seed, simulate_queue_latency=True)
    backend.properties.queue_latency_seconds = latency
    model = QuClassi(
        num_features=4,
        num_classes=3,
        architecture="s",
        estimator="swap_test",
        backend=backend,
        shots=shots,
        seed=seed,
    )
    model.fit(
        data.x_train,
        data.y_train,
        epochs=epochs,
        learning_rate=0.1,
        batch_size=None,
    )
    return {
        "site": site,
        "losses": [float(value) for value in model.history_.losses],
        "weights": model.get_weights().tolist(),
        "jobs": backend.ledger.num_jobs,
    }


def _run_sweep(executor, sites, epochs, samples_per_class, shots, latency, seed):
    payloads = [
        (site, epochs, samples_per_class, shots, latency, seed) for site in sites
    ]
    start = time.perf_counter()
    rows = run_cells(
        _sweep_cell,
        payloads,
        keys=[("backend", site) for site in sites],
        executor=executor,
    )
    return time.perf_counter() - start, rows


def _compute_bound_fit(executor, seed):
    """Per-class sharded fit on the analytic estimator (compute-bound)."""
    data = prepare_task(load_iris(), n_components=None, rng=seed)
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=seed)
    start = time.perf_counter()
    model.fit(
        data.x_train, data.y_train, epochs=10, learning_rate=0.1, rng=seed, executor=executor
    )
    return time.perf_counter() - start, model.get_weights()


def run_shard_scaling_benchmark(
    sites=SITES,
    epochs: int = EPOCHS,
    samples_per_class: int = SAMPLES_PER_CLASS,
    shots: int = SHOTS,
    queue_latency_seconds: float = QUEUE_LATENCY_SECONDS,
    worker_counts=WORKER_COUNTS,
    seed: int = SEED,
):
    """Measure the sweep serially and at every worker count; verify equivalence."""
    serial_seconds, serial_rows = _run_sweep(
        ShardExecutor("serial"), sites, epochs, samples_per_class, shots,
        queue_latency_seconds, seed,
    )
    workers = {}
    rows_identical = True
    for count in worker_counts:
        seconds, rows = _run_sweep(
            ShardExecutor("thread", max_workers=count), sites, epochs,
            samples_per_class, shots, queue_latency_seconds, seed,
        )
        workers[str(count)] = seconds
        rows_identical = rows_identical and rows == serial_rows

    compute_serial_seconds, compute_serial_weights = _compute_bound_fit(
        ShardExecutor("serial"), seed
    )
    compute_workers = min(4, os.cpu_count() or 1)
    compute_sharded_seconds, compute_sharded_weights = _compute_bound_fit(
        ShardExecutor("thread", max_workers=compute_workers), seed
    )

    max_workers = str(max(worker_counts))
    return {
        "workload": {
            "dataset": "iris",
            "sweep": "multi-class training across simulated IBM-Q sites (fig11-style)",
            "sites": list(sites),
            "epochs": epochs,
            "samples_per_class": samples_per_class,
            "shots": shots,
            "queue_latency_seconds": queue_latency_seconds,
            "simulate_queue_latency": True,
            "seed": seed,
            "cpu_count": os.cpu_count(),
        },
        "serial_seconds": serial_seconds,
        "worker_seconds": workers,
        "speedup_at_max_workers": serial_seconds / workers[max_workers],
        "rows_bit_identical": bool(rows_identical),
        "jobs_per_cell": serial_rows[0]["jobs"],
        "compute_bound_fit": {
            "description": "per-class Trainer sharding, analytic estimator "
            "(scales with free cores, not queue overlap)",
            "serial_seconds": compute_serial_seconds,
            "workers": compute_workers,
            "sharded_seconds": compute_sharded_seconds,
            "speedup": compute_serial_seconds / compute_sharded_seconds,
            "weights_bit_identical": bool(
                np.array_equal(compute_serial_weights, compute_sharded_weights)
            ),
        },
    }


def test_shard_scaling_speedup(bench_reporter):
    payload = run_shard_scaling_benchmark()
    path = bench_reporter("shard_scaling", payload)
    print()
    print(
        f"shard scaling: serial {payload['serial_seconds']:.2f}s, "
        f"4 workers {payload['worker_seconds']['4']:.2f}s, "
        f"speedup {payload['speedup_at_max_workers']:.1f}x -> {path}"
    )
    assert payload["rows_bit_identical"] is True
    assert payload["compute_bound_fit"]["weights_bit_identical"] is True
    assert payload["speedup_at_max_workers"] >= MIN_SPEEDUP


if __name__ == "__main__":
    from conftest import record_bench_report

    result = run_shard_scaling_benchmark()
    report_path = record_bench_report("shard_scaling", result)
    print(
        f"serial {result['serial_seconds']:.2f}s  "
        + "  ".join(
            f"{count}w {seconds:.2f}s"
            for count, seconds in result["worker_seconds"].items()
        )
        + f"  speedup {result['speedup_at_max_workers']:.1f}x  "
        f"rows identical {result['rows_bit_identical']}"
    )
    print(f"report written to {report_path}")
