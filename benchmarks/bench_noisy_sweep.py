"""Per-circuit loop vs. whole-grid noisy SWAP-test sweep on the Iris hardware workload.

Measures the hot path behind the simulated-hardware figures (paper
Section 5.4): evaluating the SWAP-test fidelity of every (class, test sample)
pair for a trained Iris model on a simulated IBM-Q device.  The loop path is
the per-circuit reference: it builds one bound discriminator per fidelity
and executes it with ``Backend.run`` (transpilation cache-amortised, one
density-matrix simulation per circuit).  The batched path hands the whole
sweep to ``SwapTestFidelityEstimator.fidelity_matrix``, which the noisy
backend executes as one compiled whole-grid program: one symbolic transpile
per sweep feeding a vectorised density-matrix evolution (one matmul per gate,
its noise channels precomposed into the same superoperator, and at most one
transpose copy where the layout schedule moves the gate's axes) plus one
stacked multinomial shot draw.

The two paths must agree draw for draw under a shared seed (counts bit-equal,
hence identical fidelity estimates) and the batched sweep must be at least 3x
faster.  Timings are written to ``benchmarks/results/BENCH_noisy_sweep.json``
so the perf trajectory is tracked across PRs.

Runs as a pytest test (``pytest benchmarks/bench_noisy_sweep.py -s``) or
standalone (``PYTHONPATH=src python benchmarks/bench_noisy_sweep.py``).
"""

import time

import numpy as np

from repro.core.model import QuClassi
from repro.core.swap_test import SwapTestFidelityEstimator
from repro.datasets import load_iris, prepare_task
from repro.hardware import IBMQBackend
from repro.quantum.backend import Backend
from repro.quantum.fidelity import fidelities_from_swap_test_probabilities

DEVICE = "ibmq_london"
SHOTS = 1024
TRAIN_EPOCHS = 10
SEED = 0
MIN_SPEEDUP = 3.0
#: Cap on the number of test samples swept (None = the full Iris test split);
#: the benchmark smoke test shrinks this so the bench script stays exercised.
SAMPLE_LIMIT = None
#: Timed repetitions per mode; the best run is reported (standard practice for
#: sub-second benchmarks, where scheduler noise dwarfs the code under test).
REPETITIONS = 3


def _trained_iris_model():
    """Train the QC-S Iris model whose noisy sweep the benchmark evaluates."""
    data = prepare_task(load_iris(), n_components=None, rng=SEED)
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=SEED)
    model.fit(data.x_train, data.y_train, epochs=TRAIN_EPOCHS, learning_rate=0.1)
    return model, data


def _noisy_sweep(mode: str, model, samples):
    """Evaluate the full noisy sweep; returns (seconds, fidelities, backend).

    ``mode`` selects the execution path: ``"loop"`` is the per-circuit
    reference — one bound discriminator and one ``Backend.run`` per
    fidelity (transpilation is cache-amortised, but every circuit simulates
    its own density matrix); ``"batched"`` evaluates every (class, sample)
    pair in one ``fidelity_matrix`` call.  Fresh same-seeded backends per
    call keep the two paths draw-for-draw comparable.
    """
    backend = IBMQBackend(DEVICE, seed=SEED)
    start = time.perf_counter()
    if mode == "batched":
        estimator = SwapTestFidelityEstimator(model.builder, backend=backend, shots=SHOTS)
        fidelities = estimator.fidelity_matrix(model.parameters_, samples)
    else:
        zeros = Backend.sweep_grid_zero_probabilities(
            backend, *model.builder.grid_sweep(model.parameters_, samples), shots=SHOTS
        )
        fidelities = fidelities_from_swap_test_probabilities(zeros).reshape(
            len(model.parameters_), len(samples)
        )
    elapsed = time.perf_counter() - start
    return elapsed, fidelities, backend


def run_noisy_sweep_benchmark():
    """Run both sweep modes and return the comparison payload.

    Each mode runs ``REPETITIONS`` times (fresh same-seeded backends per run,
    so every repetition draws identical samples) and reports its best time;
    an untimed warm-up of each mode first fills the builder's circuit caches
    so both modes are measured in their steady state.
    """
    model, data = _trained_iris_model()
    samples = data.x_test if SAMPLE_LIMIT is None else data.x_test[:SAMPLE_LIMIT]
    for mode in ("loop", "batched"):
        _noisy_sweep(mode, model, samples)  # warm-up (circuit caches)
    loop_seconds, loop_fidelities, _ = min(
        (_noisy_sweep("loop", model, samples) for _ in range(REPETITIONS)),
        key=lambda run: run[0],
    )
    batched_seconds, batched_fidelities, batched_backend = min(
        (_noisy_sweep("batched", model, samples) for _ in range(REPETITIONS)),
        key=lambda run: run[0],
    )

    return {
        "workload": {
            "dataset": "iris",
            "architecture": "s",
            "num_classes": 3,
            "num_samples": int(samples.shape[0]),
            "device": DEVICE,
            "shots": SHOTS,
            "circuits_per_mode": int(3 * samples.shape[0]),
            "train_epochs": TRAIN_EPOCHS,
            "seed": SEED,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup_vs_loop": loop_seconds / batched_seconds,
        "seed_match": bool(np.array_equal(loop_fidelities, batched_fidelities)),
        "transpile_cache": batched_backend.transpile_cache_stats,
    }


def test_noisy_sweep_batched_speedup(bench_reporter):
    payload = run_noisy_sweep_benchmark()
    path = bench_reporter("noisy_sweep", payload)
    print()
    print(
        f"noisy sweep: loop {payload['loop_seconds']:.2f}s, "
        f"batched {payload['batched_seconds']:.2f}s, "
        f"speedup {payload['speedup_vs_loop']:.1f}x -> {path}"
    )
    assert payload["seed_match"] is True
    assert payload["speedup_vs_loop"] >= MIN_SPEEDUP


if __name__ == "__main__":
    from conftest import record_bench_report

    result = run_noisy_sweep_benchmark()
    report_path = record_bench_report("noisy_sweep", result)
    print(
        f"loop {result['loop_seconds']:.2f}s  "
        f"batched {result['batched_seconds']:.2f}s  "
        f"speedup {result['speedup_vs_loop']:.1f}x  "
        f"seed match {result['seed_match']}"
    )
    print(f"report written to {report_path}")
