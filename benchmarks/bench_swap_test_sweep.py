"""Per-circuit loop vs. whole-grid SWAP-test sweep on the Iris shots-ablation workload.

Measures the hot path behind the shots ablation and the simulated-hardware
figures: evaluating the SWAP-test fidelity of every (class, test sample) pair
for a trained Iris model across the paper's shot grid.  The loop path is the
per-circuit reference: it builds one bound discriminator per fidelity and
executes it with ``Backend.run``.  The batched path hands the whole sweep to
``SwapTestFidelityEstimator.fidelity_matrix``, which the statevector backend
executes as one compiled whole-grid program — a vectorised
:class:`~repro.quantum.batched.BatchedStatevector` pass per tile with a
single stacked RNG draw for the ancilla bits.

The two paths must agree exactly for ``shots=None`` (to 1e-12) and
draw-for-draw for sampled grid points under a shared seed, and the batched
sweep must be at least 5x faster.  Timings are written to
``benchmarks/results/BENCH_swap_test_sweep.json`` so the perf trajectory is
tracked across PRs.

Runs as a pytest test (``pytest benchmarks/bench_swap_test_sweep.py -s``) or
standalone (``PYTHONPATH=src python benchmarks/bench_swap_test_sweep.py``).
"""

import time

import numpy as np

from repro.core.model import QuClassi
from repro.core.swap_test import SwapTestFidelityEstimator
from repro.datasets import load_iris, prepare_task
from repro.hardware import IBMQBackend
from repro.quantum.backend import Backend, IdealBackend
from repro.quantum.fidelity import fidelities_from_swap_test_probabilities

SHOTS_GRID = (128, 512, 2048, 8192, None)
TRAIN_EPOCHS = 10
SEED = 0
MIN_SPEEDUP = 5.0
#: Timed repetitions per mode; the best run is reported (standard practice for
#: sub-second benchmarks, where scheduler noise dwarfs the code under test).
REPETITIONS = 3


def _trained_iris_model():
    """Train the QC-S Iris model whose sweep the ablation evaluates."""
    data = prepare_task(load_iris(), n_components=None, rng=SEED)
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=SEED)
    model.fit(data.x_train, data.y_train, epochs=TRAIN_EPOCHS, learning_rate=0.1)
    return model, data


def _run_loop_fidelities(builder, backend, parameter_matrix, samples, shots):
    """The per-circuit reference: one bound discriminator and one ``Backend.run`` per pair.

    The base class's ``sweep_grid_zero_probabilities`` is that loop.
    """
    zeros = Backend.sweep_grid_zero_probabilities(
        backend, *builder.grid_sweep(parameter_matrix, samples), shots=shots
    )
    return fidelities_from_swap_test_probabilities(zeros).reshape(
        len(parameter_matrix), len(samples)
    )


def _shots_ablation_sweep(mode: str, model, samples):
    """Evaluate the full shots-ablation sweep; returns (seconds, estimates).

    ``mode`` selects the execution path: ``"loop"`` is the per-circuit
    reference (:func:`_run_loop_fidelities`), ``"batched"`` evaluates every
    (class, sample) pair of a grid point in one ``fidelity_matrix`` call.
    Fresh same-seeded backends per grid point keep the two paths
    draw-for-draw comparable.
    """
    elapsed = 0.0
    estimates = {}
    for shots in SHOTS_GRID:
        backend = IdealBackend(seed=SEED)
        start = time.perf_counter()
        if mode == "batched":
            grid_point = SwapTestFidelityEstimator(
                model.builder, backend=backend, shots=shots
            ).fidelity_matrix(model.parameters_, samples)
        else:
            grid_point = _run_loop_fidelities(
                model.builder, backend, model.parameters_, samples, shots
            )
        elapsed += time.perf_counter() - start
        estimates["exact" if shots is None else shots] = grid_point
    return elapsed, estimates


def _noisy_sweep_check(model, samples):
    """Equivalence + transpile-cache stats for a small noisy-backend sweep."""
    batched_estimator = SwapTestFidelityEstimator(
        model.builder, backend=IBMQBackend("ibmq_london", seed=SEED), shots=1024
    )
    start = time.perf_counter()
    batched = batched_estimator.fidelity_matrix(model.parameters_, samples)
    batched_seconds = time.perf_counter() - start
    start = time.perf_counter()
    loop = _run_loop_fidelities(
        model.builder,
        IBMQBackend("ibmq_london", seed=SEED),
        model.parameters_,
        samples,
        1024,
    )
    loop_seconds = time.perf_counter() - start
    return {
        "noisy_backend": "ibmq_london",
        "noisy_circuits": int(batched.size),
        "noisy_loop_seconds": loop_seconds,
        "noisy_batched_seconds": batched_seconds,
        "noisy_seed_match": bool(np.array_equal(batched, loop)),
        "noisy_transpile_cache": batched_estimator.backend.transpile_cache_stats,
    }


def run_swap_test_sweep_benchmark():
    """Run both sweep modes and return the comparison payload.

    Each mode runs ``REPETITIONS`` times (fresh same-seeded backends per run,
    so every repetition draws identical samples) and reports its best time;
    an untimed warm-up of each mode first fills the builder's circuit caches
    so both modes are measured in their steady state.
    """
    model, data = _trained_iris_model()
    samples = data.x_test
    for mode in ("loop", "batched"):
        _shots_ablation_sweep(mode, model, samples)  # warm-up (circuit caches)
    loop_seconds, loop_estimates = min(
        (_shots_ablation_sweep("loop", model, samples) for _ in range(REPETITIONS)),
        key=lambda run: run[0],
    )
    batched_seconds, batched_estimates = min(
        (_shots_ablation_sweep("batched", model, samples) for _ in range(REPETITIONS)),
        key=lambda run: run[0],
    )

    exact_diff = float(
        np.max(np.abs(loop_estimates["exact"] - batched_estimates["exact"]))
    )
    sampled_identical = all(
        np.array_equal(loop_estimates[key], batched_estimates[key])
        for key in loop_estimates
        if key != "exact"
    )
    payload = {
        "workload": {
            "dataset": "iris",
            "architecture": "s",
            "num_classes": 3,
            "num_samples": int(samples.shape[0]),
            "shots_grid": ["exact" if s is None else s for s in SHOTS_GRID],
            "circuits_per_mode": int(len(SHOTS_GRID) * 3 * samples.shape[0]),
            "train_epochs": TRAIN_EPOCHS,
            "seed": SEED,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup_vs_loop": loop_seconds / batched_seconds,
        "exact_max_diff": exact_diff,
        "sampled_seed_match": bool(sampled_identical),
    }
    payload.update(_noisy_sweep_check(model, samples[:4]))
    return payload


def test_swap_test_sweep_batched_speedup(bench_reporter):
    payload = run_swap_test_sweep_benchmark()
    path = bench_reporter("swap_test_sweep", payload)
    print()
    print(
        f"swap-test sweep: loop {payload['loop_seconds']:.2f}s, "
        f"batched {payload['batched_seconds']:.2f}s, "
        f"speedup {payload['speedup_vs_loop']:.1f}x -> {path}"
    )
    assert payload["exact_max_diff"] < 1e-12
    assert payload["sampled_seed_match"] is True
    assert payload["noisy_seed_match"] is True
    assert payload["speedup_vs_loop"] >= MIN_SPEEDUP


if __name__ == "__main__":
    from conftest import record_bench_report

    result = run_swap_test_sweep_benchmark()
    report_path = record_bench_report("swap_test_sweep", result)
    print(
        f"loop {result['loop_seconds']:.2f}s  "
        f"batched {result['batched_seconds']:.2f}s  "
        f"speedup {result['speedup_vs_loop']:.1f}x  "
        f"exact max diff {result['exact_max_diff']:.2e}  "
        f"sampled seed match {result['sampled_seed_match']}"
    )
    print(f"report written to {report_path}")
