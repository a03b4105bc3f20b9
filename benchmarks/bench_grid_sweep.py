"""Whole-grid SweepPrograms: one compiled program per fidelity sweep.

Two claims of the whole-grid refactor are measured here and recorded in
``benchmarks/results/BENCH_grid_sweep.json``:

1. **Iris SWAP-test grid speedup.**  A ``(shift rows x test samples)``
   fidelity sweep used to construct, bind, and execute one discriminator
   circuit per grid element.  The whole-grid path compiles the builder's
   symbolic discriminator ONCE — trained angles and encoder angles both as
   bind-site columns — and feeds the full bindings matrix to the backend,
   so no per-sample circuits exist at all.  Wall clock is compared against
   the per-circuit reference loop (one bound discriminator and one
   ``Backend.run`` per element) on the sampled and noisy backends, and the
   grid must stay draw-for-draw **bit-identical** to it under a shared
   seed.

2. **Predicted vs measured peak memory with a row-constant prefix.**  On
   the 17-qubit synthetic-MNIST grid, under the estimator's
   ``TilePlan.for_circuit_sweep`` plan (elements charged in the overlap
   readout's registers, ``SwapTestFidelityEstimator.grid_tile_plan``), the
   executor evolves the trained-state prefix once per grid row of each tile
   and repeats it across the row's samples in the tile.  The VER2xx cost model predicts
   the tiled sweep's peak bytes and its prefix-discounted per-element
   contraction count; tracemalloc measures the real peak alongside.

Runs as a pytest test (``pytest benchmarks/bench_grid_sweep.py -s``) or
standalone (``PYTHONPATH=src python benchmarks/bench_grid_sweep.py``).
"""

import time
import tracemalloc

import numpy as np

from repro.analysis.cost import estimate_cost, verify_cost
from repro.analysis.equiv import shared_prefix_length
from repro.core.model import QuClassi
from repro.core.swap_test import SwapTestFidelityEstimator
from repro.datasets import generate_synthetic_mnist, load_iris, prepare_task
from repro.hardware import IBMQBackend
from repro.quantum.backend import Backend, SampledBackend
from repro.quantum.fidelity import fidelities_from_swap_test_probabilities
from repro.quantum.program import SweepProgram

DEVICE = "ibmq_london"
SHOTS = 1024
TRAIN_EPOCHS = 3
SEED = 0
#: Parameter-shift-style rows of the Iris sweep grid.
SHIFT_ROWS = 17
#: Test samples swept per row; ``None`` sweeps the full Iris test split.
SAMPLE_LIMIT = None
#: Warm repetitions per timed mode; the best time is reported.
REPETITIONS = 3
#: The acceptance bar: whole-grid must beat per-sample circuits by this much.
MIN_GRID_SPEEDUP = 3.0

#: Memory workload: parameter-shift rows x samples on the 17-qubit grid.
MNIST_ROWS = 4
MNIST_SAMPLES = 24
MNIST_BUDGET_AMPLITUDES = 2**21


def _trained_iris_model():
    """Train the QC-S Iris model whose sweep grid is measured."""
    data = prepare_task(load_iris(), n_components=None, rng=SEED)
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=SEED)
    model.fit(data.x_train, data.y_train, epochs=TRAIN_EPOCHS, learning_rate=0.1)
    return model, data


def _estimator(builder, backend_factory):
    return SwapTestFidelityEstimator(builder, backend=backend_factory(), shots=SHOTS)


def _run_loop_fidelities(builder, backend, rows, samples):
    """The per-circuit reference: one ``Backend.run`` per grid element.

    The base class's ``sweep_grid_zero_probabilities`` is that loop.
    """
    zeros = Backend.sweep_grid_zero_probabilities(
        backend, *builder.grid_sweep(rows, samples), shots=SHOTS
    )
    return fidelities_from_swap_test_probabilities(zeros).reshape(len(rows), len(samples))


def _best_sweep_seconds(estimator, rows, samples):
    best = None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        estimator.fidelity_matrix(rows, samples)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def _grid_workload(model, data):
    rng = np.random.default_rng(SEED)
    rows = rng.uniform(0, np.pi, size=(SHIFT_ROWS, model.parameters_per_class))
    samples = data.x_test if SAMPLE_LIMIT is None else data.x_test[:SAMPLE_LIMIT]
    return rows, samples


def _compare_backend(builder, rows, samples, backend_factory):
    """Per-circuit loop vs grid on fresh same-seeded backends of one kind."""
    # Seed matches first: each mode's FIRST sweep on a fresh backend must
    # produce bitwise the same numbers — that is the grid route's guarantee.
    loop_start = time.perf_counter()
    loop_fidelities = _run_loop_fidelities(builder, backend_factory(), rows, samples)
    per_sample_seconds = time.perf_counter() - loop_start

    grid_estimator = _estimator(builder, backend_factory)
    grid_fidelities = grid_estimator.fidelity_matrix(rows, samples)
    grid_seconds = _best_sweep_seconds(grid_estimator, rows, samples)

    return {
        "per_sample_seconds": per_sample_seconds,
        "grid_seconds": grid_seconds,
        "speedup_vs_per_sample": per_sample_seconds / grid_seconds,
        "seed_match": bool(np.array_equal(grid_fidelities, loop_fidelities)),
    }


def run_iris_grid_benchmark():
    """Per-circuit loop vs whole-grid on the Iris sweep."""
    model, data = _trained_iris_model()
    rows, samples = _grid_workload(model, data)
    sampled = _compare_backend(
        model.builder,
        rows,
        samples,
        lambda: SampledBackend(shots=SHOTS, seed=SEED),
    )
    noisy = _compare_backend(
        model.builder,
        rows,
        samples,
        lambda: IBMQBackend(DEVICE, seed=SEED),
    )
    return {
        "workload": {
            "dataset": "iris",
            "architecture": "s",
            "num_classes": 3,
            "rows": int(rows.shape[0]),
            "num_samples": int(samples.shape[0]),
            "grid_elements": int(rows.shape[0] * samples.shape[0]),
            "device": DEVICE,
            "shots": SHOTS,
            "train_epochs": TRAIN_EPOCHS,
            "seed": SEED,
        },
        "sampled": sampled,
        "noisy": noisy,
    }


def run_grid_memory_benchmark(rows=None, samples=None, budget_amplitudes=None):
    """Cost-model prediction vs tracemalloc on the 17-qubit MNIST grid."""
    rows = MNIST_ROWS if rows is None else rows
    samples = MNIST_SAMPLES if samples is None else samples
    budget_amplitudes = (
        MNIST_BUDGET_AMPLITUDES if budget_amplitudes is None else budget_amplitudes
    )
    samples_per_digit = max(samples, 16)
    data = prepare_task(
        generate_synthetic_mnist(
            digits=(3, 6), samples_per_digit=samples_per_digit, rng=SEED
        ),
        n_components=16,
        rng=SEED,
    )
    model = QuClassi(num_features=16, num_classes=2, architecture="s", seed=SEED)
    builder = model.builder
    rng = np.random.default_rng(SEED)
    parameter_matrix = rng.uniform(0, np.pi, size=(rows, model.parameters_per_class))
    features = data.x_train[:samples]

    program = SweepProgram.compile(
        builder.symbolic_discriminator(),
        bind_floats=False,
        parameters=builder.grid_parameters,
        name="mnist-16-s:grid",
    )
    estimator = SwapTestFidelityEstimator(
        builder,
        backend=SampledBackend(shots=SHOTS, seed=SEED),
        shots=SHOTS,
        max_batch_amplitudes=budget_amplitudes,
    )
    # The plan the estimator executes: elements charged in the overlap
    # readout's registers.
    plan = estimator.grid_tile_plan(rows, features.shape[0])
    # The row-constant prefix: trained columns constant within a grid row.
    bindings = builder.grid_bindings(parameter_matrix, features)
    prefix_steps = shared_prefix_length(program, bindings[: features.shape[0]])
    predicted = estimate_cost(program, plan, shared_prefix_steps=prefix_steps)
    unshared = estimate_cost(program, plan)
    cost_findings = [d.code for d in verify_cost(program, plan)]

    estimator.fidelity_matrix(parameter_matrix, features)  # warm the caches
    tracemalloc.start()
    start = time.perf_counter()
    estimator.fidelity_matrix(parameter_matrix, features)
    grid_seconds = time.perf_counter() - start
    _, measured_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "workload": {
            "dataset": "synthetic_mnist",
            "pair": [3, 6],
            "num_features": 16,
            "discriminator_qubits": int(program.num_qubits),
            "rows": int(rows),
            "samples": int(features.shape[0]),
            "shots": SHOTS,
            "seed": SEED,
        },
        "budget_amplitudes": int(budget_amplitudes),
        "sample_tile": int(plan.sample_tile),
        "num_tiles": int(plan.num_tiles),
        "shared_prefix_steps": int(prefix_steps),
        "program_steps": len(program.steps),
        "grid_seconds": grid_seconds,
        "measured_peak_bytes": int(measured_peak),
        "predicted_peak_bytes": int(predicted.peak_bytes),
        "predicted_vs_measured": float(predicted.peak_bytes / measured_peak),
        "element_contractions": int(predicted.element_contractions),
        "element_contractions_unshared": int(unshared.element_contractions),
        "prefix_contraction_saving": float(
            1.0 - predicted.element_contractions / unshared.element_contractions
        ),
        # VER205 is expected: the 2**21 budget holds a 2**17 statevector
        # element but not one 4**17 density element.
        "cost_findings": cost_findings,
    }


def run_grid_sweep_benchmark():
    """Run both measurements and return the combined payload."""
    iris = run_iris_grid_benchmark()
    memory = run_grid_memory_benchmark()
    return {
        "iris_grid": iris,
        "mnist_memory": memory,
        # Headline acceptance numbers.
        "speedup": iris["sampled"]["speedup_vs_per_sample"],
        "seed_match": bool(iris["sampled"]["seed_match"] and iris["noisy"]["seed_match"]),
    }


def test_grid_sweep_benchmark(bench_reporter):
    payload = run_grid_sweep_benchmark()
    path = bench_reporter("grid_sweep", payload)
    iris = payload["iris_grid"]
    memory = payload["mnist_memory"]
    print()
    print(
        f"iris grid: per-sample {iris['sampled']['per_sample_seconds']:.2f}s, grid "
        f"{iris['sampled']['grid_seconds'] * 1000:.0f}ms "
        f"({iris['sampled']['speedup_vs_per_sample']:.1f}x); noisy "
        f"{iris['noisy']['speedup_vs_per_sample']:.1f}x; MNIST 17q peak "
        f"{memory['measured_peak_bytes'] / 2**20:.0f} MiB vs predicted "
        f"{memory['predicted_peak_bytes'] / 2**20:.0f} MiB, prefix "
        f"{memory['shared_prefix_steps']}/{memory['program_steps']} steps "
        f"-> {path}"
    )
    assert payload["seed_match"] is True
    assert payload["speedup"] >= MIN_GRID_SPEEDUP
    assert iris["noisy"]["speedup_vs_per_sample"] >= MIN_GRID_SPEEDUP
    assert memory["shared_prefix_steps"] > 0
    assert memory["element_contractions"] < memory["element_contractions_unshared"]
    # The coarse model must bound the real peak within its calibrated band.
    assert 0.5 <= memory["predicted_vs_measured"] <= 1.5
    assert memory["cost_findings"] == ["VER205"]


if __name__ == "__main__":
    from conftest import record_bench_report

    result = run_grid_sweep_benchmark()
    report_path = record_bench_report("grid_sweep", result)
    iris = result["iris_grid"]
    memory = result["mnist_memory"]
    print(
        f"iris sampled: per-sample {iris['sampled']['per_sample_seconds']:.2f}s  grid "
        f"{iris['sampled']['grid_seconds'] * 1000:.0f}ms  speedup "
        f"{iris['sampled']['speedup_vs_per_sample']:.1f}x"
    )
    print(
        f"iris noisy: per-sample {iris['noisy']['per_sample_seconds']:.2f}s  grid "
        f"{iris['noisy']['grid_seconds'] * 1000:.0f}ms  speedup "
        f"{iris['noisy']['speedup_vs_per_sample']:.1f}x"
    )
    print(
        f"MNIST 17q grid: measured {memory['measured_peak_bytes'] / 2**20:.0f} MiB  "
        f"predicted {memory['predicted_peak_bytes'] / 2**20:.0f} MiB  prefix "
        f"{memory['shared_prefix_steps']}/{memory['program_steps']}  "
        f"contractions {memory['element_contractions_unshared']} -> "
        f"{memory['element_contractions']}"
    )
    print(f"seed_match={result['seed_match']}  speedup={result['speedup']:.1f}x")
    print(f"report written to {report_path}")
