"""Loop vs. batched full-gradient sweep on the Iris workload.

Measures the hot path behind every training figure: the parameter-shift
gradient of the fidelity cross-entropy, evaluated for every class on the full
Iris training set with exact (``shots=None``) fidelities, once per epoch for
the paper's 25-epoch configuration.  The loop path evaluates the loss ``2P``
times per gradient (rebuilding the trained statevector gate-by-gate each
time); the batched path stacks all ``2P`` shifted parameter vectors into one
:class:`~repro.quantum.batched.BatchedStatevector` pass.

The two trajectories must agree to 1e-10 (same shifts, same reduction order)
and the batched sweep must be at least 5x faster.  Timings are written to
``benchmarks/results/BENCH_gradient_sweep.json`` so the perf trajectory is
tracked across PRs.

Runs as a pytest test (``pytest benchmarks/bench_gradient_sweep.py -s``, no
pytest-benchmark required) or standalone
(``PYTHONPATH=src python benchmarks/bench_gradient_sweep.py``).
"""

import time

import numpy as np

from repro.core.cost import FidelityCrossEntropy
from repro.core.gradient import EpochScaledShiftRule
from repro.core.model import QuClassi
from repro.datasets import load_iris, prepare_task
from repro.quantum.statevector import Statevector

EPOCHS = 25
LEARNING_RATE = 0.01
SEED = 0
MIN_SPEEDUP = 5.0


def _seed_loop_loss(estimator, cost, features, targets, data_states):
    """Loss closure replicating the seed implementation exactly.

    The seed's ``AnalyticFidelityEstimator.fidelities`` rebuilt the trained
    statevector gate-by-gate per evaluation and restacked the (per-row cached)
    data states into a fresh matrix every time — no stacked-matrix memoisation
    and no batching.  ``data_states`` is that per-row cache: one
    ``Statevector.evolve`` of the row's encoding circuit the first time a row
    is seen, a dict lookup afterwards.  Kept here verbatim as the perf
    baseline every PR's numbers are measured against.
    """

    def data_state(row):
        key = tuple(np.round(np.asarray(row, dtype=float), 12))
        state = data_states.get(key)
        if state is None:
            circuit = estimator.builder.data_state_circuit(row)
            state = data_states[key] = Statevector(circuit.num_qubits).evolve(circuit)
        return state

    def loss(parameter_vector):
        omega = estimator.trained_statevector(parameter_vector).data
        data_matrix = np.stack([data_state(row).data for row in features])
        fidelities = np.abs(data_matrix.conj() @ omega) ** 2
        return cost(fidelities, targets)

    return loss


def _gradient_sweep(mode: str, epochs: int = EPOCHS):
    """Run the full-gradient sweep along the real SGD trajectory.

    ``mode`` selects the gradient evaluation: ``"seed_loop"`` (the seed
    implementation, restacking the data matrix per loss evaluation),
    ``"loop"`` (the current per-shift loop with the memoised data-state
    matrix), or ``"batched"`` (the vectorised multi-loss sweep).  Returns
    (gradient_seconds, final_weights, per_epoch_mean_loss); only the gradient
    evaluations are timed — the SGD update and the per-epoch loss read-out
    (identical across modes) stay outside the timer.
    """
    data = prepare_task(load_iris(), n_components=None, rng=SEED)
    features, labels = data.x_train, data.y_train
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=SEED)
    estimator = model.estimator
    rule = EpochScaledShiftRule()
    cost = FidelityCrossEntropy()

    elapsed = 0.0
    epoch_losses = []
    seed_data_states = {}
    for epoch in range(1, epochs + 1):
        for class_index in range(model.num_classes):
            targets = (labels == class_index).astype(float)
            parameters = model.parameters_[class_index]
            if mode == "batched":

                def multi_loss(parameter_matrix):
                    fidelity_matrix = estimator.fidelity_matrix(parameter_matrix, features)
                    return cost.batched(fidelity_matrix, targets)

                start = time.perf_counter()
                gradient = rule.gradient_batched(multi_loss, parameters, epoch=epoch)
                elapsed += time.perf_counter() - start
            else:
                if mode == "seed_loop":
                    loss = _seed_loop_loss(
                        estimator, cost, features, targets, seed_data_states
                    )
                else:

                    def loss(parameter_vector):
                        return cost(
                            estimator.fidelities(parameter_vector, features), targets
                        )

                start = time.perf_counter()
                gradient = rule.gradient(loss, parameters, epoch=epoch)
                elapsed += time.perf_counter() - start
            model.parameters_[class_index] = parameters - LEARNING_RATE * gradient
        epoch_losses.append(
            float(
                np.mean(
                    [
                        cost(
                            estimator.fidelities(model.parameters_[c], features),
                            (labels == c).astype(float),
                        )
                        for c in range(model.num_classes)
                    ]
                )
            )
        )
    return elapsed, model.get_weights(), epoch_losses


def run_gradient_sweep_benchmark(epochs: int = EPOCHS):
    """Run all three sweep modes and return the comparison payload."""
    seed_seconds, seed_weights, seed_losses = _gradient_sweep("seed_loop", epochs)
    loop_seconds, loop_weights, loop_losses = _gradient_sweep("loop", epochs)
    batched_seconds, batched_weights, batched_losses = _gradient_sweep("batched", epochs)
    return {
        "workload": {
            "dataset": "iris",
            "num_features": 4,
            "num_classes": 3,
            "architecture": "s",
            "epochs": epochs,
            "learning_rate": LEARNING_RATE,
            "seed": SEED,
            "fidelities": "exact",
        },
        "seed_loop_seconds": seed_seconds,
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup_vs_seed": seed_seconds / batched_seconds,
        "speedup_vs_loop": loop_seconds / batched_seconds,
        "max_weight_diff": float(
            max(
                np.abs(seed_weights - batched_weights).max(),
                np.abs(loop_weights - batched_weights).max(),
            )
        ),
        "max_epoch_loss_diff": float(
            max(
                np.abs(np.asarray(seed_losses) - np.asarray(batched_losses)).max(),
                np.abs(np.asarray(loop_losses) - np.asarray(batched_losses)).max(),
            )
        ),
        "final_mean_loss": batched_losses[-1],
    }


def test_gradient_sweep_batched_speedup(bench_reporter):
    payload = run_gradient_sweep_benchmark()
    path = bench_reporter("gradient_sweep", payload)
    print()
    print(
        f"gradient sweep: seed loop {payload['seed_loop_seconds']:.2f}s, "
        f"current loop {payload['loop_seconds']:.2f}s, "
        f"batched {payload['batched_seconds']:.2f}s, "
        f"speedup vs seed {payload['speedup_vs_seed']:.1f}x -> {path}"
    )
    assert payload["max_weight_diff"] < 1e-10
    assert payload["max_epoch_loss_diff"] < 1e-10
    assert payload["speedup_vs_seed"] >= MIN_SPEEDUP


if __name__ == "__main__":
    from conftest import record_bench_report

    result = run_gradient_sweep_benchmark()
    report_path = record_bench_report("gradient_sweep", result)
    print(
        f"seed loop {result['seed_loop_seconds']:.2f}s  "
        f"current loop {result['loop_seconds']:.2f}s  "
        f"batched {result['batched_seconds']:.2f}s  "
        f"speedup vs seed {result['speedup_vs_seed']:.1f}x  "
        f"max weight diff {result['max_weight_diff']:.2e}"
    )
    print(f"report written to {report_path}")
