"""Per-figure experiment reproductions.

One function per figure/table of the paper's evaluation (Section 5), plus the
ablations called out in DESIGN.md.  Every function accepts size knobs
(samples, epochs) whose defaults keep the full benchmark suite tractable on a
laptop; pass larger values to approach the paper's full runs.  All functions
return an :class:`~repro.experiments.harness.ExperimentResult`.

The multi-cell sweeps (fig6b, fig9–12 and the ablations) run their
independent (backend, class, setting) cells through
:func:`~repro.experiments.harness.run_cells`.  Each cell is a module-level
function that constructs its own models and backends from seeds, so a cell's
result does not depend on the cells run before it, and a failing cell names
its key.

The index of experiment id → paper anchor → bench target lives in DESIGN.md;
EXPERIMENTS.md records paper-vs-measured values for each.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import QFpNetLikeClassifier, TFQLikeClassifier, dnn_for_parameter_budget
from repro.core import QuClassi, SwapTestFidelityEstimator
from repro.datasets import (
    PreparedData,
    generate_synthetic_mnist,
    load_iris,
    prepare_task,
)
from repro.encoding import DualAngleEncoder, SingleAngleEncoder
from repro.experiments.harness import (
    ExperimentResult,
    accuracy_summary,
    run_cells,
    train_dnn_with_budget,
    train_quclassi,
)
from repro.hardware import IBMQBackend, IonQBackend
from repro.quantum import IdealBackend, bloch_vectors
from repro.utils.rng import RandomState, ensure_rng

# --------------------------------------------------------------------------- #
# Shared data preparation
# --------------------------------------------------------------------------- #


def prepare_iris_task(seed: RandomState = 0, n_components: Optional[int] = None) -> PreparedData:
    """Iris, all three classes, normalised to [0, 1] (4 features)."""
    return prepare_task(load_iris(), n_components=n_components, test_fraction=0.3, rng=seed)


def prepare_mnist_task(
    digits: Sequence[int],
    n_components: int = 16,
    samples_per_digit: int = 50,
    seed: RandomState = 0,
) -> PreparedData:
    """Synthetic-MNIST task restricted to ``digits`` and PCA-reduced."""
    rng = ensure_rng(seed)
    dataset = generate_synthetic_mnist(
        digits=digits, samples_per_digit=samples_per_digit, rng=rng
    )
    return prepare_task(
        dataset,
        classes=digits,
        n_components=n_components,
        test_fraction=0.3,
        rng=rng,
    )


# --------------------------------------------------------------------------- #
# Figure 6 — Iris
# --------------------------------------------------------------------------- #


def fig6a_multiclass_loss(epochs: int = 25, learning_rate: float = 0.1, seed: RandomState = 0) -> ExperimentResult:
    """Fig. 6a: per-class training loss vs epoch on Iris (QC-S)."""
    data = prepare_iris_task(seed=seed)
    model = train_quclassi(data, architecture="s", epochs=epochs, learning_rate=learning_rate, seed=seed)
    per_class = model.history_.per_class_losses()
    result = ExperimentResult(
        experiment_id="fig6a",
        title="Iris multi-class training loss per class (QC-S)",
        metadata={"epochs": epochs, "learning_rate": learning_rate, "architecture": "s"},
    )
    epochs_axis = model.history_.epochs
    for class_index, class_name in enumerate(data.class_names):
        result.add_series(f"class_{class_index + 1}_{class_name}", epochs_axis, per_class[:, class_index])
    result.add_series("mean_loss", epochs_axis, model.history_.losses)
    return result


def _fig6b_cell(payload) -> Dict[str, object]:
    """One fig6b bar: train a QuClassi architecture or a DNN budget cell."""
    kind, setting, data, epochs, seed = payload
    if kind == "quclassi":
        model = train_quclassi(data, architecture=setting, epochs=epochs, seed=seed)
        return {
            "model": f"QC-{setting.upper()}",
            "parameters": model.num_parameters,
            **accuracy_summary(model, data),
        }
    dnn = train_dnn_with_budget(
        data, parameter_budget=setting, epochs=max(epochs, 25), seed=seed
    )
    return {
        "model": f"DNN-{dnn.num_parameters}P",
        "parameters": dnn.num_parameters,
        **accuracy_summary(dnn, data),
    }


def fig6b_iris_accuracy(
    architectures: Sequence[str] = ("s", "sd", "sde"),
    dnn_budgets: Sequence[int] = (12, 56, 112),
    epochs: int = 20,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 6b: Iris test accuracy of QC-S/QC-SD/QC-SDE vs DNN-kP baselines.

    Every bar is one independent sweep cell.
    """
    data = prepare_iris_task(seed=seed)
    result = ExperimentResult(
        experiment_id="fig6b",
        title="Iris accuracy by architecture",
        metadata={"epochs": epochs},
    )
    cells = [("quclassi", architecture, data, epochs, seed) for architecture in architectures]
    cells += [("dnn", budget, data, epochs, seed) for budget in dnn_budgets]
    rows = run_cells(
        _fig6b_cell,
        cells,
        keys=[(kind, setting) for kind, setting, *_ in cells],
    )
    for row in rows:
        result.add_row(**row)
    return result


def fig6c_learning_curves(
    epochs: int = 20,
    dnn_budgets: Sequence[int] = (12, 28, 56, 112),
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 6c: test accuracy vs epoch — QuClassi vs classical DNNs of 12-112 parameters."""
    data = prepare_iris_task(seed=seed)
    result = ExperimentResult(
        experiment_id="fig6c",
        title="Iris accuracy vs epoch for multiple parameter settings",
        metadata={"epochs": epochs},
    )
    model = train_quclassi(data, architecture="s", epochs=epochs, seed=seed)
    quclassi_curve = [
        acc if acc is not None else float("nan") for acc in model.history_.validation_accuracies
    ]
    result.add_series(
        f"QuClassi-{model.num_parameters}P", model.history_.epochs, quclassi_curve
    )
    for budget in dnn_budgets:
        dnn = dnn_for_parameter_budget(data.num_features, data.num_classes, budget, seed=seed)
        history = dnn.fit(
            data.x_train,
            data.y_train,
            epochs=epochs,
            learning_rate=0.1,
            validation_data=(data.x_test, data.y_test),
        )
        curve = [acc if acc is not None else float("nan") for acc in history.validation_accuracies]
        result.add_series(f"DNN-{dnn.num_parameters}P", list(range(1, len(curve) + 1)), curve)
    return result


# --------------------------------------------------------------------------- #
# Figure 8 — state evolution on the Bloch sphere
# --------------------------------------------------------------------------- #


def fig8_state_evolution(
    digits: Tuple[int, int] = (0, 6),
    epochs: int = 10,
    samples_per_digit: int = 40,
    n_components: int = 4,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 8: how the learned state rotates towards its class data during training.

    Reports, per trained qubit, the Bloch-vector angle between the initial
    (random) state and the trained state, and the fidelity between the trained
    state and the mean data state of the class before vs after training.
    """
    data = prepare_mnist_task(digits, n_components=n_components, samples_per_digit=samples_per_digit, seed=seed)
    model = QuClassi(
        num_features=data.num_features, num_classes=2, architecture="s", seed=seed
    )
    estimator = model.estimator
    class_index = 0
    class_samples = data.x_train[data.y_train == class_index]

    def mean_fidelity(parameters: np.ndarray) -> float:
        return float(np.mean(estimator.fidelities(parameters, class_samples)))

    initial_parameters = model.parameters_[class_index].copy()
    initial_state = model.trained_statevector(class_index)
    initial_bloch = bloch_vectors(initial_state)
    initial_fidelity = mean_fidelity(initial_parameters)

    model.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.1)

    trained_state = model.trained_statevector(class_index)
    trained_bloch = bloch_vectors(trained_state)
    trained_fidelity = mean_fidelity(model.parameters_[class_index])

    result = ExperimentResult(
        experiment_id="fig8",
        title=f"Learned-state evolution for digit {digits[0]} vs {digits[1]}",
        metadata={"epochs": epochs, "digits": str(digits)},
    )
    for qubit, (before, after) in enumerate(zip(initial_bloch, trained_bloch)):
        result.add_row(
            qubit=qubit,
            initial_polar_angle=before.polar_angle,
            trained_polar_angle=after.polar_angle,
            rotation_angle=before.angle_to(after),
        )
    result.metadata["initial_mean_fidelity"] = initial_fidelity
    result.metadata["trained_mean_fidelity"] = trained_fidelity
    return result


# --------------------------------------------------------------------------- #
# Figures 9 and 10 — synthetic-MNIST comparisons
# --------------------------------------------------------------------------- #


def _train_tfq_baseline(
    digits: Sequence[int],
    samples_per_digit: int,
    epochs: int,
    seed: RandomState,
) -> Tuple[TFQLikeClassifier, PreparedData]:
    """Train the TFQ-like baseline on a 4-dimensional PCA of the same task.

    TFQ's tutorial uses one qubit per (downsampled) pixel; running it on the
    full 16-dimensional projection would need a 17-qubit statevector per loss
    term inside a parameter-shift loop, so — like the paper does for its own
    hardware runs — the baseline uses the 4-component PCA of the same data.
    """
    data = prepare_mnist_task(digits, n_components=4, samples_per_digit=samples_per_digit, seed=seed)
    model = TFQLikeClassifier(num_features=4, num_layers=1, seed=seed)
    model.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.2, rng=ensure_rng(seed))
    return model, data


def _fig9_cell(payload) -> Dict[str, object]:
    """One fig9 task column: all models trained on one digit pair."""
    pair, samples_per_digit, epochs, dnn_budgets, seed = payload
    data = prepare_mnist_task(pair, n_components=16, samples_per_digit=samples_per_digit, seed=seed)
    row: Dict[str, object] = {"task": f"{pair[0]}/{pair[1]}"}

    quclassi = train_quclassi(data, architecture="s", epochs=epochs, seed=seed)
    row["QC-S"] = accuracy_summary(quclassi, data)["test_accuracy"]
    row["QC-S_params"] = quclassi.num_parameters

    qf = QFpNetLikeClassifier(num_features=16, num_classes=2, hidden_units=8, seed=seed)
    qf.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.05)
    row["QF-pNet-like"] = qf.score(data.x_test, data.y_test)

    tfq, tfq_data = _train_tfq_baseline(pair, samples_per_digit, epochs=max(4, epochs // 2), seed=seed)
    row["TFQ-like"] = tfq.score(tfq_data.x_test, tfq_data.y_test)

    for budget in dnn_budgets:
        dnn = train_dnn_with_budget(data, parameter_budget=budget, epochs=25, seed=seed)
        row[f"DNN-{budget}"] = accuracy_summary(dnn, data)["test_accuracy"]
    return row


def fig9_binary_classification(
    pairs: Sequence[Tuple[int, int]] = ((1, 5), (3, 6), (3, 9), (3, 8)),
    samples_per_digit: int = 50,
    epochs: int = 25,
    dnn_budgets: Sequence[int] = (306, 1218),
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 9: binary synthetic-MNIST accuracy — QC-S vs QF-pNet-like vs TFQ-like vs DNNs.

    One sweep cell per digit pair.
    """
    result = ExperimentResult(
        experiment_id="fig9",
        title="Binary classification comparison (synthetic MNIST, 16-D PCA)",
        metadata={"samples_per_digit": samples_per_digit, "epochs": epochs},
    )
    rows = run_cells(
        _fig9_cell,
        [(pair, samples_per_digit, epochs, tuple(dnn_budgets), seed) for pair in pairs],
        keys=[("pair", f"{pair[0]}/{pair[1]}") for pair in pairs],
    )
    for row in rows:
        result.add_row(**row)
    return result


def _fig10_cell(payload) -> Dict[str, object]:
    """One fig10 task column: all models trained on one digit set."""
    task, samples_per_digit, epochs, dnn_budgets, seed = payload
    data = prepare_mnist_task(task, n_components=16, samples_per_digit=samples_per_digit, seed=seed)
    task_name = "10 Class" if len(task) == 10 else "/".join(str(d) for d in task)
    row: Dict[str, object] = {"task": task_name, "num_classes": len(task)}

    quclassi = train_quclassi(data, architecture="s", epochs=epochs, seed=seed)
    row["QC-S"] = accuracy_summary(quclassi, data)["test_accuracy"]
    row["QC-S_params"] = quclassi.num_parameters

    qf = QFpNetLikeClassifier(num_features=16, num_classes=len(task), hidden_units=8, seed=seed)
    qf.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.05)
    row["QF-pNet-like"] = qf.score(data.x_test, data.y_test)

    for budget in dnn_budgets:
        dnn = train_dnn_with_budget(data, parameter_budget=budget, epochs=25, seed=seed)
        row[f"DNN-{budget}"] = accuracy_summary(dnn, data)["test_accuracy"]
    return row


def fig10_multiclass_classification(
    tasks: Sequence[Tuple[int, ...]] = (
        (0, 3, 6),
        (1, 3, 6),
        (0, 3, 6, 9),
        (0, 1, 3, 6, 9),
        tuple(range(10)),
    ),
    samples_per_digit: int = 40,
    epochs: int = 15,
    dnn_budgets: Sequence[int] = (306, 1308),
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 10: multi-class synthetic-MNIST accuracy — QC-S vs QF-pNet-like vs DNNs.

    TensorFlow-Quantum is absent, exactly as in the paper, because its
    published classifier is binary-only.  One sweep cell per task.
    """
    result = ExperimentResult(
        experiment_id="fig10",
        title="Multi-class classification comparison (synthetic MNIST, 16-D PCA)",
        metadata={"samples_per_digit": samples_per_digit, "epochs": epochs},
    )
    rows = run_cells(
        _fig10_cell,
        [(task, samples_per_digit, epochs, tuple(dnn_budgets), seed) for task in tasks],
        keys=[("task", "/".join(str(d) for d in task)) for task in tasks],
    )
    for row in rows:
        result.add_row(**row)
    return result


# --------------------------------------------------------------------------- #
# Figures 11 and 12 — simulated hardware
# --------------------------------------------------------------------------- #


def _fig11_cell(payload):
    """One fig11 curve: Iris training on one (simulated) backend.

    The backend is constructed *inside* the cell from its site name, so each
    cell has its own job ledger and sampling stream.
    """
    site, data, epochs, shots, seed = payload
    backend = None if site == "simulator" else IBMQBackend(site, seed=seed)
    model = QuClassi(
        num_features=4,
        num_classes=3,
        architecture="s",
        estimator="swap_test" if backend is not None else "analytic",
        backend=backend,
        shots=shots if backend is not None else None,
        seed=seed,
    )
    model.fit(
        data.x_train,
        data.y_train,
        epochs=epochs,
        learning_rate=0.1,
        batch_size=None,
    )
    row = {
        "backend": site,
        "final_loss": model.history_.final_loss,
        "train_accuracy": model.history_.train_accuracies[-1],
    }
    return site, model.history_.epochs, model.history_.losses, row


def fig11_hardware_iris_loss(
    sites: Sequence[str] = ("ibmq_london", "ibmq_new_york", "ibmq_melbourne"),
    epochs: int = 4,
    samples_per_class: int = 4,
    shots: int = 8000,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 11: Iris training-loss curves on simulated IBM-Q sites vs the simulator.

    Training runs end-to-end on the noisy backend through the SWAP-test
    estimator (8000 shots per circuit, as in the paper); the dataset is
    subsampled because every gradient entry costs two circuit executions.
    The simulator backends batch: each gradient step executes all ``2P``
    shifted discriminator sweeps through the backend batch API, with the
    noisy sites re-binding their cached transpilation per circuit.  One
    sweep cell per backend.
    """
    result = ExperimentResult(
        experiment_id="fig11",
        title="Iris training loss on (simulated) IBM-Q sites",
        metadata={"epochs": epochs, "samples_per_class": samples_per_class, "shots": shots},
    )
    data = prepare_task(
        load_iris(), samples_per_class=samples_per_class, test_fraction=0.25, rng=seed
    )
    cells = ["simulator"] + list(sites)
    outcomes = run_cells(
        _fig11_cell,
        [(site, data, epochs, shots, seed) for site in cells],
        keys=[("backend", site) for site in cells],
    )
    for site, epochs_axis, losses, row in outcomes:
        result.add_series(site, epochs_axis, losses)
        result.add_row(**row)
    return result


def _fig12_cell(payload) -> Dict[str, object]:
    """One fig12 task column: simulator architectures + noisy-device evaluation."""
    pair, architectures, samples_per_digit, epochs, shots, device, seed = payload
    data = prepare_mnist_task(pair, n_components=4, samples_per_digit=samples_per_digit, seed=seed)
    row: Dict[str, object] = {"task": f"{pair[0]}/{pair[1]}"}
    trained_models: Dict[str, QuClassi] = {}
    for architecture in architectures:
        model = train_quclassi(data, architecture=architecture, epochs=epochs, seed=seed)
        trained_models[architecture] = model
        row[f"QC-{architecture.upper()}"] = accuracy_summary(model, data)["test_accuracy"]

    # Evaluate the QC-S model through the noisy device.
    hardware_model = trained_models[architectures[0]]
    backend = IBMQBackend(device, seed=seed)
    hardware_estimator = SwapTestFidelityEstimator(
        hardware_model.builder, backend=backend, shots=shots
    )
    original_estimator = hardware_model.estimator
    hardware_model.estimator = hardware_estimator
    row["IBM-Q"] = hardware_model.score(data.x_test, data.y_test)
    hardware_model.estimator = original_estimator

    tfq = TFQLikeClassifier(num_features=4, num_layers=1, seed=seed)
    tfq.fit(data.x_train, data.y_train, epochs=max(4, epochs // 2), learning_rate=0.2)
    row["TFQ-like"] = tfq.score(data.x_test, data.y_test)
    return row


def fig12_hardware_mnist_accuracy(
    pairs: Sequence[Tuple[int, int]] = ((3, 4), (6, 9), (2, 9)),
    architectures: Sequence[str] = ("s", "sd", "sde"),
    samples_per_digit: int = 40,
    epochs: int = 12,
    shots: int = 8192,
    device: str = "ibmq_rome",
    seed: RandomState = 0,
) -> ExperimentResult:
    """Fig. 12: 4-dimensional MNIST binary accuracy — simulator architectures vs IBM-Q Rome vs TFQ.

    As in the paper's setup, the model is trained with the simulator and the
    hardware column reports the trained QC-S model *evaluated* through the
    noisy IBM-Q Rome backend (noise corrupts the SWAP-test fidelities at
    inference time).  One sweep cell per digit pair (each cell builds its
    own device backend).
    """
    result = ExperimentResult(
        experiment_id="fig12",
        title="Binary classification on (simulated) quantum hardware, 4-D PCA",
        metadata={"device": device, "shots": shots, "epochs": epochs},
    )
    rows = run_cells(
        _fig12_cell,
        [
            (pair, tuple(architectures), samples_per_digit, epochs, shots, device, seed)
            for pair in pairs
        ],
        keys=[("pair", f"{pair[0]}/{pair[1]}") for pair in pairs],
    )
    for row in rows:
        result.add_row(**row)
    return result


def ionq_vs_cairo(
    pair: Tuple[int, int] = (3, 6),
    samples_per_digit: int = 40,
    epochs: int = 12,
    shots: int = 4096,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Section 5.4 text: IonQ vs IBM-Q Cairo on the (3, 6) task.

    Trains QC-S on the simulator, then evaluates the same trained model on the
    fully connected IonQ backend and on IBM-Q Cairo, reporting accuracy plus
    the routed two-qubit gate counts that explain the gap.
    """
    data = prepare_mnist_task(pair, n_components=4, samples_per_digit=samples_per_digit, seed=seed)
    model = train_quclassi(data, architecture="s", epochs=epochs, seed=seed)
    ideal_accuracy = accuracy_summary(model, data)["test_accuracy"]

    result = ExperimentResult(
        experiment_id="section5.4_ionq_vs_cairo",
        title="IonQ (all-to-all) vs IBM-Q Cairo (heavy-hexagon) on the (3, 6) task",
        metadata={"pair": str(pair), "shots": shots},
    )
    result.add_row(backend="ideal_simulator", test_accuracy=ideal_accuracy, cx_per_circuit=0, added_cx=0)

    original_estimator = model.estimator
    for backend in (IonQBackend(seed=seed), IBMQBackend("ibmq_cairo", seed=seed)):
        estimator = SwapTestFidelityEstimator(model.builder, backend=backend, shots=shots)
        model.estimator = estimator
        accuracy = model.score(data.x_test, data.y_test)
        stats = backend.last_transpile_stats
        result.add_row(
            backend=backend.name,
            test_accuracy=accuracy,
            cx_per_circuit=stats.get("cx_count", 0),
            added_cx=stats.get("added_cx", 0),
        )
    model.estimator = original_estimator
    return result


# --------------------------------------------------------------------------- #
# Parameter-count comparison and ablations
# --------------------------------------------------------------------------- #


def parameter_reduction(
    binary_pair: Tuple[int, int] = (3, 6),
    multiclass_task: Tuple[int, ...] = (0, 1, 3, 6, 9),
    samples_per_digit: int = 40,
    epochs: int = 20,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Text §5.3: parameter counts of QuClassi vs similarly accurate DNNs."""
    result = ExperimentResult(
        experiment_id="parameter_reduction",
        title="Parameter-count comparison at comparable accuracy",
        metadata={"epochs": epochs},
    )
    for task, label in ((binary_pair, "binary"), (multiclass_task, "multiclass")):
        data = prepare_mnist_task(task, n_components=16, samples_per_digit=samples_per_digit, seed=seed)
        quclassi = train_quclassi(data, architecture="s", epochs=epochs, seed=seed)
        quclassi_accuracy = accuracy_summary(quclassi, data)["test_accuracy"]
        dnn = train_dnn_with_budget(data, parameter_budget=1218 if label == "binary" else 1308, epochs=25, seed=seed)
        dnn_accuracy = accuracy_summary(dnn, data)["test_accuracy"]
        reduction = 100.0 * (1.0 - quclassi.num_parameters / dnn.num_parameters)
        result.add_row(
            setting=label,
            task="/".join(str(t) for t in task),
            quclassi_params=quclassi.num_parameters,
            quclassi_accuracy=quclassi_accuracy,
            dnn_params=dnn.num_parameters,
            dnn_accuracy=dnn_accuracy,
            parameter_reduction_percent=reduction,
        )
    return result


def _ablation_encoding_cell(payload) -> Dict[str, object]:
    """One encoding-ablation row: train with one data encoder."""
    encoder, label, data, epochs, seed = payload
    model = QuClassi(
        num_features=4, num_classes=3, architecture="s", encoder=encoder, seed=seed
    )
    model.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.1)
    return {
        "encoding": label,
        "qubits_per_state": model.builder.layout.state_width,
        "total_qubits": model.num_qubits,
        "parameters": model.num_parameters,
        "test_accuracy": model.score(data.x_test, data.y_test),
    }


def ablation_encoding(
    epochs: int = 15,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Ablation (§4.2): dual-dimension-per-qubit vs one-dimension-per-qubit encoding on Iris."""
    data = prepare_iris_task(seed=seed)
    result = ExperimentResult(
        experiment_id="ablation_encoding",
        title="Data-encoding ablation: 2 dims/qubit (RY+RZ) vs 1 dim/qubit (RY)",
        metadata={"epochs": epochs},
    )
    settings = [(DualAngleEncoder(), "dual_angle"), (SingleAngleEncoder(), "single_angle")]
    rows = run_cells(
        _ablation_encoding_cell,
        [(encoder, label, data, epochs, seed) for encoder, label in settings],
        keys=[("encoding", label) for _, label in settings],
    )
    for row in rows:
        result.add_row(**row)
    return result


def _ablation_gradient_cell(payload):
    """One gradient-rule-ablation curve: train with one shift rule."""
    rule, data, epochs, seed = payload
    model = QuClassi(num_features=4, num_classes=3, architecture="s", seed=seed)
    model.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.1, gradient_rule=rule)
    row = {
        "gradient_rule": rule,
        "final_loss": model.history_.final_loss,
        "test_accuracy": model.score(data.x_test, data.y_test),
    }
    return rule, model.history_.epochs, model.history_.losses, row


def ablation_gradient_rule(
    epochs: int = 15,
    seed: RandomState = 0,
) -> ExperimentResult:
    """Ablation (§4.4): the paper's epoch-scaled shift vs the fixed parameter-shift rule."""
    data = prepare_iris_task(seed=seed)
    result = ExperimentResult(
        experiment_id="ablation_gradient",
        title="Gradient-rule ablation on Iris (QC-S)",
        metadata={"epochs": epochs},
    )
    rules = ("epoch_scaled", "parameter_shift")
    outcomes = run_cells(
        _ablation_gradient_cell,
        [(rule, data, epochs, seed) for rule in rules],
        keys=[("gradient_rule", rule) for rule in rules],
    )
    for rule, epochs_axis, losses, row in outcomes:
        result.add_series(rule, epochs_axis, losses)
        result.add_row(**row)
    return result


def _ablation_shots_cell(payload) -> Dict[str, object]:
    """One shots-ablation grid point: sampled sweep at one shot count."""
    shots, builder, parameters, samples, reference, seed = payload
    estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(seed=seed), shots=shots)
    estimated = estimator.fidelity_matrix(parameters, samples).T
    return {
        "shots": "exact" if shots is None else shots,
        "mean_absolute_error": float(np.mean(np.abs(estimated - reference))),
        "max_absolute_error": float(np.max(np.abs(estimated - reference))),
    }


def ablation_swap_test_shots(
    shots_grid: Sequence[Optional[int]] = (128, 512, 2048, 8192, None),
    seed: RandomState = 0,
) -> ExperimentResult:
    """Ablation: SWAP-test fidelity estimation error vs shot count.

    Compares the sampled SWAP-test estimate against the analytic fidelity for
    a trained Iris model; ``None`` means exact (infinite-shot) probabilities.
    Each grid point runs all (class, sample) discriminator circuits as one
    batched :meth:`~repro.core.swap_test.SwapTestFidelityEstimator.fidelity_matrix`
    sweep — the workload that ``benchmarks/bench_swap_test_sweep.py`` times
    against the per-circuit loop.  The model is trained once; each grid point
    is one sweep cell with its own freshly seeded backend.
    """
    data = prepare_iris_task(seed=seed)
    model = train_quclassi(data, architecture="s", epochs=10, seed=seed)
    analytic = model.estimator
    samples = data.x_test[:10]
    reference = analytic.fidelity_matrix(model.parameters_, samples).T
    result = ExperimentResult(
        experiment_id="ablation_shots",
        title="SWAP-test fidelity estimation error vs shots",
        metadata={"num_samples": len(samples)},
    )
    rows = run_cells(
        _ablation_shots_cell,
        [
            (shots, model.builder, model.parameters_, samples, reference, seed)
            for shots in shots_grid
        ],
        keys=[("shots", "exact" if shots is None else shots) for shots in shots_grid],
    )
    for row in rows:
        result.add_row(**row)
    return result
