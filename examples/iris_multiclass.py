"""Iris multi-class study: architectures, baselines and model persistence.

Reproduces the workflow behind the paper's Fig. 6 at example scale:

* trains QC-S, QC-SD and QC-SDE QuClassi variants on the 3-class Iris task,
* trains classical DNN baselines sized to comparable parameter budgets,
* prints an accuracy/parameter table and the per-class loss curves,
* saves the best quantum model to disk and reloads it.

Run with::

    python examples/iris_multiclass.py
"""

import tempfile

from repro.baselines import dnn_for_parameter_budget
from repro.core import QuClassi
from repro.datasets import load_iris, prepare_task
from repro.experiments import format_table


def train_quclassi_variants(data, epochs: int = 20):
    """Train one model per layer architecture and return {name: model}."""
    models = {}
    for architecture in ("s", "sd", "sde"):
        model = QuClassi(
            num_features=data.num_features,
            num_classes=data.num_classes,
            architecture=architecture,
            seed=0,
        )
        model.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.1)
        models[f"QC-{architecture.upper()}"] = model
    return models


def train_dnn_baselines(data, budgets=(12, 56, 112), epochs: int = 30):
    """Train DNN-kP baselines on exactly the same normalised data."""
    models = {}
    for budget in budgets:
        dnn = dnn_for_parameter_budget(data.num_features, data.num_classes, budget, seed=0)
        dnn.fit(data.x_train, data.y_train, epochs=epochs, learning_rate=0.1)
        models[f"DNN-{dnn.num_parameters}P"] = dnn
    return models


def main() -> None:
    data = prepare_task(load_iris(), test_fraction=0.3, rng=0)

    quantum_models = train_quclassi_variants(data)
    classical_models = train_dnn_baselines(data)

    rows = []
    for name, model in {**quantum_models, **classical_models}.items():
        rows.append(
            {
                "model": name,
                "parameters": model.num_parameters,
                "train_accuracy": model.score(data.x_train, data.y_train),
                "test_accuracy": model.score(data.x_test, data.y_test),
            }
        )
    print("\nAccuracy vs parameter count (Fig. 6b at example scale)")
    print(format_table(rows))

    best_name = max(quantum_models, key=lambda n: quantum_models[n].score(data.x_test, data.y_test))
    best = quantum_models[best_name]
    print(f"\nPer-class loss curve of {best_name} (Fig. 6a at example scale):")
    per_class = best.history_.per_class_losses()
    for class_index, class_name in enumerate(data.class_names):
        final = per_class[-1, class_index]
        print(f"  class {class_name}: first={per_class[0, class_index]:.3f} final={final:.3f}")

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        path = handle.name
    best.save(path)
    restored = QuClassi.load(path)
    assert restored.score(data.x_test, data.y_test) == best.score(data.x_test, data.y_test)
    print(f"\nsaved and reloaded {best_name} from {path}")


if __name__ == "__main__":
    main()
