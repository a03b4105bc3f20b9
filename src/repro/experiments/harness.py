"""Experiment harness: result containers and shared run helpers.

Every figure-reproduction function in :mod:`repro.experiments.figures`
returns an :class:`ExperimentResult` — a named collection of series (curves)
and rows (table entries) plus free-form metadata — which the benchmarks print
through :mod:`repro.experiments.reporting` and EXPERIMENTS.md summarises.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import DNNClassifier, dnn_for_parameter_budget
from repro.core import QuClassi
from repro.datasets import PreparedData
from repro.exceptions import ValidationError
from repro.utils.rng import RandomState


@dataclasses.dataclass
class Series:
    """A named 1-D curve (e.g. loss vs epoch for one configuration)."""

    name: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series '{self.name}' has mismatched x/y lengths")

    @property
    def final(self) -> float:
        """Last y value (e.g. final-epoch accuracy)."""
        return self.y[-1]


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of reproducing one figure or table.

    Attributes
    ----------
    experiment_id:
        Paper anchor, e.g. ``"fig9"`` or ``"section5.4_ionq"``.
    title:
        Human-readable description.
    series:
        Curves (for line plots such as loss vs epoch).
    rows:
        Table rows (for bar plots such as per-task accuracies); each row maps
        column name to value.
    metadata:
        Anything else worth recording (sample counts, seeds, runtimes).
    """

    experiment_id: str
    title: str
    series: List[Series] = dataclasses.field(default_factory=list)
    rows: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    def add_series(self, name: str, x: Sequence[float], y: Sequence[float]) -> None:
        self.series.append(Series(name=name, x=list(map(float, x)), y=list(map(float, y))))

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def series_by_name(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in experiment {self.experiment_id}")

    def column(self, name: str) -> List[object]:
        """Values of one column across every row."""
        return [row.get(name) for row in self.rows]


@dataclasses.dataclass
class TimedRun:
    """Wraps a value with the wall-clock time it took to produce."""

    value: object
    seconds: float


def timed(func, *args, **kwargs) -> TimedRun:
    """Call ``func`` and measure its wall-clock duration.

    Failures propagate with their full context intact: the original
    exception (and its ``__cause__`` chain and notes, e.g. the failing
    sweep cell that :func:`run_cells` names) is re-raised as-is, annotated
    with how long the call ran before dying.
    """
    start = time.perf_counter()
    try:
        value = func(*args, **kwargs)
    except Exception as error:
        seconds = time.perf_counter() - start
        name = getattr(func, "__name__", repr(func))
        error.add_note(f"timed: {name} failed after {seconds:.3f}s")
        raise
    return TimedRun(value=value, seconds=time.perf_counter() - start)


# --------------------------------------------------------------------------- #
# Sweep-cell execution
# --------------------------------------------------------------------------- #


def run_cells(
    cell_fn,
    payloads: Sequence[object],
    keys: Optional[Sequence[tuple]] = None,
) -> List[object]:
    """Run one sweep-cell function over every payload, in payload order.

    The unit the figure sweeps iterate over: ``cell_fn(payload)`` computes
    one (backend, class, setting) cell — one site's training run, one
    (digit-pair, architecture) column, one shots grid point.  Every cell
    builds its own backends from seeds inside the cell, so a cell's result
    does not depend on the cells run before it.

    A failing cell stops the sweep: its own exception propagates, with a
    note naming the cell's index and key (``keys[i]``, or ``("cell", i)``).
    """
    payloads = list(payloads)
    if keys is None:
        keys = [("cell", index) for index in range(len(payloads))]
    elif len(keys) != len(payloads):
        raise ValidationError(f"got {len(keys)} keys for {len(payloads)} payloads")
    results = []
    for index, (key, payload) in enumerate(zip(keys, payloads)):
        try:
            results.append(cell_fn(payload))
        except Exception as error:
            error.add_note(f"sweep cell {index} {key!r} failed")
            raise
    return results


# --------------------------------------------------------------------------- #
# Shared model-training helpers
# --------------------------------------------------------------------------- #


def train_quclassi(
    data: PreparedData,
    architecture: str = "s",
    epochs: int = 15,
    learning_rate: float = 0.1,
    seed: RandomState = 0,
    **fit_kwargs,
) -> QuClassi:
    """Train a QuClassi model on a prepared task with the library defaults.

    The default minibatch size of 8 with learning rate 0.1 is the
    computationally cheaper equivalent of the paper's per-sample updates at
    learning rate 0.01 (see :mod:`repro.core.trainer`).
    """
    model = QuClassi(
        num_features=data.num_features,
        num_classes=data.num_classes,
        architecture=architecture,
        seed=seed,
    )
    model.fit(
        data.x_train,
        data.y_train,
        epochs=epochs,
        learning_rate=learning_rate,
        validation_data=(data.x_test, data.y_test),
        **fit_kwargs,
    )
    return model


def train_dnn_with_budget(
    data: PreparedData,
    parameter_budget: int,
    epochs: int = 25,
    learning_rate: float = 0.1,
    seed: RandomState = 0,
) -> DNNClassifier:
    """Train a ``DNN-kP``-style baseline sized to ``parameter_budget``."""
    model = dnn_for_parameter_budget(
        num_features=data.num_features,
        num_classes=data.num_classes,
        parameter_budget=parameter_budget,
        seed=seed,
    )
    model.fit(
        data.x_train,
        data.y_train,
        epochs=epochs,
        learning_rate=learning_rate,
        validation_data=(data.x_test, data.y_test),
    )
    return model


def accuracy_summary(model, data: PreparedData) -> Dict[str, float]:
    """Train/test accuracy pair for any model exposing ``score``."""
    return {
        "train_accuracy": float(model.score(data.x_train, data.y_train)),
        "test_accuracy": float(model.score(data.x_test, data.y_test)),
    }
