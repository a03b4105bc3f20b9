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
    exception (and its ``__cause__`` chain — e.g. a
    :class:`~repro.parallel.ShardError` naming the failing (class index,
    cell key) of an executor submission) is re-raised as-is, annotated with
    how long the call ran before dying.  An earlier version re-raised
    through a bare wrapper that dropped the worker exception's context,
    which made sharded sweep failures unattributable.
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


def _run_sweep_cell(shard):
    """Module-level shard trampoline.

    REP101's entry-point finder (``repro.analysis.flow.entrypoints``) only
    sees statically resolvable functions, so the shard body is a named
    function rather than a lambda or closure.
    """
    cell_fn, payload = shard.payload
    return cell_fn(payload)


def run_cells(
    cell_fn,
    payloads: Sequence[object],
    keys: Optional[Sequence[tuple]] = None,
    executor=None,
) -> List[object]:
    """Run one sweep-cell function over every payload, optionally sharded.

    The unit the figure sweeps fan out over: ``cell_fn(payload)`` computes
    one (backend, class, setting) cell — one site's training run, one
    (digit-pair, architecture) column, one shots grid point.  ``executor``
    is a :class:`~repro.parallel.ShardExecutor` (or a strategy string);
    ``None`` runs the cells serially in plan order.  Results always come
    back in payload order, and every cell must construct its own backends
    from specs/seeds inside the cell so results cannot depend on the
    strategy (this is what keeps sharded figure sweeps bit-identical to
    serial ones).  ``cell_fn`` should be a module-level function: the flow
    analyzers check what it can reach for thread-shard races only when they
    can resolve it statically.

    A failing cell aborts the sweep fast, raising a
    :class:`~repro.parallel.ShardError` that names the cell's key.
    """
    from repro.parallel import ShardExecutor, ShardPlan

    plan = ShardPlan.from_items(
        [(cell_fn, payload) for payload in payloads], keys=keys
    )
    if executor is None:
        executor = ShardExecutor("serial")
    elif not isinstance(executor, ShardExecutor):
        executor = ShardExecutor(executor)
    return executor.map(_run_sweep_cell, plan)


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
