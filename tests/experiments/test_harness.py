"""Tests for the experiment harness containers and helpers."""

import numpy as np
import pytest

from repro.datasets import load_iris, prepare_task
from repro.exceptions import TrainingError
from repro.experiments.harness import (
    ExperimentResult,
    Series,
    accuracy_summary,
    timed,
    train_dnn_with_budget,
    train_quclassi,
)


def _square_cell(payload):
    return payload * payload


def _failing_cell(payload):
    if payload == 1:
        raise ValueError("bad cell")
    return payload


def _site_cell(site):
    if site == "ibmq_rome":
        raise RuntimeError("queue rejected the job")
    return site.upper()


class TestSeries:
    def test_final_value(self):
        assert Series("loss", [1, 2, 3], [0.9, 0.5, 0.2]).final == 0.2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("loss", [1, 2], [0.9])


class TestExperimentResult:
    def test_add_and_lookup_series(self):
        result = ExperimentResult("figX", "demo")
        result.add_series("a", [1, 2], [0.1, 0.2])
        assert result.series_by_name("a").y == [0.1, 0.2]
        with pytest.raises(KeyError):
            result.series_by_name("missing")

    def test_rows_and_columns(self):
        result = ExperimentResult("figX", "demo")
        result.add_row(task="1/5", accuracy=0.9)
        result.add_row(task="3/8", accuracy=0.8)
        assert result.column("task") == ["1/5", "3/8"]
        assert result.column("accuracy") == [0.9, 0.8]

    def test_missing_column_values_are_none(self):
        result = ExperimentResult("figX", "demo")
        result.add_row(a=1)
        assert result.column("b") == [None]


class TestTimed:
    def test_returns_value_and_duration(self):
        run = timed(sum, [1, 2, 3])
        assert run.value == 6
        assert run.seconds >= 0.0

    def test_failure_preserves_exception_and_context(self):
        """A worker-raised error must re-raise intact, with its cause chain."""

        def explode():
            try:
                raise KeyError("inner")
            except KeyError as error:
                raise RuntimeError("outer") from error

        with pytest.raises(RuntimeError) as excinfo:
            timed(explode)
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert any("explode" in note for note in excinfo.value.__notes__)

    def test_cell_failure_keeps_its_type_and_cell_note(self):
        """A cell failure inside timed() keeps its type and both notes."""
        from repro.experiments.harness import run_cells

        def bad_cell(payload):
            raise ValueError(f"bad payload {payload}")

        with pytest.raises(ValueError, match="bad payload x") as excinfo:
            timed(run_cells, bad_cell, ["x"], keys=[("cell", "x")])
        notes = excinfo.value.__notes__
        assert notes[0] == "sweep cell 0 ('cell', 'x') failed"
        assert notes[1].startswith("timed: run_cells failed after ")


class TestRunCells:
    def test_results_in_payload_order(self):
        from repro.experiments.harness import run_cells

        assert run_cells(_square_cell, [3, 1, 2]) == [9, 1, 4]

    def test_failing_cell_names_its_key(self):
        from repro.experiments.harness import run_cells

        with pytest.raises(ValueError, match="bad cell") as excinfo:
            run_cells(_failing_cell, [0, 1], keys=[("site", "a"), ("site", "b")])
        assert excinfo.value.__notes__ == ["sweep cell 1 ('site', 'b') failed"]

    def test_failure_stops_the_sweep_and_keeps_the_original_error(self):
        from repro.experiments.harness import run_cells

        seen = []

        def cell(site):
            seen.append(site)
            return _site_cell(site)

        sites = ["ibmq_london", "ibmq_rome", "ibmq_melbourne"]
        with pytest.raises(RuntimeError) as excinfo:
            run_cells(cell, sites, keys=[("backend", site) for site in sites])
        error = excinfo.value
        assert type(error) is RuntimeError
        assert str(error) == "queue rejected the job"
        assert error.__notes__ == ["sweep cell 1 ('backend', 'ibmq_rome') failed"]
        assert seen == ["ibmq_london", "ibmq_rome"]

    def test_default_keys_are_cell_indices(self):
        from repro.experiments.harness import run_cells

        with pytest.raises(ValueError) as excinfo:
            run_cells(_failing_cell, [0, 1])
        assert excinfo.value.__notes__ == ["sweep cell 1 ('cell', 1) failed"]

    @pytest.mark.parametrize(
        "error", [ValueError("v"), KeyError("k"), RuntimeError("r"), TrainingError("t")],
        ids=lambda error: type(error).__name__,
    )
    def test_every_exception_type_propagates_unwrapped(self, error):
        from repro.experiments.harness import run_cells

        def cell(payload):
            raise error

        with pytest.raises(type(error)) as excinfo:
            run_cells(cell, ["only"], keys=[("site", "only")])
        assert excinfo.value is error
        assert error.__notes__ == ["sweep cell 0 ('site', 'only') failed"]

    def test_empty_sweep_returns_no_results(self):
        from repro.experiments.harness import run_cells

        assert run_cells(_square_cell, []) == []

    def test_payloads_may_be_any_iterable(self):
        from repro.experiments.harness import run_cells

        assert run_cells(_square_cell, (n for n in (2, 3))) == [4, 9]

    def test_fig6b_sweep_repeats_exactly(self):
        """A figure sweep's cells seed their own models: reruns match row for row."""
        from repro.experiments import fig6b_iris_accuracy

        def sweep():
            return fig6b_iris_accuracy(architectures=("s", "sd"), dnn_budgets=(56,), epochs=2)

        first, second = sweep(), sweep()
        assert [row["model"] for row in first.rows] == ["QC-S", "QC-SD", "DNN-59P"]
        assert first.rows == second.rows

    def test_key_count_mismatch_is_rejected(self):
        from repro.exceptions import ValidationError
        from repro.experiments.harness import run_cells

        with pytest.raises(ValidationError, match="got 1 keys for 2 payloads"):
            run_cells(_square_cell, [1, 2], keys=[("cell", "a")])


class TestTrainingHelpers:
    @pytest.fixture(scope="class")
    def iris_data(self):
        return prepare_task(load_iris(), samples_per_class=15, rng=0)

    def test_train_quclassi_returns_fitted_model(self, iris_data):
        model = train_quclassi(iris_data, epochs=3, seed=0)
        assert model.history_ is not None
        summary = accuracy_summary(model, iris_data)
        assert 0.0 <= summary["test_accuracy"] <= 1.0

    def test_train_dnn_with_budget(self, iris_data):
        model = train_dnn_with_budget(iris_data, parameter_budget=56, epochs=10, seed=0)
        assert abs(model.num_parameters - 56) < 10
        assert 0.0 <= model.score(iris_data.x_test, iris_data.y_test) <= 1.0
