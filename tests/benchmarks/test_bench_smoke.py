"""Smoke tests keeping the ``benchmarks/bench_*.py`` scripts from rotting.

The benchmark scripts are not collected by the default test run (their file
names do not match ``test_*.py``), so an API change could silently break
them.  These tests import every bench module and run the perf-benchmark
entry points at tiny size; the full-size executions are available behind the
``slow`` marker (``pytest -m slow tests/benchmarks``), which the default
suite excludes.
"""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))


def load_bench_module(name: str):
    """Import one benchmark script by path (benchmarks/ is not a package)."""
    path = BENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_smoke_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_directory_is_populated():
    assert len(BENCH_MODULES) >= 15


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports_and_exposes_an_entry_point(name):
    """Every bench script must import cleanly and define a runnable entry."""
    module = load_bench_module(name)
    entry_points = [
        attr
        for attr, value in vars(module).items()
        if callable(value) and (attr.startswith("run_") or attr.startswith("test_"))
    ]
    assert entry_points, f"benchmarks/{name}.py defines no runnable entry point"


class TestPerfBenchEntryPointsTiny:
    """Run the perf benchmarks' entry points on shrunken workloads."""

    def test_gradient_sweep(self):
        module = load_bench_module("bench_gradient_sweep")
        payload = module.run_gradient_sweep_benchmark(epochs=1)
        assert payload["workload"]["epochs"] == 1
        assert payload["max_weight_diff"] < 1e-10
        assert payload["max_epoch_loss_diff"] < 1e-10
        assert payload["batched_seconds"] > 0

    def test_swap_test_sweep(self):
        module = load_bench_module("bench_swap_test_sweep")
        module.TRAIN_EPOCHS = 1
        module.SHOTS_GRID = (64, None)
        module.REPETITIONS = 1
        payload = module.run_swap_test_sweep_benchmark()
        assert payload["exact_max_diff"] < 1e-12
        assert payload["sampled_seed_match"] is True
        assert payload["noisy_seed_match"] is True

    def test_noisy_sweep(self):
        module = load_bench_module("bench_noisy_sweep")
        module.TRAIN_EPOCHS = 1
        module.REPETITIONS = 1
        module.SAMPLE_LIMIT = 4
        payload = module.run_noisy_sweep_benchmark()
        assert payload["workload"]["num_samples"] == 4
        assert payload["seed_match"] is True
        # Whole-grid sweeps transpile one symbolic template per sweep on a
        # fresh backend: exactly one miss, no per-element lookups.
        assert payload["transpile_cache"]["misses"] == 1

    def test_grid_sweep(self):
        module = load_bench_module("bench_grid_sweep")
        module.TRAIN_EPOCHS = 1
        module.REPETITIONS = 1
        module.SHIFT_ROWS = 2
        module.SAMPLE_LIMIT = 4
        payload = module.run_iris_grid_benchmark()
        assert payload["workload"]["grid_elements"] == 8
        assert payload["sampled"]["seed_match"] is True
        assert payload["noisy"]["seed_match"] is True
        memory = module.run_grid_memory_benchmark(
            rows=2, samples=4, budget_amplitudes=2**19
        )
        assert memory["shared_prefix_steps"] > 0
        assert (
            memory["element_contractions"] < memory["element_contractions_unshared"]
        )
        assert memory["measured_peak_bytes"] > 0

    def test_program_compile(self):
        module = load_bench_module("bench_program_compile")
        module.TRAIN_EPOCHS = 1
        module.REPEAT_SWEEPS = 1
        payload_repeat = module.run_repeat_sweep_benchmark()
        assert payload_repeat["seed_match_vs_run_loop"] is True
        assert payload_repeat["noise_plans_compiled"] == 1
        assert payload_repeat["transpile_cache"]["misses"] == 1
        payload_tiling = module.run_mnist_tiling_benchmark(
            rows=2, samples=4, budget_amplitudes=2**18
        )
        assert payload_tiling["seed_match_tiled_vs_untiled"] is True
        assert payload_tiling["tiled_peak_bytes"] < payload_tiling["untiled_peak_bytes"]
        payload_schedule = module.run_schedule_benchmark()
        assert payload_schedule["matmuls"] < payload_schedule["steps"]
        assert payload_schedule["matmuls"] == payload_schedule["engine_dispatched_steps"]


class TestBenchJsonReporting:
    """The shared perf-point writer and the emitted BENCH_*.json schema."""

    def test_figure_runs_emit_valid_perf_points(self, tmp_path):
        """The conftest figure path writes schema-valid JSON perf points."""
        from repro.experiments.harness import ExperimentResult
        from repro.experiments.reporting import (
            experiment_perf_payload,
            validate_perf_payload,
            write_perf_point,
        )

        result = ExperimentResult(experiment_id="fig_test", title="smoke figure")
        result.add_series("curve", [1, 2, 3], [0.5, 0.6, 0.7])
        result.add_row(model="QC-S", test_accuracy=0.9)
        result.metadata["seed"] = 0
        payload = experiment_perf_payload(result, seconds=0.01)
        path = write_perf_point(str(tmp_path), result.experiment_id, payload)
        import json

        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert validate_perf_payload(loaded) == []
        assert loaded["benchmark"] == "fig_test"
        assert loaded["seconds"] == pytest.approx(0.01)
        assert loaded["rows"][0]["test_accuracy"] == pytest.approx(0.9)

    def test_validator_flags_broken_payloads(self):
        from repro.experiments.reporting import validate_perf_payload

        assert validate_perf_payload([]) != []
        assert validate_perf_payload({}) != []
        problems = validate_perf_payload(
            {"benchmark": "x", "recorded_at": "now", "value": float("nan")}
        )
        assert any("non-finite" in problem for problem in problems)

    def test_existing_bench_reports_validate(self):
        """Every BENCH_*.json already on disk passes the schema check."""
        import json

        from repro.experiments.reporting import validate_perf_payload

        results_dir = BENCH_DIR / "results"
        reports = sorted(results_dir.glob("BENCH_*.json"))
        assert reports, "no BENCH_*.json perf points recorded yet"
        for report in reports:
            with open(report, encoding="utf-8") as handle:
                payload = json.load(handle)
            assert validate_perf_payload(payload) == [], f"{report.name} is invalid"


@pytest.mark.slow
class TestPerfBenchFullSize:
    """Full-size benchmark runs (opt-in: ``pytest -m slow tests/benchmarks``)."""

    def test_noisy_sweep_meets_speedup_floor(self):
        module = load_bench_module("bench_noisy_sweep")
        payload = module.run_noisy_sweep_benchmark()
        assert payload["seed_match"] is True
        assert payload["speedup_vs_loop"] >= module.MIN_SPEEDUP


class TestStaticAnalysisOverBenchmarks:
    """The analysis CLI must round-trip schema-valid JSON over the tree."""

    def test_cli_json_is_schema_valid_and_clean(self):
        import json
        import os
        import subprocess
        import sys

        from repro.analysis.report import validate_findings_payload

        repo_root = BENCH_DIR.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "benchmarks", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert validate_findings_payload(payload) == []
        assert payload["summary"]["errors"] == 0

    def test_every_bench_script_reports_a_perf_point(self):
        """REP005 over benchmarks/: no silent benchmarks."""
        from repro.analysis.lint import lint_paths
        from repro.analysis.rules import select_rules

        result = lint_paths(
            [str(BENCH_DIR)], select_rules(["REP005"]), root=str(BENCH_DIR.parent)
        )
        assert result.files_checked >= 15
        assert result.diagnostics == [], "\n".join(
            d.format() for d in result.diagnostics
        )
