"""Tests for ``python -m repro.analysis`` (:mod:`repro.analysis.cli`)."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.cli import main
from repro.analysis.report import validate_findings_payload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


VIOLATION = "import numpy as np\nrng = np.random.default_rng()\n"


class TestMainInProcess:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "src/ok.py", "X = 1\n")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        target = write(tmp_path, "src/repro/bad.py", VIOLATION)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert ":2:" in out  # line anchor of the seedless call
        assert os.path.basename(target) in out

    def test_json_payload_is_schema_valid(self, tmp_path, capsys):
        write(tmp_path, "src/repro/bad.py", VIOLATION)
        exit_code = main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert validate_findings_payload(payload) == []
        assert payload["summary"]["errors"] == 1
        codes = [finding["code"] for finding in payload["findings"]]
        assert codes == ["REP001"]

    def test_select_restricts_rules(self, tmp_path, capsys):
        write(tmp_path, "src/repro/bad.py", VIOLATION)
        assert main([str(tmp_path), "--select", "REP005"]) == 0
        capsys.readouterr()

    def test_unknown_select_code_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path), "--select", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_unknown_select_code_lists_every_selectable_family(
        self, tmp_path, capsys
    ):
        assert main([str(tmp_path), "--select", "FOO1"]) == 2
        err = capsys.readouterr().err
        # Lint, flow, and equivalence-certificate codes are all selectable;
        # the message says why VER1xx/VER2xx are not.
        for code in ("REP001", "REP202", "REP101", "REP104", "VER403", "VER406"):
            assert code in err
        assert "--verify" in err

    def test_timings_section_is_schema_valid(self, tmp_path, capsys):
        write(tmp_path, "src/repro/bad.py", VIOLATION)
        main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert validate_findings_payload(payload) == []
        timings = payload["timings"]
        for key in ("lint_seconds", "flow_seconds"):
            assert key in timings and timings[key] >= 0.0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_warning_only_findings_exit_zero(self, tmp_path, capsys):
        # Suppressed finding -> warning-free, error-free output, still counted.
        write(
            tmp_path,
            "src/repro/bad.py",
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa REP001 -- CLI corpus\n",
        )
        assert main([str(tmp_path)]) == 0
        assert "1 suppressed" in capsys.readouterr().out


class TestModuleEntryPoint:
    def run_cli(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_shipped_tree_is_clean(self):
        proc = self.run_cli("src", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_round_trip_over_shipped_tree(self):
        proc = self.run_cli("src", "benchmarks", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert validate_findings_payload(payload) == []
        assert payload["tool"] == "repro.analysis"
        assert payload["files_checked"] > 50
        assert payload["summary"]["errors"] == 0


class TestSuppressionAccounting:
    """Satellite: per-code suppression counts survive the JSON round-trip."""

    FIXTURE = {
        # Lint-family suppression (REP001).
        "src/repro/seeded.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa REP001 -- corpus\n"
        ),
        # Flow-family suppression (REP101): shard-reachable shared write.
        "src/repro/sharded.py": (
            "counts = {}\n"
            "def worker(item):\n"
            "    counts[item] = 1  # repro: noqa REP101 -- corpus\n"
            "def run(executor, items):\n"
            "    executor.map(worker, items)\n"
        ),
    }

    def write_fixture(self, tmp_path):
        for name, source in self.FIXTURE.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return str(tmp_path)

    def run_cli(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_both_families_counted_in_json_summary(self, tmp_path):
        proc = self.run_cli(self.write_fixture(tmp_path), "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert validate_findings_payload(payload) == []
        summary = payload["summary"]
        assert summary["suppressed_by_code"] == {"REP001": 1, "REP101": 1}
        assert summary["suppressed"] == 2
        assert payload["findings"] == []

    def test_select_narrows_the_accounting_to_that_family(self, tmp_path):
        target = self.write_fixture(tmp_path)
        proc = self.run_cli(target, "--select", "REP101", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = json.loads(proc.stdout)["summary"]
        assert summary["suppressed_by_code"] == {"REP101": 1}
        assert summary["suppressed"] == 1

    def test_shipped_tree_accounts_its_own_suppressions(self):
        proc = self.run_cli("src", "benchmarks", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        by_code = payload["summary"]["suppressed_by_code"]
        # The executor/trainer/harness state the flow pass cannot prove safe
        # is suppressed inline with justifications, and every one is counted.
        assert by_code.get("REP101", 0) >= 10
        assert payload["summary"]["suppressed"] == sum(by_code.values())

    def test_verify_adds_schema_valid_cost_section(self):
        proc = self.run_cli("src", "--verify", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert validate_findings_payload(payload) == []
        cost = payload["cost"]
        assert len(cost) == 8
        engines = {entry["engine"] for entry in cost}
        assert engines == {"statevector", "density"}
        assert all(entry["peak_bytes"] > 0 for entry in cost)
