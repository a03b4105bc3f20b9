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
        # Lint and equivalence-certificate codes are selectable; the message
        # says why VER1xx/VER2xx are not.  The cut flow codes are gone.
        for code in ("REP001", "REP202", "REP104", "VER403", "VER406"):
            assert code in err
        for code in ("REP101", "REP102"):
            assert code not in err
        assert "--verify" in err

    def test_timings_section_is_schema_valid(self, tmp_path, capsys):
        write(tmp_path, "src/repro/bad.py", VIOLATION)
        main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert validate_findings_payload(payload) == []
        timings = payload["timings"]
        assert set(timings) == {"lint_seconds"}
        assert timings["lint_seconds"] >= 0.0

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


class TestSelectBufferEscape:
    """``--select REP104`` runs the buffer-escape lint rule alone."""

    FIXTURES = {
        "put-of-raw-amplitudes": (
            "def memoise(cache, key, state):\n"
            "    cache.put(key, state._amplitudes)\n",
            [2],
        ),
        "tainted-name-into-cache": (
            "def memoise(self, key, state):\n"
            "    raw = state._matrices\n"
            "    self._cache[key] = raw\n",
            [3],
        ),
        "copy-breaks-the-taint": (
            "def memoise(cache, key, state):\n"
            "    cache.put(key, state._amplitudes.copy())\n",
            [],
        ),
        "non-cache-store": (
            "def collect(out, key, state):\n"
            "    out[key] = state._amplitudes\n",
            [],
        ),
    }

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_select_rep104_flags_exactly_the_escapes(self, fixture, tmp_path, capsys):
        source, lines = self.FIXTURES[fixture]
        # A seedless RNG in the same tree shows that only REP104 ran.
        write(tmp_path, "src/repro/escape.py", VIOLATION + source)
        exit_code = main([str(tmp_path), "--select", "REP104", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        offset = VIOLATION.count("\n")
        assert exit_code == (1 if lines else 0)
        assert [finding["code"] for finding in payload["findings"]] == ["REP104"] * len(lines)
        assert [finding["line"] for finding in payload["findings"]] == [
            line + offset for line in lines
        ]


class TestSuppressionAccounting:
    """Satellite: per-code suppression counts survive the JSON round-trip."""

    FIXTURE = {
        # Lint-family suppression (REP001).
        "src/repro/seeded.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa REP001 -- corpus\n"
        ),
        # A second lint rule's suppression (REP104): a raw engine buffer
        # stored into a cache.
        "src/repro/escape.py": (
            "def memoise(cache, key, state):\n"
            "    cache.put(key, state._amplitudes)  # repro: noqa REP104 -- corpus\n"
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

    def test_both_codes_counted_in_json_summary(self, tmp_path):
        proc = self.run_cli(self.write_fixture(tmp_path), "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert validate_findings_payload(payload) == []
        summary = payload["summary"]
        assert summary["suppressed_by_code"] == {"REP001": 1, "REP104": 1}
        assert summary["suppressed"] == 2
        assert payload["findings"] == []

    def test_select_narrows_the_accounting_to_that_code(self, tmp_path):
        target = self.write_fixture(tmp_path)
        proc = self.run_cli(target, "--select", "REP104", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = json.loads(proc.stdout)["summary"]
        assert summary["suppressed_by_code"] == {"REP104": 1}
        assert summary["suppressed"] == 1

    def test_shipped_tree_accounts_its_own_suppressions(self):
        proc = self.run_cli("src", "benchmarks", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        # The shipped tree is clean without a single suppression.
        assert payload["findings"] == []
        assert payload["summary"]["suppressed_by_code"] == {}
        assert payload["summary"]["suppressed"] == 0

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
