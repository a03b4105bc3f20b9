"""The diagnostic catalogue, ``--select`` and the docs agree, code by code.

Every code a pass can emit has a row in ``docs/static_analysis.md`` and a
"kept" verdict in its audit table.  Every selectable code (lint, VER4xx)
routes to exactly its own family; every ``VER1xx``/``VER2xx`` code is
refused with a pointer to ``--verify``.  The cut codes (REP002, the flow
analyzers' REP101/REP102/REP103, VER3xx, and the fusion certificates
VER401/402/404/410/411) and the cut CLI flags (SARIF output, the baseline
ratchet, ``--jobs``) are gone from the catalogue and the parser, and their
audit rows say so.
"""

import os
import re

import pytest

from repro.analysis.cli import _split_select, main
from repro.analysis.cost import COST_CODES
from repro.analysis.equiv import EQUIV_CODES
from repro.analysis.rules import all_rules
from repro.analysis.verify import VERIFIER_CODES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = os.path.join(REPO_ROOT, "docs", "static_analysis.md")

LINT_CODES = tuple(rule.code for rule in all_rules())
SELECTABLE = {
    **{code: "lint" for code in LINT_CODES},
    **{code: "equiv" for code in sorted(EQUIV_CODES)},
}
VERIFY_ONLY = tuple(sorted(VERIFIER_CODES)) + tuple(sorted(COST_CODES))
EVERY_CODE = ("REP000",) + tuple(SELECTABLE) + VERIFY_ONLY
#: The equivalence certificates kept today, pinned so a new or dropped code
#: shows up here as well as in the docs.
KEPT_EQUIV_CODES = ("VER403", "VER405", "VER406", "VER407")
CUT_CODES = (
    "REP002",
    "REP101",
    "REP102",
    "REP103",
    "VER301",
    "VER302",
    "VER303",
    "VER304",
    "VER401",
    "VER402",
    "VER404",
    "VER410",
    "VER411",
)

VIOLATION = "import numpy as np\nrng = np.random.default_rng()\n"


def table_rows():
    """``{first cell: remaining cells}`` for every Markdown table row."""
    rows = {}
    with open(DOCS, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("| ") and not line.startswith("| ---"):
                cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
                rows.setdefault(cells[0], []).append(cells[1:])
    return rows


def audit_verdict(code):
    """The audit table's verdict for ``code`` (its own row or its family's)."""
    rows = table_rows()
    family = code[:4] + "xx"
    for label, entries in rows.items():
        head = label.split()[0]
        if head in (code, family):
            for cells in entries:
                if cells and cells[0] in ("kept", "cut"):
                    return cells[0]
    return None


class TestEveryCodeIsCatalogued:
    def test_families_are_disjoint(self):
        families = [set(LINT_CODES), set(EQUIV_CODES)]
        families += [set(VERIFIER_CODES), set(COST_CODES)]
        assert sum(len(family) for family in families) == len(set().union(*families))

    def test_buffer_escape_check_is_a_lint_rule(self):
        assert SELECTABLE["REP104"] == "lint"

    def test_equivalence_family_is_the_kept_certificates(self):
        assert tuple(sorted(EQUIV_CODES)) == KEPT_EQUIV_CODES

    @pytest.mark.parametrize("code", EVERY_CODE)
    def test_code_has_a_docs_row_and_a_kept_verdict(self, code):
        rows = table_rows()
        # A catalogue row: the code alone in the first cell, with a contract.
        assert code in rows, f"{code} has no catalogue row in {DOCS}"
        assert any(cells and cells[0] not in ("kept", "cut") for cells in rows[code])
        assert audit_verdict(code) == "kept"


class TestSelect:
    @pytest.mark.parametrize("code", sorted(SELECTABLE))
    def test_selectable_code_routes_to_exactly_its_family(self, code):
        lint, equiv = _split_select(code.lower())
        routed = {"lint": lint, "equiv": equiv}
        for family, codes in routed.items():
            assert codes == ((code,) if family == SELECTABLE[code] else ())

    @pytest.mark.parametrize("code", sorted(SELECTABLE))
    def test_select_keeps_only_the_selected_code(self, code, tmp_path, capsys):
        # The tree violates REP001 only; selecting any other code drops it.
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "bad.py").write_text(VIOLATION)
        exit_code = main([str(tmp_path), "--select", code])
        out = capsys.readouterr().out
        assert exit_code == (1 if code == "REP001" else 0)
        assert ("REP001" in out) == (code == "REP001")

    @pytest.mark.parametrize("code", VERIFY_ONLY)
    def test_verify_only_code_is_refused_with_a_pointer_to_verify(
        self, code, tmp_path, capsys
    ):
        assert main([str(tmp_path), "--select", code]) == 2
        err = capsys.readouterr().err
        assert code in err
        assert "--verify" in err
        selectable = err.split("selectable:", 1)[1].split("(", 1)[0]
        assert code not in selectable


class TestCuts:
    @pytest.mark.parametrize("code", CUT_CODES)
    def test_cut_code_is_gone_and_its_audit_row_says_so(self, code, tmp_path, capsys):
        assert code not in EVERY_CODE
        assert main([str(tmp_path), "--select", code]) == 2
        assert code in capsys.readouterr().err
        assert audit_verdict(code) == "cut"
        # No catalogue row is left behind, only the audit row.
        assert all(cells[0] == "cut" for cells in table_rows().get(code, []))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "sarif"],
            ["--baseline", "analysis_baseline.json"],
            ["--write-baseline", "analysis_baseline.json"],
            ["--jobs", "2"],
        ],
        ids=["format-sarif", "baseline", "write-baseline", "jobs"],
    )
    def test_cut_flag_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label", ["SARIF output", "Baseline ratchet", "`--jobs` lint sharding"]
    )
    def test_cut_feature_has_a_cut_audit_row(self, label):
        assert [cells[0] for cells in table_rows()[label]] == ["cut"]

    def test_docs_keep_no_section_for_a_cut_feature(self):
        with open(DOCS, encoding="utf-8") as handle:
            headings = [line for line in handle if line.startswith("#")]
        for heading in headings:
            assert not re.search(
                r"SARIF|[Bb]aseline|--jobs|VER3|[Ff]low analy", heading
            ), heading
