"""Tests for the AST contract linter (:mod:`repro.analysis.lint`).

The corpus lints small in-memory sources under crafted virtual paths —
``src/repro/...`` for library-code rules, ``benchmarks/bench_*.py`` for the
reporting rule — and asserts exact codes and line numbers.  The REP001 case
mirrors, verbatim, the seedless fallback that used to live in
``repro.quantum.measurement.counts_from_probabilities`` so the defect class
stays pinned by a regression test.
"""

import pytest

from repro.analysis.lint import (
    find_suppressions,
    lint_source,
    normalize_path,
)
from repro.analysis.rules import all_rules, select_rules

LIB = "src/repro/quantum/example.py"


def lint(source, path=LIB, rules=None):
    findings, suppressed = lint_source(source, path, rules or all_rules())
    return findings, suppressed


def codes(findings):
    return [d.code for d in findings]


# --------------------------------------------------------------------------- #
# REP001 — no seedless RNGs in library code
# --------------------------------------------------------------------------- #


class TestRep001SeedlessRng:
    def test_old_measurement_fallback_is_flagged(self):
        """Regression: the exact pre-fix line from measurement.py must flag."""
        source = (
            "import numpy as np\n"
            "def counts_from_probabilities(probabilities, shots, rng=None):\n"
            "    generator = rng if rng is not None else np.random.default_rng()\n"
        )
        findings, _ = lint(source, path="src/repro/quantum/measurement.py")
        assert codes(findings) == ["REP001"]
        assert findings[0].location.line == 3

    def test_seeded_default_rng_is_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(2022)\n"
        findings, _ = lint(source)
        assert findings == []

    def test_none_seed_is_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(None)\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP001"]

    def test_global_numpy_random_call_is_flagged(self):
        source = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP001"]

    def test_from_import_alias_is_tracked(self):
        source = "from numpy.random import default_rng\nrng = default_rng()\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP001"]

    def test_tests_are_out_of_scope(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings, _ = lint(source, path="tests/quantum/test_example.py")
        assert findings == []

    def test_current_measurement_module_is_clean(self):
        with open("src/repro/quantum/measurement.py") as handle:
            findings, _ = lint(
                handle.read(), path="src/repro/quantum/measurement.py"
            )
        assert findings == []


# --------------------------------------------------------------------------- #
# REP003 — shared caches go through utils.cache.LRUCache
# --------------------------------------------------------------------------- #


class TestRep003AdHocCaches:
    def test_module_level_cache_dict_is_flagged(self):
        source = "_PROGRAM_CACHE = {}\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP003"]

    def test_class_level_memo_is_flagged(self):
        source = (
            "class Transpiler:\n"
            "    _memo = dict()\n"
        )
        findings, _ = lint(source)
        assert codes(findings) == ["REP003"]

    def test_populated_lookup_table_is_clean(self):
        source = "GATE_CACHE = {'h': 1, 'cx': 2}\n"
        findings, _ = lint(source)
        assert findings == []

    def test_non_cache_names_are_clean(self):
        source = "_registry = {}\n"
        findings, _ = lint(source)
        assert findings == []

    def test_utils_cache_module_is_exempt(self):
        source = "_cache = {}\n"
        findings, _ = lint(source, path="src/repro/utils/cache.py")
        assert findings == []


# --------------------------------------------------------------------------- #
# REP004 — engines never construct RNGs
# --------------------------------------------------------------------------- #


class TestRep004EngineRng:
    ENGINE = "src/repro/quantum/batched.py"

    def test_even_seeded_rng_is_flagged_in_engine(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        findings, _ = lint(source, path=self.ENGINE)
        assert codes(findings) == ["REP004"]

    def test_ensure_rng_wrapper_is_flagged_in_engine(self):
        source = (
            "from repro.utils.rng import ensure_rng\n"
            "rng = ensure_rng(7)\n"
        )
        findings, _ = lint(source, path=self.ENGINE)
        assert codes(findings) == ["REP004"]

    def test_rng_parameter_use_is_clean(self):
        # REP004 only — a bare .multinomial in an engine module is now
        # (correctly) REP202 territory, covered in test_array_rules.py.
        source = "def sample(rng, n):\n    return rng.multinomial(n, [1.0])\n"
        findings, _ = lint(source, path=self.ENGINE, rules=select_rules(["REP004"]))
        assert findings == []

    def test_non_engine_library_module_allows_seeded_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        findings, _ = lint(source, path=LIB)
        assert findings == []

    def test_shipped_engines_are_clean(self):
        for module in (
            "src/repro/quantum/batched.py",
            "src/repro/quantum/batched_density.py",
            "src/repro/quantum/kernels.py",
            "src/repro/quantum/program.py",
        ):
            with open(module) as handle:
                findings, _ = lint(handle.read(), path=module)
            assert findings == [], f"{module}: {[d.format() for d in findings]}"


# --------------------------------------------------------------------------- #
# REP005 — benchmarks must report perf points
# --------------------------------------------------------------------------- #


class TestRep005BenchReporting:
    def test_silent_bench_is_flagged(self):
        source = "def test_bench_thing():\n    assert 1 + 1 == 2\n"
        findings, _ = lint(source, path="benchmarks/bench_silent.py")
        assert codes(findings) == ["REP005"]
        assert findings[0].location.line == 1

    def test_bench_using_runner_fixture_is_clean(self):
        source = (
            "def test_bench_thing(run_experiment):\n"
            "    run_experiment('x', lambda: None)\n"
        )
        findings, _ = lint(source, path="benchmarks/bench_ok.py")
        assert findings == []

    def test_bench_calling_writer_is_clean(self):
        source = (
            "from repro.experiments.reporting import write_perf_point\n"
            "def test_bench_thing():\n"
            "    write_perf_point('out.json', name='x', value=1.0)\n"
        )
        findings, _ = lint(source, path="benchmarks/bench_ok.py")
        assert findings == []

    def test_non_bench_files_are_out_of_scope(self):
        source = "def helper():\n    pass\n"
        findings, _ = lint(source, path="benchmarks/conftest.py")
        assert findings == []


# --------------------------------------------------------------------------- #
# Suppressions and malformed input
# --------------------------------------------------------------------------- #


class TestSuppressions:
    FLAGGED = "import numpy as np\nrng = np.random.default_rng()"

    def test_justified_suppression_silences_and_counts(self):
        source = (
            self.FLAGGED
            + "  # repro: noqa REP001 -- interactive helper, seeding is the caller's job\n"
        )
        findings, suppressed = lint(source)
        assert findings == []
        assert suppressed == 1

    def test_bare_suppression_is_rep000_and_does_not_suppress(self):
        source = self.FLAGGED + "  # repro: noqa REP001\n"
        findings, suppressed = lint(source)
        assert sorted(codes(findings)) == ["REP000", "REP001"]
        assert suppressed == 0

    def test_wrong_code_suppression_does_not_silence(self):
        source = self.FLAGGED + "  # repro: noqa REP003 -- not actually a cache\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP001"]

    def test_multi_code_suppression(self):
        source = (
            self.FLAGGED + "  # repro: noqa REP001, REP004 -- corpus fixture\n"
        )
        findings, suppressed = lint(source)
        assert findings == []
        assert suppressed == 1

    def test_noqa_inside_string_literal_is_ignored(self):
        source = 'EXAMPLE = "# repro: noqa REP001"\n'
        findings, suppressed = lint(source)
        assert findings == []
        assert suppressed == 0
        assert find_suppressions(source) == []

    def test_syntax_error_is_rep000(self):
        findings, _ = lint("def broken(:\n")
        assert codes(findings) == ["REP000"]

    def test_select_rules_rejects_unknown_codes(self):
        with pytest.raises(ValueError):
            select_rules(["REP999"])
        assert [r.code for r in select_rules(["REP001"])] == ["REP001"]

    def test_normalize_path_is_posix_relative(self):
        import os

        assert normalize_path(os.path.join(os.getcwd(), "src", "x.py")) == "src/x.py"


# --------------------------------------------------------------------------- #
# REP106 — no time.sleep in library code
# --------------------------------------------------------------------------- #


class TestRep106Sleep:
    #: The backend switch whose functions REP106 used to exempt; spelled in
    #: pieces so the retired name appears nowhere in the tree.
    SWITCH = "_".join(("simulate", "queue", "latency"))

    def test_time_sleep_is_flagged(self):
        source = "import time\ndef wait():\n    time.sleep(0.5)\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP106"]
        assert findings[0].location.line == 3

    def test_aliased_module_import_is_flagged(self):
        source = "import time as t\nt.sleep(1)\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP106"]

    def test_from_import_alias_is_flagged(self):
        source = "from time import sleep as snooze\nsnooze(2)\n"
        findings, _ = lint(source)
        assert codes(findings) == ["REP106"]

    def test_queue_latency_guarded_sleep_is_flagged(self):
        """The queue wait once exempted by its switch is no exception now."""
        source = (
            "import time\n"
            "class Backend:\n"
            "    def _queue_wait(self):\n"
            f"        if not self.{self.SWITCH}:\n"
            "            return\n"
            "        time.sleep(self._queue_delay())\n"
        )
        findings, _ = lint(source)
        assert codes(findings) == ["REP106"]
        assert findings[0].location.line == 6

    def test_every_sleep_in_a_file_flags(self):
        source = (
            "import time\n"
            f"def _queue_wait({self.SWITCH}):\n"
            f"    if {self.SWITCH}:\n"
            "        time.sleep(0.1)\n"
            "def retry():\n"
            "    time.sleep(1)\n"
        )
        findings, _ = lint(source)
        assert codes(findings) == ["REP106", "REP106"]
        assert sorted(finding.location.line for finding in findings) == [4, 6]

    def test_findings_come_back_in_line_order(self):
        """``ast.walk`` meets the shallower sleep first; the result is sorted."""
        source = (
            "import time\n"
            "def wait():\n"
            "    if True:\n"
            "        time.sleep(0.1)\n"
            "def retry():\n"
            "    time.sleep(1)\n"
        )
        findings, _ = lint(source)
        assert [finding.location.line for finding in findings] == [4, 6]

    def test_non_library_code_is_exempt(self):
        source = "import time\ntime.sleep(1)\n"
        findings, _ = lint(source, path="tests/test_example.py")
        assert findings == []

    #: Every way to name ``time.sleep`` the rule resolves.
    SLEEP_IMPORTS = {
        "module": ("import time\n", "time.sleep"),
        "module-alias": ("import time as clock\n", "clock.sleep"),
        "from": ("from time import sleep\n", "sleep"),
        "from-alias": ("from time import sleep as nap\n", "nap"),
    }
    SLEEP_PLACES = {
        "module": "{call}(1)\n",
        "function": "def wait():\n    {call}(1)\n",
        "method": "class Backend:\n    def wait(self):\n        {call}(1)\n",
        "nested": "def outer():\n    def wait():\n        {call}(1)\n    return wait\n",
    }

    @pytest.mark.parametrize("place", sorted(SLEEP_PLACES))
    @pytest.mark.parametrize("form", sorted(SLEEP_IMPORTS))
    def test_every_sleep_form_anywhere_is_flagged(self, form, place):
        header, call = self.SLEEP_IMPORTS[form]
        findings, _ = lint(header + self.SLEEP_PLACES[place].format(call=call))
        assert codes(findings) == ["REP106"]

    @pytest.mark.parametrize("form", sorted(SLEEP_IMPORTS))
    def test_every_sleep_form_is_allowed_outside_the_library(self, form):
        header, call = self.SLEEP_IMPORTS[form]
        findings, _ = lint(header + f"{call}(1)\n", path="examples/example.py")
        assert findings == []

    @pytest.mark.parametrize("call", ["time.time()", "time.perf_counter()", "time.monotonic()"])
    def test_other_time_functions_are_clean(self, call):
        findings, _ = lint(f"import time\nstamp = {call}\n")
        assert findings == []

    def test_other_sleep_attributes_are_clean(self):
        # Only the ``time`` module's sleep counts — e.g. a driver object's
        # ``.sleep()`` power state call is not a stall.
        source = "def park(driver):\n    driver.sleep()\n"
        findings, _ = lint(source)
        assert findings == []


# --------------------------------------------------------------------------- #
# REP104 — no raw engine buffer stored into a cache
# --------------------------------------------------------------------------- #


class TestRep104BufferEscape:
    def lint_rep104(self, source):
        findings, _ = lint(source, path="src/repro/escape.py", rules=select_rules(["REP104"]))
        return findings

    def test_put_of_raw_amplitudes_is_flagged(self):
        source = """\
def memoise(cache, key, state):
    cache.put(key, state._amplitudes)
"""
        assert codes(self.lint_rep104(source)) == ["REP104"]

    def test_cache_subscript_store_of_tainted_name_is_flagged(self):
        source = """\
def memoise(self, key, state):
    raw = state._matrices
    self._cache[key] = raw
"""
        findings = self.lint_rep104(source)
        assert codes(findings) == ["REP104"]
        assert findings[0].location.line == 3

    def test_copy_breaks_the_taint(self):
        source = """\
def memoise(cache, key, state):
    cache.put(key, state._amplitudes.copy())
"""
        assert codes(self.lint_rep104(source)) == []

    def test_non_cache_store_is_ignored(self):
        source = """\
def collect(out, key, state):
    out[key] = state._amplitudes
"""
        assert codes(self.lint_rep104(source)) == []

    #: The rule's vocabulary: every engine buffer into every cache sink.
    BUFFERS = ("_amplitudes", "_matrices", "_spare")
    SINKS = {
        "put": "    cache.put(key, {value})\n",
        "cache-subscript": "    cache[key] = {value}\n",
        "attribute-cache-subscript": "    self._program_cache[key] = {value}\n",
        "memo-subscript": "    memo[key] = {value}\n",
        "attribute-memo-subscript": "    self._state_memo[key] = {value}\n",
    }

    def sink_source(self, sink, value):
        return "def memoise(self, cache, memo, key, state):\n" + self.SINKS[sink].format(
            value=value
        )

    @pytest.mark.parametrize("sink", sorted(SINKS))
    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_every_buffer_into_every_sink_is_flagged(self, buffer, sink):
        findings = self.lint_rep104(self.sink_source(sink, f"state.{buffer}"))
        assert codes(findings) == ["REP104"]
        assert findings[0].location.line == 2

    @pytest.mark.parametrize("sink", sorted(SINKS))
    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_every_copied_buffer_into_every_sink_is_clean(self, buffer, sink):
        source = self.sink_source(sink, f"state.{buffer}.copy()")
        assert codes(self.lint_rep104(source)) == []

    def test_subscripted_buffer_read_is_flagged(self):
        source = "def memoise(cache, key, state):\n    cache.put(key, state._amplitudes[0])\n"
        assert codes(self.lint_rep104(source)) == ["REP104"]

    def test_annotated_local_binding_is_tainted(self):
        source = (
            "def memoise(cache, key, state):\n"
            "    raw: object = state._spare\n"
            "    cache.put(key, raw)\n"
        )
        findings = self.lint_rep104(source)
        assert codes(findings) == ["REP104"]
        assert findings[0].location.line == 3

    def test_copied_local_binding_is_clean(self):
        source = (
            "def memoise(cache, key, state):\n"
            "    raw = state._matrices.copy()\n"
            "    cache.put(key, raw)\n"
        )
        assert codes(self.lint_rep104(source)) == []

    def test_nested_function_store_is_reported_once(self):
        source = (
            "def outer(cache, state):\n"
            "    def inner(key):\n"
            "        cache.put(key, state._amplitudes)\n"
            "    return inner\n"
        )
        findings = self.lint_rep104(source)
        assert codes(findings) == ["REP104"]
        assert findings[0].location.line == 3

    def test_async_function_is_checked(self):
        source = "async def memoise(cache, key, state):\n    cache.put(key, state._matrices)\n"
        assert codes(self.lint_rep104(source)) == ["REP104"]

    def test_module_level_store_is_out_of_scope(self):
        source = "import engine\ncache = {}\ncache[0] = engine.state._amplitudes\n"
        assert codes(self.lint_rep104(source)) == []

    def test_other_private_attributes_are_not_buffers(self):
        source = "def memoise(cache, key, state):\n    cache.put(key, state._data)\n"
        assert codes(self.lint_rep104(source)) == []

    def test_justified_noqa_suppresses_and_is_counted(self):
        source = (
            "def memoise(cache, key, state):\n"
            "    cache.put(key, state._amplitudes)  # repro: noqa REP104 -- fixture\n"
        )
        findings, suppressed = lint(
            source, path="src/repro/escape.py", rules=select_rules(["REP104"])
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------------- #
# Suppressions on multi-line statements
# --------------------------------------------------------------------------- #


class TestMultiLineSuppressions:
    """A noqa anywhere on a wrapped statement covers the whole statement.

    Diagnostics anchor at a statement's *first* line, but a formatter is
    free to push the trailing comment onto the closing-paren line — the
    suppression must still land.  Regression for the old per-line index.
    """

    WRAPPED = (
        "import numpy as np\n"
        "def helper():\n"
        "    rng = np.random.default_rng(\n"
        "        None,\n"
        "    )  # repro: noqa REP001 -- interactive helper, caller seeds\n"
        "    return rng\n"
    )

    def test_noqa_on_closing_line_suppresses(self):
        findings, suppressed = lint(self.WRAPPED)
        assert findings == []
        assert suppressed == 1

    def test_noqa_on_first_line_still_works(self):
        source = (
            "import numpy as np\n"
            "def helper():\n"
            "    rng = np.random.default_rng(  # repro: noqa REP001 -- caller seeds\n"
            "        None,\n"
            "    )\n"
            "    return rng\n"
        )
        findings, suppressed = lint(source)
        assert findings == []
        assert suppressed == 1

    def test_without_noqa_the_wrapped_call_still_flags(self):
        source = self.WRAPPED.replace(
            "  # repro: noqa REP001 -- interactive helper, caller seeds", ""
        )
        findings, _ = lint(source)
        assert codes(findings) == ["REP001"]
        assert findings[0].location.line == 3

    def test_bare_noqa_on_wrapped_statement_is_still_rep000(self):
        source = self.WRAPPED.replace(" -- interactive helper, caller seeds", "")
        findings, suppressed = lint(source)
        assert sorted(codes(findings)) == ["REP000", "REP001"]
        assert suppressed == 0

    def test_body_noqa_does_not_blanket_the_enclosing_def(self):
        # The extent of a compound statement is its *header* only — a
        # justified noqa inside a function body must not swallow findings
        # on sibling lines.
        source = (
            "import numpy as np\n"
            "def helper():\n"
            "    a = np.random.default_rng(None)  # repro: noqa REP001 -- fixture\n"
            "    b = np.random.default_rng(None)\n"
            "    return a, b\n"
        )
        findings, suppressed = lint(source)
        assert codes(findings) == ["REP001"]
        assert findings[0].location.line == 4
        assert suppressed == 1
