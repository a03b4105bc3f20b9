"""Tests for the cross-module flow analyzers (:mod:`repro.analysis.flow`).

The corpus analyzes small in-memory projects — multiple virtual files under
``src/repro/...`` — and asserts exact codes and line anchors, mirroring the
linter-corpus idiom of ``test_lint.py``.  The REP102 class includes, nearly
verbatim, the pre-fix trainer pattern from PR 4 (one ``self.rng`` threaded
into every per-class submission) so that defect class stays pinned by a
regression test the analyzer must keep catching.
"""

import pytest

from repro.analysis.flow import (
    FLOW_CODES,
    analyze_sources,
    find_entry_points,
)
from repro.analysis.flow.graph import Project


def analyze(*sources, codes=None):
    """analyze_sources over (path, source) pairs given as alternating args."""
    pairs = [(sources[i], sources[i + 1]) for i in range(0, len(sources), 2)]
    return analyze_sources(pairs, codes)


def codes_of(result):
    return [d.code for d in result.diagnostics]


def lines_of(result):
    return [d.location.line for d in result.diagnostics]


# --------------------------------------------------------------------------- #
# Entry-point detection
# --------------------------------------------------------------------------- #


FANOUT = '''\
def worker(shard):
    return shard

def cell(spec):
    return spec

def run(executor, shards):
    return list(executor.map(worker, shards))

def run_one(executor, shard):
    return executor.submit(worker, shard)

def figures(run_cells, specs):
    return run_cells(cell, specs)
'''


class TestEntryPoints:
    def test_map_submit_and_run_cells_first_args_are_entry_points(self):
        project = Project.from_sources([("src/repro/fanout.py", FANOUT)])
        points = find_entry_points(project)
        names = {ep.qualname for ep in points}
        assert "repro.fanout.worker" in names
        assert "repro.fanout.cell" in names

    def test_real_tree_entry_points_include_trainer_and_harness(self):
        """Structural detection over the shipped tree (no hard-coded seeds)."""
        import os

        from repro.analysis.flow import analyze_paths

        repo = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        result = analyze_paths([os.path.join(repo, "src")], root=repo)
        names = {ep.qualname for ep in result.entry_points}
        assert any(name.endswith("._run_class_shard") for name in names)
        assert any(name.endswith("._run_sweep_cell") for name in names)


# --------------------------------------------------------------------------- #
# REP101 — shard-reachable shared-state writes
# --------------------------------------------------------------------------- #


RACE = '''\
counts = {}

class Tally:
    def __init__(self):
        self.total = 0

    def bump(self):
        self.total += 1

def worker(shard, tally):
    tally.bump()
    counts[shard] = 1
    return shard

def run(executor, shards, tally):
    return list(executor.map(worker, shards))
'''


class TestRep101SharedState:
    def test_attribute_rmw_and_module_dict_store_are_flagged(self):
        result = analyze("src/repro/race.py", RACE, codes=["REP101"])
        assert codes_of(result) == ["REP101", "REP101"]
        # self.total += 1 inside Tally.bump, counts[shard] = 1 inside worker
        assert sorted(lines_of(result)) == [8, 12]

    def test_lock_guarded_write_is_clean(self):
        source = RACE.replace(
            "    def bump(self):\n        self.total += 1\n",
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.total += 1\n",
        ).replace("    counts[shard] = 1\n", "")
        result = analyze("src/repro/race.py", source, codes=["REP101"])
        assert codes_of(result) == []

    def test_thread_safe_annotation_exempts_the_class(self):
        source = RACE.replace(
            "class Tally:\n",
            "class Tally:\n    __thread_safe__ = True\n",
        ).replace("    counts[shard] = 1\n", "")
        result = analyze("src/repro/race.py", source, codes=["REP101"])
        assert codes_of(result) == []

    def test_unreachable_write_is_not_flagged(self):
        """The same write outside the shard-reachable region stays silent."""
        source = RACE.replace(
            "def run(executor, shards, tally):\n"
            "    return list(executor.map(worker, shards))\n",
            "def run(shards, tally):\n"
            "    return [worker(s, tally) for s in shards]\n",
        )
        result = analyze("src/repro/race.py", source, codes=["REP101"])
        assert codes_of(result) == []

    def test_worker_local_object_writes_are_skipped(self):
        source = '''\
def worker(shard):
    acc = Accumulator()
    acc.total = shard
    return acc.total

class Accumulator:
    def __init__(self):
        self.total = 0

def run(executor, shards):
    return list(executor.map(worker, shards))
'''
        result = analyze("src/repro/local.py", source, codes=["REP101"])
        # Accumulator.__init__ initialises self.total, but acc is built inside
        # the shard body, so the worker's write to it is local by construction.
        assert [d.location.line for d in result.diagnostics if d.code == "REP101"] == []

    def test_cross_module_reachability(self):
        """The race is found even when the write lives two modules away."""
        entry = '''\
from repro.helpers import step

def worker(shard):
    return step(shard)

def run(executor, shards):
    return list(executor.map(worker, shards))
'''
        helper = '''\
from repro.state import record

def step(shard):
    return record(shard)
'''
        state = '''\
seen = []

def record(shard):
    seen.append(shard)
    return shard
'''
        result = analyze(
            "src/repro/entry.py", entry,
            "src/repro/helpers.py", helper,
            "src/repro/state.py", state,
            codes=["REP101"],
        )
        # seen.append(...) is an attribute call, not a write statement the
        # dataflow pass models; the module-global store variant must flag.
        state_store = state.replace(
            "seen = []\n\ndef record(shard):\n    seen.append(shard)\n",
            "seen = {}\n\ndef record(shard):\n    seen[shard] = True\n",
        )
        result = analyze(
            "src/repro/entry.py", entry,
            "src/repro/helpers.py", helper,
            "src/repro/state.py", state_store,
            codes=["REP101"],
        )
        assert codes_of(result) == ["REP101"]
        assert result.diagnostics[0].location.file == "src/repro/state.py"

    def test_noqa_suppression_is_counted_per_code(self):
        source = RACE.replace(
            "        self.total += 1",
            "        self.total += 1  # repro: noqa REP101 -- corpus fixture",
        ).replace(
            "    counts[shard] = 1",
            "    counts[shard] = 1  # repro: noqa REP101 -- corpus fixture",
        )
        result = analyze("src/repro/race.py", source, codes=["REP101"])
        assert codes_of(result) == []
        assert result.suppressed == 2
        assert result.suppressed_by_code == {"REP101": 2}


# --------------------------------------------------------------------------- #
# REP102 — Generator aliasing across shard submissions
# --------------------------------------------------------------------------- #


PR4_TRAINER = '''\
class Trainer:
    def fit(self, executor, class_indices):
        futures = []
        for class_index in class_indices:
            futures.append(
                executor.submit(self._run_class, class_index, self.rng)
            )
        return [future.result() for future in futures]

    def _run_class(self, class_index, rng):
        return rng.normal()
'''

SPAWNED_TRAINER = '''\
from repro.utils.rng import spawn_rngs

class Trainer:
    def fit(self, executor, class_indices):
        class_rngs = spawn_rngs(self.rng, len(class_indices))
        futures = []
        for class_index in class_indices:
            futures.append(
                executor.submit(
                    self._run_class, class_index, class_rngs[class_index]
                )
            )
        return [future.result() for future in futures]

    def _run_class(self, class_index, rng):
        return rng.normal()
'''


class TestRep102SeedAliasing:
    def test_pr4_prefix_trainer_pattern_is_flagged(self):
        """Regression: the shared-self.rng-per-class shape of the PR 4 bug."""
        result = analyze("src/repro/trainer.py", PR4_TRAINER, codes=["REP102"])
        assert codes_of(result) == ["REP102"]
        assert "self.rng" in result.diagnostics[0].message

    def test_post_fix_spawned_streams_are_clean(self):
        """The shipped fix — per-class spawn_rngs streams — must not flag."""
        result = analyze("src/repro/trainer.py", SPAWNED_TRAINER, codes=["REP102"])
        assert codes_of(result) == []

    def test_same_rng_in_two_submissions_is_flagged(self):
        source = '''\
from repro.utils.rng import ensure_rng

def run(executor):
    rng = ensure_rng(0)
    a = executor.submit(job, rng)
    b = executor.submit(job, rng)
    return a, b

def job(rng):
    return rng.normal()
'''
        result = analyze("src/repro/twice.py", source, codes=["REP102"])
        assert codes_of(result) == ["REP102"]
        assert result.diagnostics[0].location.line == 6  # the second submit

    def test_loop_invariant_rng_in_comprehension_is_flagged(self):
        source = '''\
def run(self, executor, shards):
    futures = [executor.submit(job, shard, self.rng) for shard in shards]
    return futures

def job(shard, rng):
    return rng.normal()
'''
        result = analyze("src/repro/comp.py", source, codes=["REP102"])
        assert codes_of(result) == ["REP102"]

    def test_spawn_call_inside_loop_is_sanctioned(self):
        source = '''\
from repro.utils.rng import spawn_rngs

def run(self, executor, shards):
    futures = []
    for index, shard in enumerate(shards):
        streams = spawn_rngs(self.rng, 2)
        futures.append(executor.submit(job, shard, streams[0]))
    return futures

def job(shard, rng):
    return rng.normal()
'''
        result = analyze("src/repro/spawned.py", source, codes=["REP102"])
        assert codes_of(result) == []

    def test_functions_without_fanout_are_ignored(self):
        source = '''\
def helper(self, items):
    out = []
    for item in items:
        out.append(compute(item, self.rng))
    return out

def compute(item, rng):
    return rng.normal()
'''
        result = analyze("src/repro/nofan.py", source, codes=["REP102"])
        assert codes_of(result) == []


# --------------------------------------------------------------------------- #
# REP103 — transitive payload picklability
# --------------------------------------------------------------------------- #


class TestRep103Picklability:
    def test_direct_threading_field_is_flagged(self):
        source = '''\
import threading

class EstimatorSpec:
    guard: threading.Lock
'''
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == ["REP103"]
        assert "threading primitive" in result.diagnostics[0].message

    def test_live_backend_field_is_flagged(self):
        source = '''\
class SimBackend:
    pass

class BackendSpec:
    backend: "SimBackend"
'''
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == ["REP103"]
        assert "SimBackend" in result.diagnostics[0].message

    def test_transitive_lock_via_helper_class_is_flagged(self):
        """The graph walk reaches locks two hops deep, across modules."""
        specs = '''\
from repro.helpers import Inner

class Middle:
    def __init__(self, inner: Inner):
        self.inner = inner

class ShardPlan:
    def __init__(self, middle: Middle):
        self.middle = middle
'''
        helpers = '''\
import threading

class Inner:
    def __init__(self):
        self._lock = threading.Lock()
'''
        result = analyze(
            "src/repro/specs.py", specs,
            "src/repro/helpers.py", helpers,
            codes=["REP103"],
        )
        assert codes_of(result) == ["REP103"]
        message = result.diagnostics[0].message
        assert "ShardPlan" in message and "Inner" in message

    def test_getstate_dropping_the_lock_is_clean(self):
        source = '''\
import threading

class SafeCache:
    def __init__(self):
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

class ShardPlan:
    def __init__(self, cache: SafeCache):
        self.cache = cache
'''
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == []

    # The five fixtures below are the corpus of the former per-file REP002
    # rule, which REP103 replaces: class-level field defaults of a payload
    # class are checked as well as its annotated field types.

    def test_lambda_default_is_flagged(self):
        source = (
            "class BackendSpec:\n"
            "    factory = lambda: object()\n"
        )
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == ["REP103"]
        assert lines_of(result) == [2]
        assert "lambda" in result.diagnostics[0].message

    def test_lock_default_is_flagged(self):
        source = (
            "import threading\n"
            "class SweepSpec:\n"
            "    guard = threading.Lock()\n"
        )
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == ["REP103"]
        assert lines_of(result) == [3]
        assert "threading.Lock" in result.diagnostics[0].message

    def test_live_backend_annotation_is_flagged(self):
        source = (
            "class EstimatorSpec:\n"
            "    backend: QuantumBackend = None\n"
        )
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == ["REP103"]
        assert "QuantumBackend" in result.diagnostics[0].message

    def test_plain_fields_are_clean(self):
        source = (
            "class BackendSpec:\n"
            "    kind: str = 'ideal'\n"
            "    shots: int = 1024\n"
            "    child_spec: 'EstimatorSpec' = None\n"
        )
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == []

    def test_non_spec_classes_are_out_of_scope(self):
        source = (
            "class Engine:\n"
            "    factory = lambda: object()\n"
        )
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == []

    def test_sibling_spec_fields_are_exempt(self):
        """BackendSpec-typed fields do not trip the *Backend live suffix."""
        source = '''\
class BackendSpec:
    device: str

class EstimatorSpec:
    backend_spec: BackendSpec
'''
        result = analyze("src/repro/specs.py", source, codes=["REP103"])
        assert codes_of(result) == []


# --------------------------------------------------------------------------- #
# REP104 — engine buffers escaping into caches
# --------------------------------------------------------------------------- #


class TestRep104BufferEscape:
    def test_put_of_raw_amplitudes_is_flagged(self):
        source = '''\
def memoise(cache, key, state):
    cache.put(key, state._amplitudes)
'''
        result = analyze("src/repro/escape.py", source, codes=["REP104"])
        assert codes_of(result) == ["REP104"]

    def test_cache_subscript_store_of_tainted_name_is_flagged(self):
        source = '''\
def memoise(self, key, state):
    raw = state._matrices
    self._cache[key] = raw
'''
        result = analyze("src/repro/escape.py", source, codes=["REP104"])
        assert codes_of(result) == ["REP104"]
        assert result.diagnostics[0].location.line == 3

    def test_copy_breaks_the_taint(self):
        source = '''\
def memoise(cache, key, state):
    cache.put(key, state._amplitudes.copy())
'''
        result = analyze("src/repro/escape.py", source, codes=["REP104"])
        assert codes_of(result) == []

    def test_non_cache_store_is_ignored(self):
        source = '''\
def collect(out, key, state):
    out[key] = state._amplitudes
'''
        result = analyze("src/repro/escape.py", source, codes=["REP104"])
        assert codes_of(result) == []


# --------------------------------------------------------------------------- #
# Selection, catalogue, and robustness
# --------------------------------------------------------------------------- #


class TestOrchestration:
    def test_codes_filter_restricts_analyzers(self):
        result = analyze("src/repro/race.py", RACE, codes=["REP103"])
        assert codes_of(result) == []

    def test_catalogue_has_all_four_codes(self):
        assert sorted(FLOW_CODES) == ["REP101", "REP102", "REP103", "REP104"]

    def test_syntax_error_files_are_skipped_not_fatal(self):
        result = analyze(
            "src/repro/broken.py", "def f(:\n",
            "src/repro/race.py", RACE,
            codes=["REP101"],
        )
        assert codes_of(result) == ["REP101", "REP101"]

    def test_shipped_tree_is_flow_clean(self):
        import os

        from repro.analysis.flow import analyze_paths

        repo = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        result = analyze_paths(
            [os.path.join(repo, "src"), os.path.join(repo, "benchmarks")],
            root=repo,
        )
        assert result.diagnostics == [], "\n".join(
            d.format() for d in result.diagnostics
        )
        # The justified worker-local suppressions are counted, not dropped.
        assert result.suppressed_by_code.get("REP101", 0) >= 10
