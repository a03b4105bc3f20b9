"""Unit tests for the shard executor strategies and their failure semantics."""

import threading
import time

import pytest

from repro.exceptions import ValidationError
from repro.parallel import ShardError, ShardExecutor, ShardPlan


def _double(shard):
    return shard.payload * 2


def _fail_on_two(shard):
    if shard.payload == 2:
        raise RuntimeError("cell exploded")
    return shard.payload


class TestConstruction:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            ShardExecutor("fleet")

    def test_process_strategy_is_gone(self):
        with pytest.raises(ValidationError, match=r"\('serial', 'thread'\)"):
            ShardExecutor("process")

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValidationError):
            ShardExecutor("thread", max_workers=0)

    def test_strategy_name_is_normalised(self):
        assert ShardExecutor("  Thread ").strategy == "thread"


class TestMapSemantics:
    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_results_in_shard_order(self, strategy):
        plan = ShardPlan.from_items(list(range(8)))
        results = ShardExecutor(strategy, max_workers=3).map(_double, plan)
        assert results == [i * 2 for i in range(8)]

    def test_empty_plan(self):
        assert ShardExecutor("thread").map(_double, ShardPlan.from_items([])) == []

    def test_accepts_plain_shard_sequences(self):
        plan = ShardPlan.from_items([5])
        assert ShardExecutor("serial").map(_double, list(plan)) == [10]

    def test_thread_order_independent_of_completion_order(self):
        plan = ShardPlan.from_items([0.03, 0.0, 0.01])

        def sleepy(shard):
            time.sleep(shard.payload)
            return shard.payload

        results = ShardExecutor("thread", max_workers=3).map(sleepy, plan)
        assert results == [0.03, 0.0, 0.01]

    def test_thread_actually_overlaps_workers(self):
        plan = ShardPlan.from_items([0.1] * 4)
        seen = set()

        def record_thread(shard):
            seen.add(threading.get_ident())
            time.sleep(shard.payload)
            return shard.index

        start = time.perf_counter()
        ShardExecutor("thread", max_workers=4).map(record_thread, plan)
        elapsed = time.perf_counter() - start
        assert len(seen) > 1
        assert elapsed < 0.35  # 4 x 0.1s serially; overlapped well under that


    def test_serial_runs_on_the_calling_thread(self):
        caller = threading.get_ident()
        plan = ShardPlan.from_items(list(range(4)))
        seen = ShardExecutor("serial").map(lambda shard: threading.get_ident(), plan)
        assert seen == [caller] * 4

    def test_max_workers_caps_the_thread_pool(self):
        plan = ShardPlan.from_items([0.02] * 6)
        seen = set()
        lock = threading.Lock()

        def record_thread(shard):
            with lock:
                seen.add(threading.get_ident())
            time.sleep(shard.payload)

        ShardExecutor("thread", max_workers=2).map(record_thread, plan)
        assert 1 <= len(seen) <= 2
        assert threading.get_ident() not in seen


class TestFailureSemantics:
    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_failure_attributes_shard_and_chains_cause(self, strategy):
        plan = ShardPlan.from_items([1, 2, 3], keys=[("cell", i) for i in (1, 2, 3)])
        with pytest.raises(ShardError) as excinfo:
            ShardExecutor(strategy, max_workers=2).map(_fail_on_two, plan)
        assert excinfo.value.shard_index == 1
        assert excinfo.value.shard_key == ("cell", 2)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_thread_failure_cancels_pending_shards(self):
        plan = ShardPlan.from_items(list(range(64)))
        executed = []

        def fail_fast(shard):
            if shard.index == 0:
                raise RuntimeError("boom")
            time.sleep(0.005)
            executed.append(shard.index)
            return shard.index

        with pytest.raises(ShardError):
            ShardExecutor("thread", max_workers=2).map(fail_fast, plan)
        # Fail-fast: the queue of 64 shards must not have drained fully.
        assert len(executed) < 64

    def test_failure_message_names_shard_key_and_cause(self):
        plan = ShardPlan.from_items([1, 2, 3], keys=[("cell", i) for i in (1, 2, 3)])
        with pytest.raises(ShardError) as excinfo:
            ShardExecutor("serial").map(_fail_on_two, plan)
        assert str(excinfo.value) == (
            "shard 1 ('cell', 2) failed (RuntimeError: cell exploded)"
        )

    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_inner_shard_error_passes_through_unwrapped(self, strategy):
        inner = ShardError("inner shard failed", shard_index=7, shard_key=("class", 7))

        def reraise(shard):
            if shard.index == 1:
                raise inner
            return shard.index

        plan = ShardPlan.from_items([0, 1, 2])
        with pytest.raises(ShardError) as excinfo:
            ShardExecutor(strategy, max_workers=2).map(reraise, plan)
        assert excinfo.value is inner
