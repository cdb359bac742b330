"""Tests of the task-graph execution engine and its cache integration.

Graph-shape tests use cheap dummy nodes; end-to-end tests use the two
cheapest workloads (blowfish, mips) against pytest-managed temp cache
directories, mirroring ``tests/test_eval_cache.py``.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import TaskGraphCycleError, TaskGraphError
from repro.eval.cache import ArtifactCache
from repro.eval.experiments import run_report
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task

FAST = ["blowfish", "mips"]


def make_harness(tmp_path, **kwargs):
    return EvaluationHarness(benchmarks=FAST, cache_dir=str(tmp_path / "cache"), **kwargs)


def node(task_id, deps=(), value=None):
    """A parent-side dummy node returning *value* (or a dep-derived tuple)."""

    def fn(results, *args):
        if value is not None:
            return value
        return tuple(results[d] for d in deps)

    return Task(task_id=task_id, kind="aggregate", fn=fn, deps=tuple(deps))


# ---------------------------------------------------------------------------
# graph structure
# ---------------------------------------------------------------------------


def test_topological_order_respects_dependencies():
    graph = TaskGraph()
    graph.add(node("d", deps=("b", "c")))
    graph.add(node("b", deps=("a",)))
    graph.add(node("c", deps=("a",)))
    graph.add(node("a", value=1))
    order = [t.task_id for t in graph.topological_order()]
    assert set(order) == {"a", "b", "c", "d"}
    for task in graph:
        for dep in task.deps:
            assert order.index(dep) < order.index(task.task_id)
    # Stable: among ready tasks, declaration order wins.
    assert order.index("b") < order.index("c")


def test_cycle_detection_raises():
    graph = TaskGraph()
    graph.add(node("a", deps=("b",)))
    graph.add(node("b", deps=("a",)))
    with pytest.raises(TaskGraphCycleError, match="a, b"):
        graph.topological_order()


def test_unknown_dependency_rejected():
    graph = TaskGraph()
    graph.add(node("a", deps=("ghost",)))
    with pytest.raises(TaskGraphError, match="unknown task 'ghost'"):
        graph.topological_order()


def test_duplicate_add_is_a_noop_but_conflicts_raise():
    graph = TaskGraph()
    first = node("a", value=1)
    graph.add(first)
    graph.add(first)  # identical re-declaration: reused
    assert len(graph) == 1
    with pytest.raises(TaskGraphError, match="different content key"):
        graph.add(Task(task_id="a", kind="aggregate", fn=first.fn, key="deadbeef"))
    # Key-less nodes have no content address, so a different computation
    # under the same id must be rejected rather than silently dropped.
    with pytest.raises(TaskGraphError, match="different computation"):
        graph.add(node("a", value=2))


def test_scheduler_threads_results_through_aggregates():
    graph = TaskGraph()
    graph.add(node("one", value=1))
    graph.add(node("two", value=2))
    graph.add(node("both", deps=("one", "two")))
    results = TaskScheduler(graph).run()
    assert results["both"] == (1, 2)


def test_scheduler_seeds_short_circuit_execution():
    graph = TaskGraph()
    graph.add(node("one", value=1))
    graph.add(node("double", deps=("one",)))
    results = TaskScheduler(graph, seeds={"one": 41}).run()
    assert results["double"] == (41,)


# ---------------------------------------------------------------------------
# serial vs parallel report equivalence
# ---------------------------------------------------------------------------


def test_parallel_report_is_byte_identical_to_serial(tmp_path):
    serial = run_report(harness=make_harness(tmp_path / "s"))
    parallel = run_report(harness=make_harness(tmp_path / "p"), parallel=2)
    assert json.dumps(serial, sort_keys=True, default=repr) == json.dumps(
        parallel, sort_keys=True, default=repr
    )
    # Sweep points really were scheduled as independent jobs: the parallel
    # cache holds one derived entry per (workload, sweep-point).
    stats = make_harness(tmp_path / "p").cache.stats()
    assert stats["entries"] > len(FAST) * 8


def test_report_warm_run_matches_cold_run(tmp_path):
    cold = run_report(harness=make_harness(tmp_path))
    warm = run_report(harness=make_harness(tmp_path), parallel=2)
    assert json.dumps(cold, sort_keys=True, default=repr) == json.dumps(
        warm, sort_keys=True, default=repr
    )


def test_no_cache_parallel_report_matches_serial():
    """Without a cache, ``report -j 2`` pickles each compile result back
    through the pool pipe; the report must equal the serial one."""
    serial = run_report(harness=EvaluationHarness(benchmarks=FAST, use_cache=False))
    parallel = run_report(harness=EvaluationHarness(benchmarks=FAST, use_cache=False), parallel=2)
    assert json.dumps(parallel, sort_keys=True, default=repr) == json.dumps(
        serial, sort_keys=True, default=repr
    )


def test_sweeps_from_unpickled_artifact_match_fresh(tmp_path):
    """Re-simulating a disk-loaded compile artifact must equal the fresh run.

    Guards the decoded instruction-keyed maps (the profile counts and
    FunctionPartitioning.assignment): if their keys were not the decoded
    module's own instructions, a re-partition would miss them all and
    silently degenerate to the pure-software configuration.
    """
    h1 = make_harness(tmp_path)
    fresh_split = h1.twill_cycles_with_split("blowfish", 0.4)
    fresh_cycles = h1.twill_cycles_with_runtime("blowfish", RuntimeConfig(queue_latency=32))
    assert fresh_split["queues"] > 0  # the fresh hybrid really is hybrid
    # Drop only the derived JSON entries; the compile artifact stays, so a
    # new harness must recompute both sweep points from the decoded artifact.
    for derived in h1.cache.objects_dir.rglob("*.json"):
        derived.unlink()
    h2 = make_harness(tmp_path)
    assert h2.twill_cycles_with_split("blowfish", 0.4) == fresh_split
    assert h2.twill_cycles_with_runtime("blowfish", RuntimeConfig(queue_latency=32)) == fresh_cycles


# ---------------------------------------------------------------------------
# single-flight locking
# ---------------------------------------------------------------------------


def _contender(cache_dir, key, sentinel_dir):
    cache = ArtifactCache(Path(cache_dir))

    def compute():
        (Path(sentinel_dir) / f"compute-{os.getpid()}").write_text("ran")
        time.sleep(0.3)  # widen the window a second computer would race into
        return {"value": 42}

    value = cache.get_or_compute(key, compute, serializer="json")
    assert value == {"value": 42}


def test_single_flight_two_processes_one_compute(tmp_path):
    sentinel_dir = tmp_path / "sentinels"
    sentinel_dir.mkdir()
    key = "5" * 64
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_contender, args=(str(tmp_path / "cache"), key, str(sentinel_dir)))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    # Exactly one process computed; the other waited on the lock and reused.
    assert len(list(sentinel_dir.iterdir())) == 1
    assert ArtifactCache(tmp_path / "cache").get(key) == {"value": 42}


# ---------------------------------------------------------------------------
# LRU pruning
# ---------------------------------------------------------------------------


def test_prune_evicts_least_recently_used_first(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    now = time.time()
    for index, key in enumerate(["a" * 64, "b" * 64, "c" * 64]):
        path = cache.put(key, {"payload": key}, serializer="json")
        os.utime(path, (now - 100 + index, now - 100 + index))  # a oldest
    entry_size = cache._path("a" * 64, "json").stat().st_size
    summary = cache.prune(max_bytes=2 * entry_size)
    assert summary["removed_entries"] == 1
    assert cache.get("a" * 64) is None  # oldest went first
    assert cache.get("b" * 64) is not None
    assert cache.get("c" * 64) is not None
    assert summary["remaining_bytes"] <= 2 * entry_size


def test_get_refreshes_recency(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    now = time.time()
    for index, key in enumerate(["a" * 64, "b" * 64]):
        path = cache.put(key, index, serializer="json")
        os.utime(path, (now - 100 + index, now - 100 + index))
    cache.get("a" * 64)  # touch the older entry: it becomes most recent
    entry_size = cache._path("a" * 64, "json").stat().st_size
    cache.prune(max_bytes=entry_size)
    assert cache.get("a" * 64) is not None
    assert cache.get("b" * 64) is None


def test_prune_to_zero_and_stats_across_formats(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.get_or_compute("1" * 64, lambda: {"derived": True}, serializer="json")
    stale = cache.objects_dir / "22" / ("2" * 64 + ".pkl")  # an earlier version's entry
    stale.parent.mkdir()
    stale.write_bytes(b"\x80\x04N.")
    assert cache.stats()["entries"] == 2
    assert (cache.locks_dir / "11" / ("1" * 64 + ".lock")).exists()
    summary = cache.prune(max_bytes=0)
    assert summary["removed_entries"] == 2
    assert cache.stats()["entries"] == 0
    # Evicting an entry sweeps its lock file too.
    assert not (cache.locks_dir / "11" / ("1" * 64 + ".lock")).exists()


def test_auto_prune_threshold_in_runtime_config(tmp_path):
    config = CompilerConfig()
    config.runtime.cache_max_bytes = 1  # smaller than any artifact
    harness = EvaluationHarness(
        config=config, benchmarks=["blowfish"], cache_dir=str(tmp_path / "cache")
    )
    harness.run_all()
    assert harness.cache.stats()["entries"] == 0  # pruned right after the run
    # Policy knobs must not leak into content hashes or sweep keys.
    assert config.content_hash() == CompilerConfig().content_hash()
    assert RuntimeConfig(cache_max_bytes=123).to_dict() == RuntimeConfig().to_dict()


# ---------------------------------------------------------------------------
# derived artifacts are structured JSON
# ---------------------------------------------------------------------------


def test_derived_artifacts_stored_as_json(tmp_path):
    harness = make_harness(tmp_path)
    harness.twill_cycles_with_runtime("blowfish", RuntimeConfig(queue_latency=8))
    harness.twill_cycles_with_split("blowfish", 0.4)
    objects = harness.cache.objects_dir
    assert len(list(objects.rglob("*.json"))) == 2  # both sweep artifacts
    assert len(list(objects.rglob("*.art"))) == 1   # only the compile artifact
    assert not list(objects.rglob("*.pkl"))         # nothing is pickled
    # The JSON is plain data, loadable without unpickling anything.
    payloads = [json.loads(p.read_text()) for p in objects.rglob("*.json")]
    assert any(isinstance(p, dict) and "cycles" in p for p in payloads)


# ---------------------------------------------------------------------------
# graceful interrupt
# ---------------------------------------------------------------------------


def test_keyboard_interrupt_sweeps_lock_files_serial(tmp_path):
    cache = ArtifactCache(tmp_path)

    def interrupted():
        raise KeyboardInterrupt

    graph = TaskGraph()
    graph.add(Task(task_id="sweep:interrupted", kind="runtime", fn=interrupted,
                   key="a" * 64, serializer="json"))
    with pytest.raises(KeyboardInterrupt):
        TaskScheduler(graph, cache=cache).run()
    # get_or_compute created the per-key lock file; the graceful-shutdown
    # path must not leave it behind.
    assert not cache.backend.lock_path("a" * 64).exists()
    assert list((tmp_path / "locks").rglob("*.lock")) == []


def _interrupted_in_worker():
    raise KeyboardInterrupt


def test_keyboard_interrupt_in_pool_closes_it_and_sweeps_lock_files(tmp_path, monkeypatch):
    from repro.eval.taskgraph import LocalProcessExecutor

    closed = []
    close = LocalProcessExecutor.close

    def recording_close(self, interrupt=False):
        closed.append(interrupt)
        close(self, interrupt=interrupt)

    monkeypatch.setattr(LocalProcessExecutor, "close", recording_close)
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:interrupted", kind="runtime", fn=_interrupted_in_worker,
                   key="d" * 64, serializer="json"))
    cache = ArtifactCache(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        TaskScheduler(graph, cache=cache, jobs=2).run()
    assert True in closed  # interrupt-mode close happened
    assert not cache.backend.lock_path("d" * 64).exists()
    assert list((tmp_path / "locks").rglob("*.lock")) == []
