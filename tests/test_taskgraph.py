"""Tests of the task-graph execution engine and its cache integration.

Graph-shape tests use cheap dummy nodes; end-to-end tests use the two
cheapest workloads (blowfish, mips) against pytest-managed temp cache
directories, mirroring ``tests/test_eval_cache.py``.  The pool's placement
rule is tested as a pure function, and its effect (a worker keeps the
artifact it compiled, and a sweep point follows its compile to that worker)
end to end; so are the slots themselves (no thread in the parent, a dead
worker's error, a worker's traceback).
"""

import json
import multiprocessing
import os
import time
import zlib
from pathlib import Path

import pytest

from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import TaskGraphCycleError, TaskGraphError
from repro.eval.cache import ArtifactCache
from repro.eval.experiments import run_report
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task
from repro.results import CompileSummary

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


def test_serial_run_order_is_the_topological_order():
    """With ``jobs=1`` every task of the full report graph runs in the
    parent the moment it is ready, which is exactly Kahn's order."""
    from dataclasses import replace

    from repro.eval.experiments import declare_report
    from repro.eval.renders import declare_report_renders

    harness = EvaluationHarness(use_cache=False)
    report = TaskGraph()
    declare_report(report, harness)
    declare_report_renders(report, harness)
    ran = []

    def record(*args, **kwargs):
        ran.append(args[-1])

    graph = TaskGraph()
    for task in report:
        graph.add(replace(task, fn=record, args=(task.task_id,), key=None))
    TaskScheduler(graph, jobs=1).run()
    expected = [t.task_id for t in report.topological_order()]
    assert expected != [t.task_id for t in report]  # not merely declaration order
    assert ran == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_cache_twins_both_execute(jobs):
    """The latency-2 and depth-8 points share one content key.  Without a
    cache nothing can serve the second as a hit, so both execute, serial or
    pooled, and the statistics say so."""
    harness = EvaluationHarness(benchmarks=["blowfish"], use_cache=False)
    graph = TaskGraph()
    latency = harness.declare_runtime_point(
        graph, "blowfish", RuntimeConfig(queue_latency=2), "latency:blowfish:2"
    )
    depth = harness.declare_runtime_point(
        graph, "blowfish", RuntimeConfig(queue_depth=8), "depth:blowfish:8"
    )
    assert graph.task(latency).key == graph.task(depth).key
    scheduler = TaskScheduler(graph, jobs=jobs)
    results = scheduler.run()
    assert results[latency] == results[depth]
    assert scheduler.stats == {
        "total": 3,
        "seeded": 0,
        "cache_hits": 0,
        "executed": {"compile": 1, "runtime": 2},
        "cache_hit_kinds": {},
    }


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
    # The JSON is plain data behind its crc32 line, loadable without
    # unpickling anything.
    payloads = []
    for path in objects.rglob("*.json"):
        crc, body = path.read_bytes().split(b"\n", 1)
        assert crc == b"%08x" % zlib.crc32(body)
        payloads.append(json.loads(body))
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


# ---------------------------------------------------------------------------
# workload-affine pool placement
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def test_pool_starts_no_thread_in_the_parent(tmp_path):
    """The slots are plain forked processes fed over pipes: while they run
    and after they close, the parent has exactly the threads it had."""
    import threading

    before = threading.active_count()
    graph = TaskGraph()
    for i in range(4):
        graph.add(Task(task_id=f"sweep:{i}", kind="runtime", fn=_square, args=(i,)))
    graph.add(aggregate_task(
        "during", lambda results: threading.active_count(), [f"sweep:{i}" for i in range(4)]
    ))
    results = TaskScheduler(graph, cache=ArtifactCache(tmp_path), jobs=2).run()
    assert [results[f"sweep:{i}"] for i in range(4)] == [0, 1, 4, 9]
    assert results["during"] == before
    assert threading.active_count() == before


def _dies_in_worker():
    os._exit(1)


def test_a_dead_worker_fails_the_run_naming_its_task(tmp_path):
    import signal

    def hung(signum, frame):
        raise AssertionError("the run hung on a dead worker")

    cache = ArtifactCache(tmp_path)
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:dies", kind="runtime", fn=_dies_in_worker,
                   key="e" * 64, serializer="json"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(TaskGraphError, match="sweep:dies"):
            TaskScheduler(graph, cache=cache, jobs=2).run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not cache.backend.lock_path("e" * 64).exists()
    assert list((tmp_path / "locks").rglob("*.lock")) == []


def _raises_in_worker():
    raise ValueError("bad payload")


def test_a_worker_exception_reraises_with_the_remote_traceback(tmp_path):
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:raises", kind="runtime", fn=_raises_in_worker,
                   key="f" * 64, serializer="json"))
    with pytest.raises(ValueError, match="bad payload") as info:
        TaskScheduler(graph, cache=ArtifactCache(tmp_path), jobs=2).run()
    assert "_raises_in_worker" in str(info.value.__cause__)


def _pooled(task_id, workload):
    return Task(task_id=task_id, kind="runtime", fn=len, workload=workload)


def test_place_prefers_resident_then_unheld_then_steals():
    from repro.eval.taskgraph import PLACED_FREE, PLACED_RESIDENT, PLACED_STOLEN, place

    pending = [_pooled("compile:c", "c"), _pooled("sweep:b", "b"), _pooled("sweep:a", "a")]
    # Slot 1 ran workload a: its oldest a task goes there first, ahead of
    # older tasks of other workloads.
    assert place(pending, [{"b"}, {"a"}], idle=[1]) == (1, 2, PLACED_RESIDENT)
    # With no a task pending, idle slot 1 leaves the b task to busy slot 0,
    # which holds b, and takes the unheld compile.
    assert place(pending[:2], [{"b"}, {"a"}], idle=[1]) == (1, 0, PLACED_FREE)
    # Among several idle slots, the resident one gets its task.
    assert place(pending[1:], [set(), {"b"}], idle=[0, 1]) == (1, 0, PLACED_RESIDENT)
    # A render (no workload) is never held by anyone.
    render = Task(task_id="render:6.3", kind="render", fn=len)
    assert place([_pooled("sweep:b", "b"), render], [{"b"}, set()], idle=[1]) == (
        1, 1, PLACED_FREE,
    )
    # Every pending workload is held by a busy slot: the idle slot steals
    # the oldest task rather than idling.
    assert place(pending[1:], [{"a", "b"}, set()], idle=[1]) == (1, 0, PLACED_STOLEN)


def test_place_never_leaves_a_slot_idle_while_a_task_is_pending():
    from itertools import product

    from repro.eval.taskgraph import place

    workloads = ("a", "b", None)
    for kinds in product(workloads, repeat=3):
        pending = [_pooled(f"t{i}", w) for i, w in enumerate(kinds)]
        for resident in product([set(), {"a"}, {"b"}, {"a", "b"}], repeat=2):
            for idle in ([0], [1], [0, 1]):
                slot, index, _ = place(pending, list(resident), idle)
                assert slot in idle and 0 <= index < len(pending)


def test_worker_keeps_its_compile_artifact_for_later_sweep_points(tmp_path, monkeypatch):
    """A compile run in a pool worker leaves the full result in that
    process's sweep-input memo and sends back only its summary, so a sweep
    point at the compile's own runtime config replays from the same trace
    and builds no new trace index."""
    from collections import OrderedDict

    from repro.eval import worker
    from repro.eval.cache import compile_key
    from repro.sim import timing
    from repro.workloads import get_workload

    monkeypatch.setattr(worker, "_SWEEP_INPUT_MEMO", OrderedDict())
    config = CompilerConfig()
    key = compile_key(get_workload("blowfish").source, config)
    cache_root = str(tmp_path / "cache")
    envelope = worker._execute_in_worker(
        worker.compute_compile, ("blowfish", config, key), key, cache_root, "artifact"
    )
    assert sorted(envelope) == ["stages", "value"]
    assert type(envelope["value"]) is CompileSummary
    assert {"interp", "dswp", "replay"} <= set(envelope["stages"].seconds)
    artifact = worker._SWEEP_INPUT_MEMO[key]
    assert artifact.name == "blowfish"
    assert artifact.summary() == envelope["value"]

    built = []
    init = timing._TraceIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(timing._TraceIndex, "__init__", counting_init)
    cycles = worker.compute_runtime_point("blowfish", config, cache_root, config.runtime, key)
    assert built == []
    assert cycles == artifact.system.twill.cycles


def test_pool_runs_a_sweep_point_in_its_compiles_lane(tmp_path):
    from repro.eval.cache import compile_key
    from repro.eval.taskgraph import compile_task, runtime_task
    from repro.obs import tracing as obs_tracing
    from repro.obs.render import load_spans
    from repro.workloads import get_workload

    config = CompilerConfig()
    key = compile_key(get_workload("blowfish").source, config)
    cache_root = str(tmp_path / "cache")
    graph = TaskGraph()
    graph.add(compile_task("blowfish", config, key))
    graph.add(runtime_task("blowfish", config, cache_root, RuntimeConfig(queue_latency=8),
                           "latency:blowfish:8", key))
    sink = tmp_path / "spans.jsonl"
    obs_tracing.enable(sink, service="test")
    try:
        results = TaskScheduler(graph, cache=ArtifactCache(cache_root), jobs=2).run()
    finally:
        obs_tracing.reset()
    assert type(results["compile:blowfish"]) is CompileSummary  # the parent holds the summary only
    spans = {s["name"]: s for s in load_spans(sink)}
    compile_span = spans["task:compile:blowfish"]
    sweep_span = spans["task:sweep:latency:blowfish:8"]
    assert compile_span["worker"].startswith("pid:")
    assert sweep_span["worker"] == compile_span["worker"]
    assert compile_span["attrs"]["resident"] is False
    assert sweep_span["attrs"]["resident"] is True
    assert sweep_span["attrs"]["stolen"] is False



def test_without_a_cache_the_pool_runs_sweep_points_in_their_compiles_lane(tmp_path):
    """With no cache a compile's result comes back over the pipe, but it also
    stays in its slot's memo: the sweep point runs there, not in the
    parent, and no process rebuilds the workload."""
    from repro.eval.cache import compile_key
    from repro.eval.taskgraph import compile_task, runtime_task
    from repro.obs import tracing as obs_tracing
    from repro.obs.render import load_spans
    from repro.workloads import get_workload

    config = CompilerConfig()
    key = compile_key(get_workload("blowfish").source, config)
    graph = TaskGraph()
    graph.add(compile_task("blowfish", config, key))
    graph.add(runtime_task("blowfish", config, None, RuntimeConfig(queue_latency=8),
                           "latency:blowfish:8", key))
    sink = tmp_path / "spans.jsonl"
    obs_tracing.enable(sink, service="test")
    try:
        results = TaskScheduler(graph, jobs=2).run()
    finally:
        obs_tracing.reset()
    spans = load_spans(sink)
    by_name = {s["name"]: s for s in spans}
    compile_span = by_name["task:compile:blowfish"]
    sweep_span = by_name["task:sweep:latency:blowfish:8"]
    assert compile_span["worker"].startswith("pid:")
    assert sweep_span["worker"] == compile_span["worker"]
    assert [s["kind"] for s in spans].count("stage:interp") == 1
    assert type(results["compile:blowfish"]) is CompileSummary  # the parent holds the summary only
    serial = TaskScheduler(graph, jobs=1).run()
    assert results["sweep:latency:blowfish:8"] == serial["sweep:latency:blowfish:8"]
