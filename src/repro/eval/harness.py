"""Shared evaluation harness: cached, parallel task-graph execution.

Compiling a workload (front end, passes, functional trace, DSWP, HLS, three
timing replays) is the expensive part of every experiment, and most
tables/figures need the same compiled artefacts.  Every request, a whole
report or a single ``repro run``, is a task graph run by :meth:`execute`,
which caches at three levels:

1. **in memory** — one :class:`BenchmarkRun` per workload (plus one value per
   derived sweep key) for the lifetime of the harness, so the experiment
   generators in ``repro.eval.experiments`` share artefacts within a process;
2. **on disk** — a content-addressed :class:`repro.eval.cache.ArtifactCache`
   under ``.repro_cache/`` (compile artifacts through the structured codec,
   structured-JSON sweep artifacts), so repeat invocations of any table,
   figure or CLI command skip the work entirely;
3. **single-flight** — keyed computations go through per-key advisory file
   locks, so concurrent processes missing on the same key compute it once.

Work is expressed as :mod:`repro.eval.taskgraph` DAGs: the ``declare_*``
methods add compile and sweep-point nodes, and :meth:`execute` runs a whole
graph — serially, or with ``parallel=N`` on N one-process pool slots, where
a workload's sweep points follow its compile to the worker that holds its
artifact — while keeping results deterministic: the parallel path produces
exactly the same rows (and table bytes) as the serial path.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import CompilerConfig, RuntimeConfig
from repro.eval import taskgraph
from repro.eval.cache import ArtifactCache, compile_key
from repro.eval.taskgraph import LocalProcessExecutor, TaskGraph, TaskScheduler
from repro.obs import tracing as obs_tracing
from repro.results import CompilationResult, CompileSummary
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload


@dataclass
class BenchmarkRun:
    """One compiled-and-simulated workload, as a report reads it."""

    workload: Workload
    result: CompileSummary

    @property
    def name(self) -> str:
        return self.workload.name

    def functional_outputs_match(self) -> bool:
        return self.result.outputs == self.workload.expected_outputs()


class EvaluationHarness:
    """Compiles workloads on demand and caches the results.

    Parameters
    ----------
    config:
        Compiler/simulator configuration; defaults to the thesis §6 setup.
    benchmarks:
        Workload names this harness covers; defaults to all eight kernels.
    cache:
        An explicit :class:`ArtifactCache` to use for on-disk artefacts.
    cache_dir:
        Directory of a fresh :class:`ArtifactCache` (ignored when *cache*
        is given); defaults to ``$REPRO_CACHE_DIR`` or ``./.repro_cache``.
    use_cache:
        Set ``False`` to disable the disk cache entirely (in-memory caching
        always stays on; a pool slot then keeps each compile it ran for the
        points placed after it, and rebuilds a workload it did not run).
    """

    _shared_instances: Dict[Tuple[str, Tuple[str, ...]], "EvaluationHarness"] = {}

    def __init__(
        self,
        config: Optional[CompilerConfig] = None,
        benchmarks: Optional[Sequence[str]] = None,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ):
        self.config = config or CompilerConfig()
        self.benchmark_names = list(benchmarks) if benchmarks else [w.name for w in all_workloads()]
        if not use_cache:
            self.cache: Optional[ArtifactCache] = None
        elif cache is not None:
            self.cache = cache
        else:
            self.cache = ArtifactCache(cache_dir)
        self._runs: Dict[str, BenchmarkRun] = {}
        self._compile_keys: Dict[str, str] = {}
        self._derived: Dict[str, Any] = {}
        self._pool: Optional[LocalProcessExecutor] = None
        #: Execution statistics of the most recent :meth:`execute` (cache
        #: hits, seeds, executed tasks by kind) — what ``repro report --html``
        #: publishes as the run's cache-hit stats.
        self.last_stats: Dict[str, Any] = {}

    # -- shared instances --------------------------------------------------------------

    @classmethod
    def shared(
        cls,
        config: Optional[CompilerConfig] = None,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> "EvaluationHarness":
        """Process-wide harness for a given configuration and benchmark set.

        Instances are keyed by ``(config.content_hash(), tuple(benchmarks))``,
        so callers asking for different configurations or benchmark subsets
        get *different* cached harnesses instead of one global that silently
        ignores its arguments: ``shared()`` twice returns the same object,
        while ``shared(config=...)`` with any knob changed (or a different
        benchmark list) returns a fresh harness with its own in-memory run
        cache.  All instances still share the on-disk artifact cache, which
        is keyed by the same config hash and therefore never mixes artefacts
        across configurations.
        """
        config = config or CompilerConfig()
        names = tuple(benchmarks) if benchmarks else tuple(w.name for w in all_workloads())
        key = (config.content_hash(), names)
        instance = cls._shared_instances.get(key)
        if instance is None:
            instance = cls(config=config, benchmarks=list(names))
            cls._shared_instances[key] = instance
        return instance

    @classmethod
    def reset_shared(cls) -> None:
        """Drop all shared instances (used by tests)."""
        cls._shared_instances.clear()

    # -- cache keys --------------------------------------------------------------------

    def _compile_key(self, name: str) -> str:
        key = self._compile_keys.get(name)
        if key is None:
            key = compile_key(get_workload(name).source, self.config)
            self._compile_keys[name] = key
        return key

    @property
    def _cache_root(self) -> Optional[str]:
        """The cache directory worker payloads reconstruct their cache from."""
        return self.cache.spec if self.cache is not None else None

    # -- graph declaration -------------------------------------------------------------

    def declare_compile(self, graph: TaskGraph, name: str) -> str:
        """Add (or reuse) the compile node for *name*; returns its task id."""
        return graph.add(taskgraph.compile_task(name, self.config, self._compile_key(name)))

    def declare_runtime_point(
        self, graph: TaskGraph, name: str, runtime: RuntimeConfig, label: str
    ) -> str:
        """Add one queue-latency/depth sweep-point node (and its compile dep)."""
        self.declare_compile(graph, name)
        return graph.add(
            taskgraph.runtime_task(
                name, self.config, self._cache_root, runtime, label, self._compile_key(name)
            )
        )

    def _declare_design_point(
        self, graph: TaskGraph, name: str, point_config: CompilerConfig, task_id: str
    ) -> str:
        """Add one design-point node (and its compile dep): *name*
        re-partitioned and re-simulated under *point_config*."""
        self.declare_compile(graph, name)
        return graph.add(
            taskgraph.explore_task(
                task_id, name, self.config, self._cache_root, point_config,
                self._compile_key(name),
            )
        )

    def declare_split_point(self, graph: TaskGraph, name: str, sw_fraction: float) -> str:
        """Add one partition-split sweep point: the design point of this
        harness's config with ``partition.sw_fraction`` = *sw_fraction*."""
        partition = replace(self.config.partition, sw_fraction=sw_fraction)
        return self._declare_design_point(
            graph, name, replace(self.config, partition=partition),
            f"sweep:split:{name}:{sw_fraction}",
        )

    def declare_explore_point(self, graph: TaskGraph, name: str, space, candidate) -> str:
        """Add one design-space-exploration candidate node (and its compile dep).

        *space* / *candidate* come from :mod:`repro.explore.space`.
        """
        return self._declare_design_point(
            graph, name, candidate.apply(space, self.config),
            taskgraph.explore_task_id(name, candidate),
        )

    def declare_ingest(
        self,
        graph: TaskGraph,
        name: str,
        source: str,
        filename: str,
        includes: Sequence[str] = (),
        skipped_includes: Sequence[str] = (),
    ) -> str:
        """Add one C-file ingest-report node (no dependencies).

        *source* is the preprocessed text (it travels with the task), so the
        node is self-contained and content-addressed by source + config +
        code digest.  Imported lazily like :meth:`declare_explore_point` to
        keep the module dependency graph acyclic.
        """
        from repro.ingest.evaluate import ingest_task

        return graph.add(
            ingest_task(name, source, filename, self.config, tuple(includes), tuple(skipped_includes))
        )

    # -- graph execution ---------------------------------------------------------------

    @contextlib.contextmanager
    def pool(self, parallel: Optional[int]) -> Iterator[None]:
        """Keep one process pool of *parallel* slots for every parallel
        :meth:`execute` inside the scope, so the slots, and the compile
        artifacts, traces and partitions their memos hold, outlive one graph
        (an explore search runs one graph per generation).  Every slot is
        shut down when the scope ends.  A no-op for ``parallel <= 1`` or
        inside an open scope."""
        if self._pool is not None or (parallel or 1) <= 1:
            yield
            return
        with LocalProcessExecutor(parallel) as pool:
            self._pool = pool
            try:
                yield
            finally:
                self._pool = None

    def execute(self, graph: TaskGraph, parallel: Optional[int] = None) -> Dict[str, Any]:
        """Run every task of *graph*; returns ``{task_id: value}``.

        The harness's in-memory layers seed the scheduler (already-compiled
        workloads and already-computed sweep values run nothing), and every
        new result flows back into them afterwards — including the
        functional-output check each compile artifact must pass before any
        experiment may use it.  With ``parallel=N`` (N > 1) cold worker tasks
        run on N pool worker processes, with results identical to the serial
        path.
        """
        seeds: Dict[str, Any] = {}
        for task in graph:
            if task.kind == taskgraph.KIND_COMPILE and task.workload in self._runs:
                seeds[task.task_id] = self._runs[task.workload].result
            elif task.key is not None and task.key in self._derived:
                seeds[task.task_id] = self._derived[task.key]
        pool = self._pool if (parallel or 1) > 1 else None
        scheduler = TaskScheduler(graph, cache=self.cache, jobs=parallel, seeds=seeds, pool=pool)
        with obs_tracing.span(
            "harness.execute", kind="harness", tasks=len(graph), parallel=parallel or 1
        ):
            results = scheduler.run()
        self.last_stats = scheduler.stats
        for task in graph:
            if task.kind == taskgraph.KIND_COMPILE:
                if task.workload not in self._runs:
                    self._admit(task.workload, results[task.task_id])
            elif task.kind in taskgraph.DERIVED_KINDS:
                self._derived[task.key] = results[task.task_id]
        self._auto_prune()
        return results

    def _auto_prune(self) -> None:
        """Enforce the optional ``RuntimeConfig.cache_max_bytes`` LRU bound."""
        max_bytes = self.config.runtime.cache_max_bytes
        if self.cache is not None and max_bytes is not None:
            self.cache.prune(max_bytes)

    # -- runs ------------------------------------------------------------------------------

    def _admit(self, name: str, result: CompileSummary) -> BenchmarkRun:
        run = BenchmarkRun(workload=get_workload(name), result=result)
        if not run.functional_outputs_match():
            raise AssertionError(
                f"functional outputs of '{name}' do not match the reference implementation"
            )
        self._runs[name] = run
        return run

    def run(self, name: str) -> BenchmarkRun:
        """Compile and simulate one workload (memory- and disk-cached)."""
        cached = self._runs.get(name)
        if cached is not None:
            return cached
        graph = TaskGraph()
        self.declare_compile(graph, name)
        self.execute(graph)
        return self._runs[name]

    def compile_result(self, name: str) -> CompilationResult:
        """The full compile result of *name*, module and trace included, as
        a re-simulation in this process reads it
        (:func:`repro.eval.worker.sweep_input`)."""
        from repro.eval.worker import sweep_input

        return sweep_input(name, self.config, self._cache_root, self._compile_key(name))

    def run_all(self, parallel: Optional[int] = None) -> List[BenchmarkRun]:
        """Compile and simulate every workload of this harness.

        Declares one compile node per workload and executes the graph; with
        ``parallel=N`` (N > 1) the uncompiled, not-disk-cached workloads are
        fanned out over N worker processes.  Results are identical to the
        serial path.
        """
        graph = TaskGraph()
        for name in self.benchmark_names:
            self.declare_compile(graph, name)
        self.execute(graph, parallel=parallel)
        return [self._runs[name] for name in self.benchmark_names]

    # -- sweeps -----------------------------------------------------------------------------

    def twill_cycles_with_runtime(self, name: str, runtime: RuntimeConfig) -> float:
        """Twill cycle count for one workload under a modified runtime configuration.

        Declares the ``runtime`` node (and its compile) and executes that
        graph, so CLI one-offs and report graphs cannot diverge.
        """
        graph = TaskGraph()
        task_id = self.declare_runtime_point(graph, name, runtime, f"runtime:{name}")
        return self.execute(graph)[task_id]

    def twill_cycles_with_split(self, name: str, sw_fraction: float) -> Dict[str, float]:
        """Re-partition with a different targeted SW share and report cycles + queues.

        Declares and executes the split point's design node, like
        :meth:`twill_cycles_with_runtime`."""
        graph = TaskGraph()
        task_id = self.declare_split_point(graph, name, sw_fraction)
        point = self.execute(graph)[task_id]
        return {key: point[key] for key in ("cycles", "queues", "speedup_vs_sw")}
