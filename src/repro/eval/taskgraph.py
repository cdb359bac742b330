"""Task-graph execution engine for the evaluation stack.

Every thesis artefact is a small DAG over four node kinds:

* **compile** — the full pipeline for one workload (front end → passes →
  functional trace → DSWP → HLS → three timing replays), whose value is
  the run's :class:`repro.results.CompileSummary`;
* **runtime points** (``runtime``) — cheap re-simulations of an existing
  compile artifact under one swept runtime (queue latency, queue depth),
  one node per (workload, sweep-point);
* **design points** (``explore``) — one configuration re-partitioned and
  re-simulated from the baseline compile artifact, keyed by the
  :class:`~repro.config.CompilerConfig` it simulates: a
  design-space-exploration candidate (:mod:`repro.explore`) or a
  Figure 6.3/6.4 split point, which is the harness config with another
  ``partition.sw_fraction``;
* **render** — one figure's SVG markup (``repro.viz``), keyed by the content
  addresses of the artefacts it draws, so warm reports re-render nothing and
  cold figures fan out like any other derived artefact;
* **aggregate** — parent-side row/table construction from the values of its
  dependencies (a table, a figure, the §6.7 summary).

``repro.eval.experiments`` *declares* these graphs instead of looping
inline; :class:`TaskScheduler` then executes ready tasks — serially, or on
the one-process slots of a :class:`LocalProcessExecutor`, each task on the
slot that already holds its workload — while honouring
dependencies.  Only small values cross the pipe: a compile's summary, a
sweep point's numbers.  The full compile result stays in the process that
computed it, and a point run elsewhere builds its own
(:func:`repro.eval.worker.sweep_input`).  The scheduler memoises every
keyed task through the shared content-addressed
:class:`repro.eval.cache.ArtifactCache` with per-key advisory locks, so
concurrent missers (across worker processes *and* across independent
``repro`` invocations) compute each key exactly once.

Because node values are pure functions of their content address, a parallel
run produces byte-identical rows and tables to a serial run — the
scheduler's only freedom is *when* a value gets computed, never *what* it
is.  ``repro graph`` prints these DAGs without executing them.
"""

from __future__ import annotations

import importlib
import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, AbstractSet, Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from repro import perf
from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import TaskGraphCycleError, TaskGraphError
from repro.eval.cache import ArtifactCache, derived_key, render_key
from repro.obs import tracing as obs_tracing

if TYPE_CHECKING:  # multiprocessing loads only when a pool slot forks
    from multiprocessing.connection import Connection

#: Node kinds, also used by ``repro graph`` for display and by the harness
#: to route results back into its in-memory memo layers.
KIND_COMPILE = "compile"
KIND_RUNTIME = "runtime"
KIND_EXPLORE = "explore"
KIND_INGEST = "ingest"
KIND_RENDER = "render"
KIND_AGGREGATE = "aggregate"

#: Kinds whose payload is picklable and may run in a worker process.
WORKER_KINDS = (KIND_COMPILE, KIND_RUNTIME, KIND_EXPLORE, KIND_INGEST, KIND_RENDER)

#: The modules pool workers run: the slot loop and payloads, the compiler
#: stages, the artifact encoder and the profiler hook of
#: :func:`repro.eval.worker._execute_in_worker`.  A cache hit needs none of
#: them, so the code that runs each imports it, and
#: :meth:`LocalProcessExecutor.submit` imports all of them before a slot
#: forks.
WORKER_MODULES = (
    "repro.eval.worker",
    "repro.core.compiler",
    "repro.sim.system",
    "repro.explore.evaluate",
    "repro.eval.heavy_codec",
    "repro.obs.profile",
)

#: What a render task runs on top of :data:`WORKER_MODULES`.  A slot forked
#: while a render is pending inherits them; a slot that gets a render later
#: imports them itself.
RENDER_MODULES = ("repro.eval.renders", "repro.viz.figures")

#: Kinds whose value is a derived (JSON) artifact of a compile node — the
#: harness memoises them in its in-memory derived layer after a run.
DERIVED_KINDS = (KIND_RUNTIME, KIND_EXPLORE, KIND_INGEST, KIND_RENDER)


@dataclass(frozen=True)
class Task:
    """One node of an evaluation task graph.

    Worker tasks (``kind`` in :data:`WORKER_KINDS`) carry a module-level
    ``fn`` called as ``fn(*args)`` — fully self-describing and picklable, so
    the scheduler may run it in any process.  It is the function itself or
    a ``"module:function"`` reference to it (:func:`resolve`), which keeps
    the payload's module unloaded until the task runs.  Aggregate tasks run
    in the parent and are called as ``fn(results, *args)`` with the mapping
    of every finished task's value.  ``key`` is the content address under which the
    scheduler memoises the output (``None`` = never disk-cached), stored in
    the ``serializer`` format (``artifact`` or ``json``).  ``workload`` names
    the compile artifact the task produces or reads; the process pool places
    a task on the slot that already ran that workload (see :func:`place`).
    """

    task_id: str
    kind: str
    fn: Any
    args: Tuple[Any, ...] = ()
    deps: Tuple[str, ...] = ()
    key: Optional[str] = None
    serializer: Optional[str] = None
    workload: Optional[str] = None

    def runs_in_worker(self) -> bool:
        return self.kind in WORKER_KINDS


class TaskGraph:
    """An insertion-ordered DAG of :class:`Task` nodes.

    Adding a node whose ``task_id`` already exists is a no-op returning the
    existing id (so several artefact declarations can share one compile
    node), but re-declaring an id with a *different* content key is an error
    — the same name must always mean the same computation.
    """

    def __init__(self) -> None:
        self._tasks: "OrderedDict[str, Task]" = OrderedDict()

    def add(self, task: Task) -> str:
        existing = self._tasks.get(task.task_id)
        if existing is not None:
            if existing.key != task.key:
                raise TaskGraphError(
                    f"task '{task.task_id}' re-declared with a different content key"
                )
            if existing.key is None and (existing.fn != task.fn or existing.args != task.args):
                # Key-less (aggregate) nodes have no content address to
                # compare, so conflicting re-declarations must be caught on
                # the computation itself or the second one is silently lost.
                raise TaskGraphError(
                    f"task '{task.task_id}' re-declared with a different computation"
                )
            return existing.task_id
        self._tasks[task.task_id] = task
        return task.task_id

    def task(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task '{task_id}'") from None

    def tasks(self) -> List[Task]:
        """All nodes in insertion (declaration) order."""
        return list(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def edge_count(self) -> int:
        return sum(len(t.deps) for t in self._tasks.values())

    def validate(self) -> None:
        """Reject dangling dependency references."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise TaskGraphError(
                        f"task '{task.task_id}' depends on unknown task '{dep}'"
                    )

    def topological_order(self) -> List[Task]:
        """Kahn's algorithm, stable w.r.t. declaration order.

        Raises :class:`TaskGraphCycleError` (naming the nodes involved) when
        the graph has no topological order.
        """
        self.validate()
        waiting = {t.task_id: len(t.deps) for t in self._tasks.values()}
        dependents: Dict[str, List[str]] = {t.task_id: [] for t in self._tasks.values()}
        for task in self._tasks.values():
            for dep in task.deps:
                dependents[dep].append(task.task_id)
        ready = deque(tid for tid, count in waiting.items() if count == 0)
        order: List[Task] = []
        while ready:
            task_id = ready.popleft()
            order.append(self._tasks[task_id])
            for dependent in dependents[task_id]:
                waiting[dependent] -= 1
                if waiting[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._tasks):
            stuck = sorted(tid for tid, count in waiting.items() if count > 0)
            raise TaskGraphCycleError(
                "task graph contains a dependency cycle involving: " + ", ".join(stuck)
            )
        return order


# ---------------------------------------------------------------------------
# payload references
# ---------------------------------------------------------------------------


def resolve(fn: Any) -> Callable[..., Any]:
    """The callable a task runs.

    A worker task's ``fn`` is either a callable or a ``"module:function"``
    reference to one.  A reference is looked up when the task runs, so a
    graph can be declared, and run on cache hits alone, without importing
    the modules its payloads live in (:mod:`repro.eval.worker`,
    :mod:`repro.explore.evaluate`, ...).
    """
    if not isinstance(fn, str):
        return fn
    module, _, name = fn.partition(":")
    return getattr(importlib.import_module(module), name)


# ---------------------------------------------------------------------------
# node constructors (used by EvaluationHarness.declare_*)
# ---------------------------------------------------------------------------


def compile_task(name: str, config: CompilerConfig, key: str) -> Task:
    """The compile node for one workload (id ``compile:<name>``).

    *key* is its :func:`~repro.eval.cache.compile_key`; the harness computes
    it once per workload and passes it to every node of that workload.
    """
    return Task(
        task_id=f"compile:{name}",
        kind=KIND_COMPILE,
        fn="repro.eval.worker:compute_compile",
        args=(name, config, key),
        key=key,
        serializer="artifact",
        workload=name,
    )


def runtime_task(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    runtime: RuntimeConfig,
    label: str,
    parent: str,
) -> Task:
    """One queue-latency/depth sweep-point node depending on its compile node
    (whose key is *parent*)."""
    return Task(
        task_id=f"sweep:{label}",
        kind=KIND_RUNTIME,
        fn="repro.eval.worker:compute_runtime_point",
        args=(name, config, cache_root, runtime, parent),
        deps=(f"compile:{name}",),
        key=derived_key(parent, "runtime", runtime.to_dict()),
        serializer="json",
        workload=name,
    )


def explore_task_id(name: str, candidate: Any) -> str:
    """The deterministic task id of one (workload, candidate) node."""
    return f"explore:{name}:{candidate.short_id()}"


def explore_task(
    task_id: str,
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    point_config: CompilerConfig,
    parent: str,
) -> Task:
    """One design-point node: *name*'s compile (config *config*, key
    *parent*) re-partitioned and re-simulated under *point_config*.

    The key hashes *point_config* whole, so two declarations of one
    configuration (a split point and the exploration candidate it equals)
    are twins that compute once.  The payload is
    :func:`repro.explore.evaluate.compute_explore_point`.
    """
    return Task(
        task_id=task_id,
        kind=KIND_EXPLORE,
        fn="repro.explore.evaluate:compute_explore_point",
        args=(name, config, cache_root, point_config, parent),
        deps=(f"compile:{name}",),
        key=derived_key(parent, "explore", point_config.to_dict()),
        serializer="json",
        workload=name,
    )


def aggregate_task(
    task_id: str,
    fn: Callable[..., Any],
    deps: Sequence[str],
    args: Tuple[Any, ...] = (),
) -> Task:
    """A parent-side aggregation node (rows/tables from dependency values)."""
    return Task(
        task_id=task_id,
        kind=KIND_AGGREGATE,
        fn=fn,
        args=args,
        deps=tuple(deps),
        key=None,
    )


def render_task(
    figure_id: str,
    fn: Any,
    deps: Sequence[str],
    dep_keys: Sequence[str],
    agg_arg: Any,
    cache_root: Optional[str],
) -> Task:
    """One figure-render node (id ``render:<figure_id>``).

    A render is a worker task like any sweep point: *fn* (a payload such as
    :func:`repro.eval.renders.compute_figure_render`, or a reference to
    one) rebuilds the
    figure's input mapping from the shared cache using the dependency task
    ids and content keys, aggregates it and returns the SVG markup.  The
    node is keyed by :func:`repro.eval.cache.render_key` over the dependency
    keys, so a warm run re-renders nothing and figures fan out across the
    pool on cold runs.  When the scheduler runs a render *inline* it passes
    the in-memory dependency values instead (see
    :meth:`TaskScheduler._run_task_inline`), so ``--no-cache`` runs render
    without re-reading anything.
    """
    return Task(
        task_id=f"render:{figure_id}",
        kind=KIND_RENDER,
        fn=fn,
        args=(figure_id, tuple(deps), tuple(dep_keys), agg_arg, cache_root),
        deps=tuple(deps),
        key=render_key(figure_id, list(dep_keys)),
        serializer="json",
    )


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------


@dataclass
class TaskOutcome:
    """One finished worker task as reported by the pool."""

    task: Task
    value: Any = None


#: How :func:`place` chose a task for a slot: the slot already ran its
#: workload, no busy slot holds it, or every pending workload is held
#: elsewhere and the slot takes the oldest task anyway.
PLACED_RESIDENT = "resident"
PLACED_FREE = "free"
PLACED_STOLEN = "stolen"


def place(
    pending: Sequence[Task], resident: Sequence[AbstractSet[str]], idle: Sequence[int]
) -> Tuple[int, int, str]:
    """Pick the next (slot, index into *pending*, placement) for the pool.

    *resident[s]* holds the workloads slot *s* has run (its process keeps
    their artifacts); *idle* lists the idle slots, lowest first.  The rule,
    oldest task first at each step:

    1. a task whose workload an idle slot already ran goes to that slot;
    2. else a task whose workload no busy slot holds (a compile, a render)
       goes to the first idle slot;
    3. else the first idle slot steals the oldest task and rebuilds its
       workload's state.

    Both lists must be non-empty; some task is always placed, so no slot
    idles while a task is pending.
    """
    for index, task in enumerate(pending):
        for slot in idle:
            if task.workload in resident[slot]:
                return slot, index, PLACED_RESIDENT
    # No idle slot holds a pending workload, so of those workloads only
    # busy slots hold any.
    held: Set[str] = set().union(*resident)
    for index, task in enumerate(pending):
        if task.workload not in held:
            return idle[0], index, PLACED_FREE
    return idle[0], 0, PLACED_STOLEN


class _RemoteTraceback(Exception):
    """A pool worker's traceback, chained under the exception it raised."""


class LocalProcessExecutor:
    """Run worker tasks on N one-process slots (``--parallel N``).

    Each slot is one long-lived ``fork``-context process fed over one
    ``multiprocessing.Pipe``; the parent waits on the pipes with
    ``multiprocessing.connection.wait`` and starts no thread, so every slot
    forks a single-threaded process.  A slot's sweep-input memo keeps the
    full compile results it computed or built, and with them each trace's
    replay index, setups and schedules.  :meth:`submit` therefore takes a
    task off the scheduler's pending list only for an idle slot, picked by
    :func:`place` so that a workload's sweep points follow its compile.

    The scheduler owns graph order, seeds, cache pre-checks and aggregate
    nodes; the slots only run keyed worker payloads and report
    :class:`TaskOutcome`\\ s back, each value over the pipe (see
    :func:`repro.eval.worker._execute_in_worker`);
    each slot is forked on its first task, after the parent has imported
    :data:`WORKER_MODULES`, so cache-warm runs never fork at all, and never
    import the stages either.
    """

    def __init__(self, jobs: int):
        # Honour the requested degree rather than capping at os.cpu_count():
        # in cgroup-limited containers the reported count is often wrong, and
        # an explicit --parallel N is an informed opt-in.
        self.max_workers = max(1, min(jobs, 32))
        self._slots: List[Optional[Tuple[Any, Connection]]] = [None] * self.max_workers
        self._resident: List[Set[str]] = [set() for _ in range(self.max_workers)]
        self._running: Dict[int, Task] = {}

    def idle_slots(self) -> List[int]:
        """The slots running no task, lowest first."""
        return [slot for slot in range(self.max_workers) if slot not in self._running]

    def _fork_slot(self, tasks: Sequence[Task]) -> Tuple[Any, Connection]:
        # A forked worker starts with what the parent has imported: import
        # the stages here, once, so that no worker imports them.  The figure
        # renderer comes too only if one of *tasks* is a render.
        modules = WORKER_MODULES
        if any(task.kind == KIND_RENDER for task in tasks):
            modules += RENDER_MODULES
        if not all(module in sys.modules for module in modules):
            with obs_tracing.span("import worker modules", kind="import"):
                for module in modules:
                    importlib.import_module(module)
        import multiprocessing

        from repro.eval.worker import _slot_main

        context = multiprocessing.get_context("fork")
        conn, child_conn = context.Pipe()
        process = context.Process(target=_slot_main, args=(child_conn, conn), daemon=True)
        process.start()
        child_conn.close()
        return process, conn

    def submit(self, pending: List[Task], cache: Optional[ArtifactCache]) -> Task:
        """Take the task :func:`place` picks off *pending*, start it on its
        idle slot and return it.  Call only while :meth:`idle_slots` is
        non-empty."""
        slot, index, placement = place(pending, self._resident, self.idle_slots())
        task = pending.pop(index)
        if self._slots[slot] is None:
            self._slots[slot] = self._fork_slot([task, *pending])
        if task.workload is not None:
            self._resident[slot].add(task.workload)
        trace_ctx = obs_tracing.wire_context()
        if trace_ctx is not None:
            trace_ctx = {
                **trace_ctx,
                "task_id": task.task_id,
                "kind": task.kind,
                "resident": placement == PLACED_RESIDENT,
                "stolen": placement == PLACED_STOLEN,
            }
        self._slots[slot][1].send(
            (
                task.fn,
                task.args,
                task.key,
                cache.spec if cache is not None else None,
                task.serializer,
                trace_ctx,
            )
        )
        self._running[slot] = task
        return task

    def wait(self) -> List[TaskOutcome]:
        """Block until at least one submitted task finishes; return outcomes.

        A task that raised re-raises here with the worker's traceback as its
        cause, and a worker that died raises :class:`TaskGraphError` naming
        its task (both fatal for the run).
        """
        from multiprocessing.connection import wait as wait_ready

        slots = {self._slots[slot][1]: slot for slot in self._running}
        outcomes: List[TaskOutcome] = []
        for conn in wait_ready(list(slots)):
            slot = slots[conn]
            task = self._running.pop(slot)
            try:
                ok, payload = conn.recv()
            except EOFError:
                process = self._slots[slot][0]
                process.join()
                raise TaskGraphError(
                    f"pool worker running task '{task.task_id}' died "
                    f"(exit code {process.exitcode})"
                ) from None
            if not ok:
                exc, remote = payload
                raise exc from _RemoteTraceback(remote)
            perf.merge(payload["stages"])
            outcomes.append(TaskOutcome(task=task, value=payload["value"]))
        return outcomes

    def __enter__(self) -> "LocalProcessExecutor":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close(interrupt=exc_type is not None)

    def close(self, interrupt: bool = False) -> None:
        """Shut every slot down; with ``interrupt=True``, abandon in-flight
        work and terminate the worker processes.  Idempotent, and a later
        :meth:`submit` forks fresh slots."""
        slots, self._slots = self._slots, [None] * self.max_workers
        self._running.clear()
        for resident in self._resident:
            resident.clear()
        for entry in slots:
            if entry is None:
                continue
            process, conn = entry
            if interrupt:
                # A Ctrl-C should not wait out a multi-second compile.
                process.terminate()
            else:
                try:
                    conn.send(None)
                except OSError:  # the worker is already gone
                    pass
            process.join()
            conn.close()


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


class TaskScheduler:
    """Executes a :class:`TaskGraph`, honouring dependencies.

    One ready-queue loop runs every graph.  A task becomes ready when its
    last dependency completes, and dependents are listed in declaration
    order.  Seeded, cached and aggregate tasks complete in the parent at
    once.  Worker tasks then go one of two ways:

    * ``jobs <= 1`` (or ``None``): they too run in the parent as soon as
      they are ready, so the run order is exactly
      :meth:`TaskGraph.topological_order`;
    * ``jobs > 1``: they wait in a pending list and start on the idle slots
      of a :class:`LocalProcessExecutor` (a workload's tasks follow it to
      the slot that ran it).  A compile's summary comes back over the
      pipe, and its full result stays in its slot's memo for the points
      that follow it there.  *pool* is a :class:`LocalProcessExecutor`
      the caller owns and keeps across runs (its slots keep their memos);
      without it a run with ``jobs > 1`` forks its own and shuts it down at
      the end.

    Keyed tasks are memoised through *cache* (parent-side pre-check, then
    ``get_or_compute`` under the per-key lock).  *seeds* maps task ids to
    already-known values (the harness's in-memory layer), which count as
    completed without running anything.

    A run that fails, or is interrupted (:class:`KeyboardInterrupt`), shuts
    down at once: every slot is closed in interrupt mode (its process
    terminated) and the per-key lock files of in-flight and pending tasks
    are removed, so an aborted run leaves no stale single-flight state
    behind.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cache: Optional[ArtifactCache] = None,
        jobs: Optional[int] = None,
        seeds: Optional[Mapping[str, Any]] = None,
        pool: Optional[LocalProcessExecutor] = None,
    ):
        self.graph = graph
        self.cache = cache
        self.jobs = jobs
        self.pool = pool
        self.seeds = dict(seeds or {})
        #: Execution statistics of the last :meth:`run` — how each task was
        #: satisfied.  Purely observational (the HTML report's "cache hit
        #: stats" and the warm-run re-render assertions read it); only
        #: order-independent counts, so serial and parallel runs agree.
        self.stats: Dict[str, Any] = {
            "total": len(graph),
            "seeded": 0,
            "cache_hits": 0,
            "executed": {},
            "cache_hit_kinds": {},
        }

    def _count_seeded(self, task: Task) -> None:
        self.stats["seeded"] += 1

    def _count_hit(self, task: Task) -> None:
        self.stats["cache_hits"] += 1
        kinds = self.stats["cache_hit_kinds"]
        kinds[task.kind] = kinds.get(task.kind, 0) + 1

    def _count_executed(self, task: Task) -> None:
        executed = self.stats["executed"]
        executed[task.kind] = executed.get(task.kind, 0) + 1

    # -- execution -----------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute every task; returns ``{task_id: value}`` for the whole graph."""
        with obs_tracing.span("scheduler.run", kind="scheduler", tasks=len(self.graph)):
            self.graph.topological_order()  # rejects cycles and dangling deps
            if self.pool is not None:
                return self._run(self.pool)
            jobs = self.jobs or 1
            if jobs <= 1:
                return self._run(None)
            with LocalProcessExecutor(jobs) as pool:
                return self._run(pool)

    def _cached_or_none(self, task: Task) -> Optional[Any]:
        if task.key is not None and self.cache is not None:
            return self.cache.get(task.key)
        return None

    def _run_task_inline(self, task: Task, results: Dict[str, Any]) -> Any:
        if not task.runs_in_worker():
            return task.fn(results, *task.args)
        fn = resolve(task.fn)
        kwargs: Dict[str, Any] = {}
        if task.kind == KIND_RENDER:
            # Inline renders aggregate straight from the in-memory dependency
            # values (all completed before this point) instead of re-reading
            # the shared cache — which also makes --no-cache runs renderable.
            kwargs["values"] = {dep: results[dep] for dep in task.deps}
        if task.key is not None and self.cache is not None:
            return self.cache.get_or_compute(
                task.key, lambda: fn(*task.args, **kwargs), serializer=task.serializer
            )
        return fn(*task.args, **kwargs)

    def _obs_mark(self, task: Task, **attrs: Any) -> None:
        """Record a zero-duration span for a node satisfied without running
        (seed / parent-side cache hit / parked twin), so a trace covers every
        scheduled node, not just the executed ones."""
        with obs_tracing.span(f"task:{task.task_id}", kind=task.kind, worker="parent", **attrs):
            pass

    def _sweep_locks(self, tasks: Sequence[Task]) -> None:
        """Abort cleanup: drop the per-key lock files of abandoned tasks."""
        if self.cache is None:
            return
        for task in tasks:
            if task.key is not None:
                self.cache.discard_lock_file(task.key)

    def _run(self, pool: Optional[LocalProcessExecutor]) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        dependents: Dict[str, List[Task]] = {t.task_id: [] for t in self.graph}
        for task in self.graph:
            for dep in task.deps:
                dependents[dep].append(task)
        waiting: Dict[str, int] = {t.task_id: len(t.deps) for t in self.graph}
        ready: deque = deque(t for t in self.graph if not t.deps)
        # Worker tasks wait here, oldest first, until the pool has an idle
        # slot for them (see LocalProcessExecutor.submit).
        pending: List[Task] = []
        in_flight: Dict[str, Task] = {}
        # Distinct task ids can share one content key (e.g. the latency-2 and
        # depth-8 sweep points are both the default runtime config, and a
        # split point is the exploration candidate of its config).  With a
        # cache, only one such task is pending or in flight; the twins park
        # here and complete as cache hits off the owner's value — exactly how
        # an inline run resolves them, so the run statistics stay
        # scheduling-invariant.  Without one, an inline run executes every
        # twin, and so does the pool.
        owned_keys: Set[str] = set()
        parked: Dict[str, List[Task]] = {}

        def complete(task: Task, value: Any) -> None:
            results[task.task_id] = value
            for dependent in dependents[task.task_id]:
                waiting[dependent.task_id] -= 1
                if waiting[dependent.task_id] == 0:
                    ready.append(dependent)

        def complete_with_twins(task: Task, value: Any) -> None:
            complete(task, value)
            if task.key is not None:
                owned_keys.discard(task.key)
                for twin in parked.pop(task.key, ()):  # noqa: B905 - list default
                    self._count_hit(twin)
                    self._obs_mark(twin, cache_hit=True)
                    complete(twin, value)

        current: Optional[Task] = None
        try:
            while ready or pending or in_flight:
                while ready:
                    task = current = ready.popleft()
                    if task.task_id in self.seeds:
                        self._count_seeded(task)
                        self._obs_mark(task, seeded=True)
                        complete(task, self.seeds[task.task_id])
                        continue
                    hit = self._cached_or_none(task)
                    if hit is not None:
                        self._count_hit(task)
                        self._obs_mark(task, cache_hit=True)
                        complete(task, hit)
                        continue
                    if pool is None or not task.runs_in_worker():
                        with obs_tracing.span(
                            f"task:{task.task_id}", kind=task.kind, worker="parent",
                            cache_hit=False,
                        ):
                            value = self._run_task_inline(task, results)
                        self._count_executed(task)
                        complete(task, value)
                        continue
                    if task.key is not None and task.key in owned_keys:
                        parked.setdefault(task.key, []).append(task)
                        continue
                    pending.append(task)
                    if task.key is not None and self.cache is not None:
                        owned_keys.add(task.key)
                current = None
                while pending and pool.idle_slots():
                    task = pool.submit(pending, self.cache)
                    self._count_executed(task)
                    in_flight[task.task_id] = task
                if in_flight:
                    for outcome in pool.wait():
                        task = outcome.task
                        in_flight.pop(task.task_id, None)
                        complete_with_twins(task, outcome.value)
        except BaseException:
            if pool is not None:
                pool.close(interrupt=True)
            abandoned = list(in_flight.values()) + pending
            if current is not None and current.task_id not in in_flight:
                abandoned.append(current)
            self._sweep_locks(abandoned)
            raise
        return results
