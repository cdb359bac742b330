"""The worker side of the task graph: task payloads and a pool slot's loop.

A task names its payload by reference (``"repro.eval.worker:compute_compile"``,
see :func:`repro.eval.taskgraph.resolve`), so declaring a graph, or
running one whose every node is a cache hit, never loads this module.  It
loads in a process that computes something: the parent of a serial run
resolving its first payload, or a ``-j N`` parent before its first slot
forks (:data:`repro.eval.taskgraph.WORKER_MODULES`).
"""

from __future__ import annotations

import os
import sys
import traceback
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro import perf
from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import TaskGraphError
from repro.eval import taskgraph
from repro.eval.cache import ArtifactCache
from repro.obs import tracing as obs_tracing
from repro.results import CompilationResult
from repro.workloads import get_workload

if TYPE_CHECKING:  # multiprocessing loads only when a pool slot forks
    from multiprocessing.connection import Connection


def _compiler(config: CompilerConfig) -> Any:
    """A :class:`~repro.core.compiler.TwillCompiler` for *config*.

    The first call in a process imports the pipeline.  That import gets a
    span of kind ``import``, so a trace shows it as a layer of its own
    rather than as self time of the cache lookup around it.
    """
    if "repro.core.compiler" not in sys.modules:
        with obs_tracing.span("import repro.core.compiler", kind="import"):
            import repro.core.compiler  # noqa: F401
    from repro.core.compiler import TwillCompiler

    return TwillCompiler(config)


def compute_compile(name: str, config: CompilerConfig) -> CompilationResult:
    """Pure compile payload: run the whole pipeline for one workload."""
    return _compiler(config).compile_and_simulate(get_workload(name).source, name=name)


def sweep_input(
    name: str, config: CompilerConfig, cache_root: Optional[str], key: str
) -> CompilationResult:
    """The compile artifact a sweep point re-simulates: memo → cache → build.

    The memo is :data:`repro.eval.taskgraph._SWEEP_INPUT_MEMO`.
    *cache_root* is the cache directory, so the same payload runs unchanged
    in the parent and in a pool worker.  *key* is the artifact's
    :func:`~repro.eval.cache.compile_key`, computed once where the task was
    declared.  Without a cache, a miss runs the pipeline up to DSWP and
    LegUp (:meth:`~repro.core.compiler.TwillCompiler.build`) and none of
    the replays; the result's ``system`` is then ``None``, which no sweep
    point reads.
    """
    memo = taskgraph._SWEEP_INPUT_MEMO
    hit = memo.get(key)
    if hit is not None:
        memo.move_to_end(key)
        return hit
    if cache_root is not None:
        result = ArtifactCache(cache_root).get_or_compute(
            key, lambda: compute_compile(name, config), serializer="artifact"
        )
    else:
        fields = _compiler(config).build(get_workload(name).source, name)
        result = CompilationResult(name=name, system=None, **fields)
    taskgraph.seed_sweep_input(key, result)
    return result


def compute_runtime_point(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    runtime: RuntimeConfig,
    compile_key: str,
) -> float:
    """One Figure 6.5/6.6 sweep point: Twill cycles under a modified runtime."""
    from repro.sim.timing import simulate_partitioned

    result = sweep_input(name, config, cache_root, compile_key)
    timing = simulate_partitioned(
        result.module, result.execution.trace, result.dswp.partitioning, runtime, config.hls
    )
    return timing.total_cycles


def compute_split_point(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    sw_fraction: float,
    compile_key: str,
) -> Dict[str, float]:
    """One Figure 6.3/6.4 sweep point: re-partition at *sw_fraction*."""
    from repro.sim.system import resimulate_with_split

    result = sweep_input(name, config, cache_root, compile_key)
    dswp, system = resimulate_with_split(
        result.name,
        result.module,
        result.execution.trace,
        result.profile,
        result.legup,
        config,
        sw_fraction,
    )
    return {
        "cycles": system.twill.cycles,
        "queues": float(dswp.partitioning.total_queues),
        "speedup_vs_sw": system.speedup_vs_software,
    }


def _execute_in_worker(
    fn: Any,
    args: Tuple[Any, ...],
    key: Optional[str],
    cache_spec: Optional[str],
    serializer: str,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Pool-worker entry: run one task payload through the shared cache.

    *fn* is a payload reference or a callable (see
    :func:`repro.eval.taskgraph.resolve`).  ``get_or_compute`` gives
    single-flight semantics per key, so two workers (or two independent
    ``repro`` processes) racing on the same content address do the work
    once and share the stored entry.  Returns a small envelope dict:
    compile artifacts come back with ``in_cache=True`` (the parent re-reads
    them from the cache, decoding only their summary) while other values,
    and a compile without a cache, ride in ``value`` directly.  ``stages``
    holds the :class:`repro.perf.StageTimings` of the run, which the parent
    adds to its own collector.

    A compile artifact also goes into this process's sweep-input memo,
    cache or not, so the sweep, split and explore points the pool places
    here next reuse the same ``Trace`` object with its replay index, setups
    and schedules.

    *trace_ctx* carries the parent's span context (plus task id, kind and
    placement) across the process boundary: thread-local trace state does
    not survive a fork, so when ``$REPRO_TRACE`` is active in this child the
    task span recorded here is re-parented under the scheduler's span
    explicitly.
    """
    from repro.obs import profile as obs_profile

    # Pool children inherit $REPRO_PROFILE: start this child's sampler on
    # its first task (idempotent, one dict lookup afterwards) and count the
    # execution exactly — the deterministic complement to the samples.
    obs_profile.maybe_start(service="pool")
    ctx = trace_ctx or {}
    obs_profile.count(f"task.{ctx.get('kind', 'task')}")
    payload: Callable[..., Any] = taskgraph.resolve(fn)
    with obs_tracing.activate(ctx.get("trace_id"), ctx.get("parent_id")), perf.collect() as stages:
        with obs_tracing.span(
            f"task:{ctx.get('task_id', getattr(payload, '__name__', 'task'))}",
            kind=str(ctx.get("kind", "task")),
            worker=f"pid:{os.getpid()}",
            resident=ctx.get("resident"),
            stolen=ctx.get("stolen"),
        ):
            cached = key is not None and cache_spec is not None
            if cached:
                cache = ArtifactCache(cache_spec)
                value = cache.get_or_compute(key, lambda: payload(*args), serializer=serializer)
            else:
                value = payload(*args)
            if serializer == "artifact" and key is not None:
                taskgraph.seed_sweep_input(key, value)
    in_cache = cached and serializer == "artifact"
    return {"value": None if in_cache else value, "in_cache": in_cache, "stages": stages}


def _slot_main(conn: Connection, parent_end: Connection) -> None:
    """A pool slot's process: run each task the parent sends and reply
    ``(True, envelope)`` or ``(False, (exception, traceback))``.

    It returns when the parent sends ``None`` or goes away, through
    multiprocessing's normal exit path, so finalisers such as the
    ``$REPRO_PROFILE`` dump still run.
    """
    parent_end.close()  # the fork's copy: without it a dead parent is never seen
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        try:
            reply: Tuple[bool, Any] = (True, _execute_in_worker(*message))
        except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises it
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as exc:  # an unpicklable value or exception
            conn.send((False, (TaskGraphError(repr(exc)), traceback.format_exc())))
