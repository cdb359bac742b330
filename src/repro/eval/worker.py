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
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro import perf
from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import TaskGraphError
from repro.eval import taskgraph
from repro.eval.artifact_codec import ArtifactCodecError
from repro.eval.cache import ArtifactCache
from repro.obs import tracing as obs_tracing
from repro.results import CompilationResult, CompileSummary
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


# Per-process memo of the full compile results the runtime and design points
# re-simulate, so a process that runs many points of one workload
# builds (or compiled) it once, and its points replay on one ``Trace`` with
# its replay index, setups and schedules.  Keyed by content address, so a
# stale value is impossible by construction; bounded so long test sessions
# cannot accumulate every compile they ever ran.
_SWEEP_INPUT_MEMO: "OrderedDict[str, CompilationResult]" = OrderedDict()
_SWEEP_INPUT_MEMO_LIMIT = 16


def _remember(key: str, result: CompilationResult) -> None:
    _SWEEP_INPUT_MEMO[key] = result
    _SWEEP_INPUT_MEMO.move_to_end(key)
    while len(_SWEEP_INPUT_MEMO) > _SWEEP_INPUT_MEMO_LIMIT:
        _SWEEP_INPUT_MEMO.popitem(last=False)


def compute_compile(name: str, config: CompilerConfig, key: str) -> CompileSummary:
    """Pure compile payload: run the whole pipeline for one workload.

    The full result goes into this process's sweep-input memo under the
    compile *key*, for the points of this workload that run here next; the
    node's value, and all the cache stores, is its summary.
    """
    result = _compiler(config).compile_and_simulate(get_workload(name).source, name=name)
    _remember(key, result)
    return result.summary()


def sweep_input(
    name: str, config: CompilerConfig, cache_root: Optional[str], key: str
) -> CompilationResult:
    """The full compile result a sweep point re-simulates: memo → build.

    *key* is the compile's :func:`~repro.eval.cache.compile_key`, computed
    once where the task was declared.  A miss runs the pipeline up to DSWP
    and LegUp (:meth:`~repro.core.compiler.TwillCompiler.build`) and none
    of the replays; the result's ``system`` is then ``None``, which no sweep
    point reads.  *cache_root* is the cache directory, so the same payload
    runs unchanged in the parent and in a pool worker.  When it holds the
    compile's summary, the build's outputs and DSWP summary must equal it:
    otherwise the entry is deleted, so the next run recomputes it, and
    :class:`~repro.eval.artifact_codec.ArtifactCodecError` is raised.
    """
    hit = _SWEEP_INPUT_MEMO.get(key)
    if hit is not None:
        _SWEEP_INPUT_MEMO.move_to_end(key)
        return hit
    fields = _compiler(config).build(get_workload(name).source, name)
    result = CompilationResult(name=name, system=None, **fields)
    if cache_root is not None:
        cache = ArtifactCache(cache_root)
        stored = cache.get(key)
        if stored is not None and (
            result.outputs != stored.outputs or result.dswp.summary() != stored.dswp
        ):
            cache.backend.delete(key)
            raise ArtifactCodecError(
                f"compile artifact {key}: a rebuild differs from its stored outputs or DSWP "
                "summary; the entry is deleted and the next run recomputes it"
            )
    _remember(key, result)
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
    ``value`` is the task's value (a compile's is its summary) and
    ``stages`` the :class:`repro.perf.StageTimings` of the run, which the
    parent adds to its own collector.

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
        ):
            if key is not None and cache_spec is not None:
                cache = ArtifactCache(cache_spec)
                value = cache.get_or_compute(key, lambda: payload(*args), serializer=serializer)
            else:
                value = payload(*args)
    return {"value": value, "stages": stages}


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
