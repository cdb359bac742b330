"""The ``repro worker serve`` daemon: long-poll, execute, publish, repeat.

A worker is stateless and owns no scheduling decisions: it registers with a
coordinator (``repro report --workers`` embeds one), long-polls
``/tasks/lease`` for ready task specs, executes each through the same pure
payload functions the local process pool uses, and publishes the result via
its configured cache backend — a shared directory or, more usefully across
machines, an ``http://`` cache-service URL.  Only the small completion
notice (and, for JSON-serialised sweep values, the value itself) crosses
the coordinator wire; compile artifacts stay in the cache and are
reported as ``in_cache``.

A background thread heartbeats at a third of the coordinator's lease
timeout, renewing the leases this worker holds; if the worker dies, the
missing heartbeats let the coordinator reassign its tasks.  The worker
exits when the coordinator says ``shutdown`` (the run finished), when the
coordinator becomes unreachable after successful registration (the parent
exited), or after ``--max-tasks`` tasks (useful for tests and draining).
``repro worker serve --pool N`` (:func:`run_worker_pool`) supervises N of
these loops as child processes from one daemon.

Failure-injection hook for tests: when the ``REPRO_WORKER_SELF_DESTRUCT``
environment variable is set and its value is a substring of a leased task
id, the worker hard-exits (``os._exit``) *before* executing — simulating a
crash mid-task so reassignment paths can be exercised end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import RemoteError
from repro.eval.cache import ArtifactCache
from repro.eval.remote import protocol
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import tracing as obs_tracing
from repro.obs.logs import get_logger

#: Test hook: crash (os._exit) on leasing a task whose id contains this value.
SELF_DESTRUCT_ENV = "REPRO_WORKER_SELF_DESTRUCT"

#: Consecutive unreachable-coordinator polls tolerated after registration
#: before the worker concludes the run is over and exits cleanly.
MAX_CONSECUTIVE_FAILURES = 5

_TASKS_EXECUTED = obs_metrics.counter(
    "repro_worker_tasks_executed_total", "Task specs this worker process executed, by outcome."
)


def _log(message: str, verbose: bool) -> None:
    # Per-task chatter logs at DEBUG; the logger is forced to DEBUG when the
    # worker runs with verbose=True, preserving the historical --verbose
    # behaviour while $REPRO_LOG_LEVEL filters everything else.
    get_logger("worker", verbose=verbose).debug(message)


def _register(
    coordinator_url: str, name: Optional[str], startup_timeout: float, verbose: bool
) -> Dict[str, Any]:
    """Register with the coordinator, retrying until it comes up."""
    deadline = time.time() + startup_timeout
    while True:
        try:
            response = protocol.http_post_json(
                f"{coordinator_url}/workers/register", {"name": name}, timeout=10.0
            )
            if response.get("shutdown"):
                raise RemoteError("coordinator is already shutting down")
            return response
        except protocol.TRANSPORT_ERRORS as exc:
            if time.time() >= deadline:
                raise RemoteError(
                    f"coordinator at {coordinator_url} unreachable for "
                    f"{startup_timeout:.0f}s: {exc}"
                ) from exc
            _log(f"waiting for coordinator at {coordinator_url} ...", verbose)
            time.sleep(0.5)


def _execute_spec(
    spec: Dict[str, Any], cache: ArtifactCache, worker_id: Optional[str] = None
) -> Dict[str, Any]:
    """Run one decoded task spec; returns the completion payload fields.

    When the spec carries trace context (the submitting scheduler was
    traced), the task span recorded here re-parents under that scheduler's
    span, so a distributed run still yields one coherent trace.
    """
    start = time.time()
    trace_ctx = spec.get("trace") or {}
    obs_profile.count(f"task.{spec.get('kind', 'task')}")
    try:
        with obs_tracing.activate(trace_ctx.get("trace_id"), trace_ctx.get("parent_id")):
            with obs_tracing.span(
                f"task:{spec.get('task_id', '?')}",
                kind=str(spec.get("kind", "task")),
                worker=worker_id or f"pid:{os.getpid()}",
                attempt=spec.get("attempt", 1),
            ):
                task_id, fn, args, key, serializer = protocol.decode_task(spec, cache.spec)
                value = cache.get_or_compute(key, lambda: fn(*args), serializer=serializer)
        _TASKS_EXECUTED.inc(outcome="ok")
        if serializer == "artifact":
            # The artifact is in the shared cache; don't ship it again.
            return {"ok": True, "in_cache": True, "value": None, "start": start, "end": time.time()}
        return {"ok": True, "in_cache": False, "value": value, "start": start, "end": time.time()}
    except Exception as exc:  # deterministic failures go back to the parent
        _TASKS_EXECUTED.inc(outcome="error")
        return {
            "ok": False,
            "in_cache": False,
            "value": None,
            "error": f"{type(exc).__name__}: {exc}",
            "start": start,
            "end": time.time(),
        }


def run_worker(
    coordinator_url: str,
    cache_spec: Optional[str] = None,
    name: Optional[str] = None,
    startup_timeout: float = 120.0,
    poll_wait: float = 10.0,
    max_tasks: Optional[int] = None,
    verbose: bool = False,
) -> int:
    """Serve tasks until the coordinator ends the run; returns an exit code.

    *cache_spec* addresses the artifact store this worker publishes through
    (path or URL; defaults to ``$REPRO_CACHE_DIR`` / ``./.repro_cache``) —
    for a multi-host run it must name the same store the parent reads.
    """
    coordinator_url = coordinator_url.strip().rstrip("/")
    if not coordinator_url.startswith(("http://", "https://")):
        # Accept the bare HOST:PORT form that `repro report --workers` takes,
        # so copying an address between the two commands just works.
        coordinator_url = f"http://{coordinator_url}"
    obs_tracing.set_service("worker")
    obs_metrics.install_stage_observer()
    obs_profile.maybe_start(service="worker")
    cache = ArtifactCache.from_spec(cache_spec)
    registration = _register(coordinator_url, name, startup_timeout, verbose)
    worker_id = registration["worker_id"]
    lease_timeout = float(registration.get("lease_timeout", 60.0))
    _log(f"registered as {worker_id} (lease timeout {lease_timeout:.0f}s)", verbose)

    stop = threading.Event()
    # The task currently being executed, as seen by the heartbeat thread.
    # Heartbeats renew only this lease: a finished task whose completion
    # notice was lost must be allowed to expire and be reassigned, or the
    # run would wait on it forever.  "trace" carries the current task's
    # trace id so the coordinator can attribute a stuck worker to a trace.
    active: Dict[str, Optional[str]] = {"task": None, "trace": None}

    def heartbeat_loop() -> None:
        interval = max(0.5, lease_timeout / 3.0)
        while not stop.wait(interval):
            current = active["task"]
            try:
                response = protocol.http_post_json(
                    f"{coordinator_url}/workers/heartbeat",
                    {
                        "worker_id": worker_id,
                        "tasks": [current] if current else [],
                        "trace_id": active["trace"],
                    },
                    timeout=10.0,
                )
                if response.get("shutdown"):
                    stop.set()
            except protocol.TRANSPORT_ERRORS:
                pass  # the main loop notices persistent unreachability

    heartbeat = threading.Thread(target=heartbeat_loop, daemon=True)
    heartbeat.start()

    self_destruct = os.environ.get(SELF_DESTRUCT_ENV, "")
    executed = 0
    failures = 0
    try:
        while not stop.is_set():
            try:
                response = protocol.http_post_json(
                    f"{coordinator_url}/tasks/lease",
                    {"worker_id": worker_id, "wait": poll_wait},
                    timeout=poll_wait + 15.0,
                )
            except protocol.TRANSPORT_ERRORS:
                failures += 1
                if failures >= MAX_CONSECUTIVE_FAILURES:
                    _log("coordinator gone; exiting", verbose)
                    break
                time.sleep(1.0)
                continue
            failures = 0
            if response.get("shutdown"):
                _log("coordinator finished the run; exiting", verbose)
                break
            spec = response.get("task")
            if not spec:
                continue
            task_id = spec.get("task_id", "?")
            if self_destruct and self_destruct in task_id:
                _log(f"self-destruct on {task_id}", verbose)
                os._exit(17)
            _log(f"executing {task_id} (attempt {spec.get('attempt', 1)})", verbose)
            active["task"] = task_id
            active["trace"] = (spec.get("trace") or {}).get("trace_id")
            try:
                outcome = _execute_spec(spec, cache, worker_id=worker_id)
            finally:
                active["task"] = None
                active["trace"] = None
            for attempt in range(3):
                try:
                    protocol.http_post_json(
                        f"{coordinator_url}/tasks/complete",
                        {"worker_id": worker_id, "task_id": task_id, **outcome},
                        timeout=30.0,
                    )
                    break
                except protocol.TRANSPORT_ERRORS:
                    # Transient: retry; if the coordinator is really gone,
                    # give up — heartbeats no longer renew this lease, so it
                    # expires and another worker re-leases the task, hitting
                    # the cache entry we already wrote.
                    if attempt == 2:
                        _log(f"could not report completion of {task_id}", verbose)
                    else:
                        time.sleep(0.5)
            executed += 1
            if max_tasks is not None and executed >= max_tasks:
                _log(f"reached --max-tasks {max_tasks}; exiting", verbose)
                break
    finally:
        stop.set()
        # Flush telemetry now rather than trusting atexit: a pool child
        # exits via sys.exit inside multiprocessing.
        obs_tracing.shutdown()
    return 0


def _pool_child(kwargs: Dict[str, Any]) -> None:
    """Entry point of one pool member process (module-level for spawn)."""
    sys.exit(run_worker(**kwargs))


def run_worker_pool(pool: int, name: Optional[str] = None, **kwargs: Any) -> int:
    """``repro worker serve --pool N``: one daemon driving N executor processes.

    Replaces N foreground ``repro worker serve`` invocations: each child is a
    full :func:`run_worker` loop (own registration, own heartbeats, so a
    crashed member's leases expire independently), named ``<name>-<i>`` when
    a stable ``--name`` was given.  The parent just supervises: it waits for
    the children to observe the coordinator's shutdown and exit, forwards
    Ctrl-C as termination, and returns the worst child exit code.  Children
    inherit the environment, so ``$REPRO_SERVICE_TOKEN`` applies pool-wide.
    """
    if pool < 1:
        raise ValueError(f"pool size must be >= 1, got {pool}")
    members: List[multiprocessing.Process] = []
    for index in range(1, pool + 1):
        child_kwargs = dict(kwargs, name=f"{name}-{index}" if name else None)
        process = multiprocessing.Process(
            target=_pool_child, args=(child_kwargs,), name=f"repro-worker-{index}"
        )
        process.daemon = False  # members must outlive transient parent hiccups
        process.start()
        members.append(process)
    _log(f"pool of {pool} workers started (pids {[p.pid for p in members]})",
         kwargs.get("verbose", False))
    try:
        for process in members:
            process.join()
    except KeyboardInterrupt:
        for process in members:
            if process.is_alive():
                process.terminate()
        for process in members:
            process.join(timeout=10)
        return 130
    # Normalise to shell convention: a member killed by signal N has
    # exitcode -N, which must read as failure (128+N), never as success.
    codes = [
        (128 - code) if (code := process.exitcode or 0) < 0 else code
        for process in members
    ]
    return max(codes, default=0)
