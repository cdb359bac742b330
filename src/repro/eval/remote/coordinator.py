"""Task coordinator: the queue remote workers long-poll for ready work.

:class:`Coordinator` is deliberately plain threading code with no HTTP in
it — the full lease/heartbeat/retry state machine is unit-testable by
calling its methods directly (the fake-worker tests do exactly that).
:func:`start_coordinator_server` wraps one in a
:class:`http.server.ThreadingHTTPServer` for real workers.

Lifecycle of one task spec:

1. the executor :meth:`~Coordinator.submit`\\ s it (state *queued*);
2. a worker's long-polling :meth:`~Coordinator.lease` hands out the
   **costliest** ready task (static cost table: compiles before sweep
   points before renders, heavy workloads first, FIFO among equals) with a
   deadline of ``now + lease_timeout`` (state *leased*) — preferring, per
   worker, tasks of workloads that worker already compiled (**affinity
   sharding**: its sweep-input memo is hot), and deferring tasks another
   live worker compiled while other work is available.  Heartbeats renew
   every lease the worker holds;
3. :meth:`~Coordinator.complete` moves it to the completion queue the
   executor drains — or, if the deadline passes first (worker crashed,
   hung, or was killed), the reaper requeues it with ``attempt + 1`` and
   the next ``lease`` hands it to another worker;
4. after ``max_attempts`` lease expiries the task completes with an error
   instead (a poison task must not ping-pong between workers forever).

A completion from a worker whose lease already expired is dropped: the
task was reassigned, and the content-addressed cache makes the duplicate
work harmless (both workers wrote identical bytes under the same key).

HTTP endpoints (JSON bodies both ways): ``POST /workers/register``,
``POST /workers/heartbeat``, ``POST /tasks/lease`` (long-poll, honouring a
client ``wait``), ``POST /tasks/complete``, and ``GET /status`` for
debugging/monitoring.  With a service token configured every endpoint
except ``GET /healthz`` (liveness: role/version/uptime) and ``GET
/metrics`` (Prometheus text exposition of the queue/lease/worker counters
and gauges — docs/OBSERVABILITY.md) requires the shared secret
(docs/DISTRIBUTED.md "Trust model").
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.eval.remote.protocol import (
    check_auth,
    read_json,
    send_json,
    service_token,
    wrap_server_socket,
)
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger

#: Default seconds a leased task may go without a heartbeat before it is
#: presumed lost and requeued.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Default number of lease attempts before a task is declared failed.
DEFAULT_MAX_ATTEMPTS = 3


# -- telemetry (process-local; exposed on GET /metrics) ---------------------------

_TASKS_SUBMITTED = obs_metrics.counter(
    "repro_tasks_submitted_total", "Task specs submitted to the coordinator queue."
)
_TASKS_LEASED = obs_metrics.counter(
    "repro_tasks_leased_total", "Leases handed to workers (requeues lease again)."
)
_TASKS_COMPLETED = obs_metrics.counter(
    "repro_tasks_completed_total", "Accepted task completions, by outcome (ok/error)."
)
_TASKS_REQUEUED = obs_metrics.counter(
    "repro_tasks_requeued_total", "Expired leases requeued for another worker."
)
_TASKS_FAILED = obs_metrics.counter(
    "repro_tasks_failed_total", "Tasks abandoned after exhausting their lease attempts."
)
_LEASE_LATENCY = obs_metrics.histogram(
    "repro_lease_latency_seconds", "Seconds a task spent queued before a worker leased it."
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "repro_queue_depth", "Task specs currently queued, awaiting a lease."
)
_TASKS_INFLIGHT = obs_metrics.gauge(
    "repro_tasks_inflight", "Task specs currently leased to workers."
)
_WORKERS_LIVE = obs_metrics.gauge(
    "repro_workers_live", "Workers heard from within the last lease timeout."
)
_HEARTBEAT_AGE = obs_metrics.gauge(
    "repro_worker_heartbeat_age_seconds", "Seconds since each live worker was last heard."
)
_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_coordinator_request_seconds",
    "Wall-clock seconds spent handling one HTTP request, by method.",
    buckets=obs_metrics.REQUEST_BUCKETS,
)


def _timed_handler(method: Any) -> Any:
    """Wrap a ``do_VERB`` so every request lands in the duration histogram."""
    verb = method.__name__[3:]

    def wrapper(self: Any) -> None:
        started = time.perf_counter()
        try:
            method(self)
        finally:
            _REQUEST_SECONDS.observe(time.perf_counter() - started, method=verb)

    wrapper.__name__ = method.__name__
    wrapper.__doc__ = method.__doc__
    return wrapper


# -- work shaping ----------------------------------------------------------------

#: Static observed-cost model (relative weights, roughly seconds on the CI
#: host).  Ready tasks lease in descending cost order so the long poles —
#: compiles generally, and the heavy workloads within a kind — start first
#: and the makespan is bounded by them instead of by whatever FIFO order the
#: graph happened to declare.  Purely advisory: results are content-addressed,
#: so lease order can never change any output.
KIND_COST: Dict[str, float] = {
    "compile": 100.0,
    "split": 3.0,
    "explore": 3.0,
    "runtime": 2.0,
    "render": 1.0,
}

#: Per-workload multipliers (mpeg2/jpeg dominate; blowfish is the cheapest).
WORKLOAD_COST: Dict[str, float] = {
    "mpeg2": 8.0,
    "jpeg": 6.0,
    "gsm": 4.0,
    "aes": 3.0,
    "adpcm": 2.5,
    "sha": 2.0,
    "mips": 1.5,
    "blowfish": 1.0,
}

#: Multiplier for tasks whose workload is unknown (renders, test payloads).
DEFAULT_WORKLOAD_COST = 2.0


def _spec_workload(spec: Dict[str, Any]) -> Optional[str]:
    workload = spec.get("workload")
    if workload:
        return str(workload)
    # Older specs: recover the workload from the task id's components.
    for part in str(spec.get("task_id", "")).split(":"):
        if part in WORKLOAD_COST:
            return part
    return None


def task_cost(spec: Dict[str, Any]) -> float:
    """Estimated cost of one task spec under the static cost table."""
    base = KIND_COST.get(str(spec.get("kind", "")), 1.0)
    workload = _spec_workload(spec)
    return base * WORKLOAD_COST.get(workload or "", DEFAULT_WORKLOAD_COST)


@dataclass
class _Lease:
    worker_id: str
    deadline: float
    spec: Dict[str, Any] = field(repr=False)


class Coordinator:
    """Thread-safe task queue with worker registration, leases and retries."""

    def __init__(
        self,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self._cond = threading.Condition()
        # A max-cost priority queue: (-cost, sequence, spec).  The sequence
        # number keeps equal-cost tasks FIFO (and the heap total-orderable
        # without comparing dicts).
        self._queue: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = itertools.count()
        self._leases: Dict[str, _Lease] = {}
        self._completions: "deque[Dict[str, Any]]" = deque()
        self._workers: Dict[str, float] = {}
        self._worker_counter = 0
        self._shutdown = False
        # Telemetry bookkeeping: when each queued spec became leasable
        # (lease-latency histogram) and the trace id each worker last
        # reported with its heartbeat (stuck-task attribution).
        self._enqueued_at: Dict[str, float] = {}
        self._worker_traces: Dict[str, Optional[str]] = {}
        # Affinity sharding: workloads each worker has compiled.  A worker
        # whose memo already holds a workload's compile artifact executes
        # that workload's sweep/explore points without re-reading (or
        # recompiling) it, so leases prefer the compiling worker.
        self._affinity: Dict[str, set] = {}

    # -- executor side -------------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> None:
        """Queue one task spec; the next lease pops the costliest ready task."""
        with self._cond:
            spec.setdefault("attempt", 1)
            heapq.heappush(self._queue, (-task_cost(spec), next(self._seq), spec))
            _TASKS_SUBMITTED.inc()
            self._enqueued_at[str(spec.get("task_id", ""))] = time.time()
            self._cond.notify_all()

    def wait_completions(self, timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Block up to *timeout* for completions; drain and return them.

        Also drives the lease reaper, so expired leases requeue even while
        the executor is parked here.
        """
        deadline = None if timeout is None else time.time() + timeout
        with self._cond:
            while True:
                self._reap_locked()
                if self._completions:
                    drained = list(self._completions)
                    self._completions.clear()
                    return drained
                now = time.time()
                if deadline is not None and now >= deadline:
                    return []
                # Short slices keep the reaper responsive to crashed workers.
                slice_end = min(d for d in (deadline, now + 0.5) if d is not None)
                self._cond.wait(max(0.01, slice_end - now))

    def shutdown(self) -> None:
        """End the run: revoke every lease and tell polling workers to exit."""
        with self._cond:
            self._shutdown = True
            self._queue.clear()
            self._leases.clear()
            self._cond.notify_all()

    # -- worker side ---------------------------------------------------------------

    def register(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Admit a worker; returns its id and the lease/heartbeat parameters."""
        with self._cond:
            self._reap_locked()
            self._worker_counter += 1
            worker_id = name or f"worker-{self._worker_counter}"
            if worker_id in self._workers:
                worker_id = f"{worker_id}-{self._worker_counter}"
            self._workers[worker_id] = time.time()
            return {
                "worker_id": worker_id,
                "lease_timeout": self.lease_timeout,
                "shutdown": self._shutdown,
            }

    def heartbeat(
        self,
        worker_id: str,
        tasks: Optional[List[str]] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Mark *worker_id* alive and renew the leases it is working on.

        *tasks* is the list of task ids the worker is currently executing;
        only those leases are renewed, so a task the worker has finished
        (but whose completion notice was lost in transit) stops being
        renewed, expires, and gets reassigned — the replacement worker then
        hits the cache entry the first one already wrote.  ``None`` (an
        older/simpler client) renews everything the worker holds.

        *trace_id* is the trace the worker's current task belongs to (when
        the run is traced); ``/status`` surfaces it per worker so a stuck
        task can be looked up in the trace by id.
        """
        with self._cond:
            now = time.time()
            self._workers[worker_id] = now
            self._worker_traces[worker_id] = trace_id or None
            for task_id, lease in self._leases.items():
                if lease.worker_id == worker_id and (tasks is None or task_id in tasks):
                    lease.deadline = now + self.lease_timeout
            return {"shutdown": self._shutdown}

    def _pop_spec_for(self, worker_id: str) -> Dict[str, Any]:
        """Pop the best queued spec for *worker_id* under affinity sharding.

        Three preference tiers, costliest-first (FIFO tie-break) within each:

        1. compiles (the cost-ordered long poles always start first) and
           tasks of a workload **this** worker compiled (its memo is hot);
        2. tasks no live worker has an affinity claim on (workloads whose
           compiler has since died, tasks without a workload);
        3. tasks another live worker compiled — deferred while tiers 1-2
           have work, but still leased rather than idling the caller
           ("prefer the compiling worker, fall back to any worker").

        Purely advisory, like the cost table: results are content-addressed,
        so placement can never change any output.
        """
        mine = self._affinity.get(worker_id, set())
        best_index = 0
        best_rank: Optional[Tuple[float, float, int]] = None
        for index, (neg_cost, seq, spec) in enumerate(self._queue):
            workload = _spec_workload(spec)
            is_compile = spec.get("kind") == "compile"
            if is_compile or (workload is not None and workload in mine):
                tier = 0.0
            elif workload is not None and any(
                workload in owned
                for owner, owned in self._affinity.items()
                if owner != worker_id and owner in self._workers
            ):
                tier = 2.0
            else:
                tier = 1.0
            rank = (tier, neg_cost, seq)
            if best_rank is None or rank < best_rank:
                best_index, best_rank = index, rank
        _, _, spec = self._queue.pop(best_index)
        heapq.heapify(self._queue)
        return spec

    def lease(self, worker_id: str, wait: float = 10.0) -> Dict[str, Any]:
        """Long-poll for one ready task; returns ``{"task": spec-or-None,
        "shutdown": bool}`` within roughly *wait* seconds."""
        deadline = time.time() + max(0.0, wait)
        with self._cond:
            while True:
                self._reap_locked()
                now = time.time()
                self._workers[worker_id] = now
                if self._shutdown:
                    return {"task": None, "shutdown": True}
                if self._queue:
                    spec = self._pop_spec_for(worker_id)
                    if spec.get("kind") == "compile":
                        workload = _spec_workload(spec)
                        if workload is not None:
                            self._affinity.setdefault(worker_id, set()).add(workload)
                    self._leases[spec["task_id"]] = _Lease(
                        worker_id=worker_id, deadline=now + self.lease_timeout, spec=spec
                    )
                    _TASKS_LEASED.inc()
                    enqueued = self._enqueued_at.pop(str(spec.get("task_id", "")), None)
                    if enqueued is not None:
                        _LEASE_LATENCY.observe(max(0.0, now - enqueued))
                    self._cond.notify_all()
                    return {"task": spec, "shutdown": False}
                if now >= deadline:
                    return {"task": None, "shutdown": False}
                self._cond.wait(min(0.5, deadline - now))

    def complete(
        self,
        worker_id: str,
        task_id: str,
        ok: bool,
        value: Any = None,
        in_cache: bool = False,
        error: Optional[str] = None,
        start: float = 0.0,
        end: float = 0.0,
    ) -> Dict[str, Any]:
        """Record a finished task (or a worker-reported failure)."""
        with self._cond:
            lease = self._leases.get(task_id)
            if lease is None or lease.worker_id != worker_id:
                # Lease expired and the task was reassigned; the duplicate
                # result is already in the cache, so dropping this is safe.
                return {"accepted": False}
            del self._leases[task_id]
            _TASKS_COMPLETED.inc(outcome="ok" if ok else "error")
            self._completions.append(
                {
                    "task_id": task_id,
                    "worker_id": worker_id,
                    "value": value,
                    "in_cache": in_cache,
                    "error": error if not ok else None,
                    "start": start,
                    "end": end,
                }
            )
            self._cond.notify_all()
            return {"accepted": True}

    # -- internals -----------------------------------------------------------------

    def _reap_locked(self) -> None:
        """Requeue (or fail) expired leases and forget silent workers.

        A live worker is heard from every ``lease_timeout / 3`` at the
        latest (heartbeats; idle polls are even more frequent), so one that
        has been silent for a whole lease timeout is gone — pruning it keeps
        ``worker_count`` honest (the executor's no-live-worker watchdog
        depends on that) and frees its stable ``--name`` for a restart.
        """
        now = time.time()
        for worker_id in [w for w, seen in self._workers.items() if now - seen > self.lease_timeout]:
            del self._workers[worker_id]
            self._worker_traces.pop(worker_id, None)
        for task_id in [t for t, lease in self._leases.items() if lease.deadline <= now]:
            lease = self._leases.pop(task_id)
            spec = dict(lease.spec)
            spec["attempt"] = spec.get("attempt", 1) + 1
            if spec["attempt"] <= self.max_attempts:
                heapq.heappush(self._queue, (-task_cost(spec), next(self._seq), spec))
                _TASKS_REQUEUED.inc()
                self._enqueued_at[str(task_id)] = now
            else:
                _TASKS_FAILED.inc()
                self._completions.append(
                    {
                        "task_id": task_id,
                        "worker_id": lease.worker_id,
                        "value": None,
                        "in_cache": False,
                        "error": (
                            f"lease expired {self.max_attempts} times "
                            f"(last worker: {lease.worker_id}); giving up"
                        ),
                        "start": 0.0,
                        "end": 0.0,
                    }
                )
            self._cond.notify_all()

    # -- introspection -------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._cond:
            now = time.time()
            return {
                "queued": len(self._queue),
                "leased": len(self._leases),
                "completions_pending": len(self._completions),
                "workers": sorted(self._workers),
                "worker_detail": {
                    worker: {
                        "heartbeat_age_seconds": round(now - seen, 3),
                        "trace_id": self._worker_traces.get(worker),
                    }
                    for worker, seen in sorted(self._workers.items())
                },
                "shutdown": self._shutdown,
            }

    def update_metrics_gauges(self) -> None:
        """Refresh the point-in-time gauges (called just before a scrape)."""
        with self._cond:
            self._reap_locked()
            now = time.time()
            _QUEUE_DEPTH.set(len(self._queue))
            _TASKS_INFLIGHT.set(len(self._leases))
            _WORKERS_LIVE.set(len(self._workers))
            _HEARTBEAT_AGE.clear()
            for worker, seen in self._workers.items():
                _HEARTBEAT_AGE.set(max(0.0, now - seen), worker=worker)

    @property
    def worker_count(self) -> int:
        with self._cond:
            return len(self._workers)

    @property
    def inflight(self) -> int:
        with self._cond:
            return len(self._queue) + len(self._leases) + len(self._completions)


# ---------------------------------------------------------------------------
# HTTP wrapper
# ---------------------------------------------------------------------------


class CoordinatorHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP facade over one :class:`Coordinator`.

    With a *token* (explicit, ``RuntimeConfig.service_token``, or
    ``$REPRO_SERVICE_TOKEN``) every request except ``GET /healthz`` must
    carry the matching shared secret; mismatches get a 401.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        coordinator: Coordinator,
        verbose: bool = False,
        token: Optional[str] = None,
    ):
        super().__init__(address, _CoordinatorRequestHandler)
        self.coordinator = coordinator
        self.verbose = verbose
        self.token = token if token is not None else service_token()
        self.start_time = time.time()
        self.logger = get_logger("coordinator", verbose=verbose)
        obs_metrics.install_stage_observer()
        obs_metrics.set_build_info()
        self.tls = wrap_server_socket(self)

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        scheme = "https" if self.tls else "http"
        return f"{scheme}://{host}:{port}"


class _CoordinatorRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP routing onto the coordinator's methods."""

    server: CoordinatorHTTPServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Per-request chatter logs at DEBUG: visible with --verbose (which
        # forces the logger to DEBUG) or REPRO_LOG_LEVEL=DEBUG.
        self.server.logger.debug(format % args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        send_json(self, status, payload)

    def _read_json(self) -> Dict[str, Any]:
        return read_json(self)

    @_timed_handler
    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":  # liveness probe: exempt from auth
            self._send_json(
                200,
                {
                    "ok": True,
                    "role": "coordinator",
                    "version": __version__,
                    "uptime_seconds": round(time.time() - self.server.start_time, 3),
                },
            )
            return
        if self.path == "/metrics":  # scrape endpoint: exempt like /healthz
            self.server.coordinator.update_metrics_gauges()
            body = obs_metrics.REGISTRY.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if not check_auth(self, self.server.token):
            return
        if self.path == "/status":
            self._send_json(200, self.server.coordinator.status())
            return
        self._send_json(404, {"error": "unknown path"})

    @_timed_handler
    def do_POST(self) -> None:  # noqa: N802
        coordinator = self.server.coordinator
        body = self._read_json()  # drain first (keep-alive safety), then auth
        if not check_auth(self, self.server.token):
            return
        if self.path == "/workers/register":
            self._send_json(200, coordinator.register(body.get("name")))
            return
        if self.path == "/workers/heartbeat":
            tasks = body.get("tasks")
            trace_id = body.get("trace_id")
            self._send_json(
                200,
                coordinator.heartbeat(
                    str(body.get("worker_id", "")),
                    tasks if isinstance(tasks, list) else None,
                    trace_id=str(trace_id) if trace_id else None,
                ),
            )
            return
        if self.path == "/tasks/lease":
            self._send_json(
                200,
                coordinator.lease(
                    str(body.get("worker_id", "")), float(body.get("wait", 10.0))
                ),
            )
            return
        if self.path == "/tasks/complete":
            self._send_json(
                200,
                coordinator.complete(
                    worker_id=str(body.get("worker_id", "")),
                    task_id=str(body.get("task_id", "")),
                    ok=bool(body.get("ok", False)),
                    value=body.get("value"),
                    in_cache=bool(body.get("in_cache", False)),
                    error=body.get("error"),
                    start=float(body.get("start", 0.0)),
                    end=float(body.get("end", 0.0)),
                ),
            )
            return
        self._send_json(404, {"error": "unknown path"})


def start_coordinator_server(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    token: Optional[str] = None,
) -> CoordinatorHTTPServer:
    """Bind and start serving *coordinator* on a daemon thread."""
    server = CoordinatorHTTPServer((host, port), coordinator, verbose=verbose, token=token)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.2})
    thread.daemon = True
    thread.start()
    return server
