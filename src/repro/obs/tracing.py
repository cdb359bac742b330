"""Span-based structured tracing with cross-process propagation.

A *span* is one timed unit of work: a task-graph node execution, a cache
lookup, a harness run, or an explore generation.  Spans carry a
``trace_id`` shared by everything in one logical run, their own
``span_id``, and the ``parent_id`` of the enclosing span, so a renderer can
reassemble the tree of a ``-j N`` run from whatever order the records
landed in.

Tracing is **off by default** and strictly observational: enabling it must
never change any computed output (the byte-identity tests pin this).  The
switch is the ``$REPRO_TRACE`` environment variable naming a JSONL sink
file; every process that inherits it — the CLI and its pool children —
appends one JSON object per finished span (single ``O_APPEND`` writes,
safe across processes).  Timestamps pair a
wall-clock ``start`` (``time.time``, comparable across processes) with a
duration measured on the monotonic clock, so ``end - start`` is immune to
clock steps.

Context lives in a per-thread stack: :func:`span` opens a child of the
innermost active span (or starts a new trace), and :func:`activate` adopts
a ``(trace_id, parent_id)`` pair that arrived from another process — the
:func:`wire_context` a pool task carries from the scheduler to its worker.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Environment variable naming the JSONL sink; set = tracing on.
TRACE_ENV = "REPRO_TRACE"

#: In-memory span buffer cap per process (the JSONL sink is unbounded).
_BUFFER_LIMIT = 100_000


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return os.urandom(8).hex()


class _LiveSpan:
    """The object a ``with span(...)`` block receives: ids + attr setter."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind", "worker", "attrs")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        worker: Optional[str],
        attrs: Dict[str, Any],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.worker = worker
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-serialisable) to the span."""
        self.attrs[key] = value


class _NullSpan:
    """Stand-in yielded when tracing is off; absorbs attribute writes."""

    __slots__ = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def set(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Records finished spans to an in-memory buffer and a JSONL file.

    The file handle is opened once in append mode and **flushed after every
    record**, so a process killed mid-run (KeyboardInterrupt, OOM, SIGTERM)
    leaves a valid JSONL prefix — every line that was written is complete
    and parseable.  :func:`shutdown` (registered ``atexit``) additionally
    records any still-open spans as ``interrupted`` and closes the file.
    """

    def __init__(self, sink: Optional[Path] = None, service: str = "cli"):
        self.sink = Path(sink) if sink else None
        #: The sink path this tracer writes to — recorded into the
        #: run-history ledger so a flagged regression links back to its trace.
        self.sink_spec: Optional[str] = str(sink) if sink else None
        self.service = service
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._handle: Any = None
        self._sink_broken = False

    def record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) < _BUFFER_LIMIT:
                self._spans.append(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self.sink is None or self._sink_broken:
                return
            try:
                if self._handle is None:
                    self._handle = open(self.sink, "a", encoding="utf-8")
                # One write + flush per line keeps cross-process appends
                # whole-line atomic, exactly like the old open/close cycle.
                self._handle.write(line + "\n")
                self._handle.flush()
            except (OSError, ValueError):
                self._sink_broken = True  # observe-only: never fail work

    def close(self) -> None:
        """Flush and close the sink (a file handle reopens on next record)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def spans(self) -> List[Dict[str, Any]]:
        """This process's finished spans (the report's timeline source)."""
        with self._lock:
            return list(self._spans)


# The process tracer: _UNSET until first use, then a Tracer or None.
_UNSET = object()
_tracer: Any = _UNSET
_atexit_registered = False
_last_trace_id: Optional[str] = None

# Spans currently open anywhere in this process, so an interrupt can flush
# them to the sink instead of silently dropping whatever was in flight.
_live_lock = threading.Lock()
_live_spans: Dict[int, Dict[str, Any]] = {}
_live_tokens = itertools.count()


def _register_live(live: "_LiveSpan", start_wall: float, start_mono: float) -> int:
    token = next(_live_tokens)
    with _live_lock:
        _live_spans[token] = {
            "live": live,
            "start_wall": start_wall,
            "start_mono": start_mono,
        }
    return token


def _finish_live(token: int) -> Optional[Dict[str, Any]]:
    """Claim a live span for recording; ``None`` if shutdown already did."""
    with _live_lock:
        return _live_spans.pop(token, None)


def _ensure_atexit() -> None:
    global _atexit_registered
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(shutdown)


def shutdown() -> None:
    """Flush the tracer: record still-open spans, close the sink handle.

    Registered ``atexit`` whenever a sink-backed tracer exists, and safe
    to call eagerly (e.g. from the CLI's KeyboardInterrupt handler).
    Spans that are still open — blocked worker threads, an interrupted
    scheduler — are recorded with an ``interrupted`` attribute and the
    current time as their end, so a partial trace still accounts for all
    the wall time it observed.  Idempotent per span: whichever of this
    function and the span's own ``finally`` runs first claims the record.
    """
    active = _tracer if isinstance(_tracer, Tracer) else None
    with _live_lock:
        pending = sorted(_live_spans.items())
        _live_spans.clear()
    if active is None:
        return
    for _, entry in pending:
        live = entry["live"]
        attrs = dict(live.attrs)
        attrs["interrupted"] = True
        duration = time.perf_counter() - entry["start_mono"]
        active.record(
            {
                "trace_id": live.trace_id,
                "span_id": live.span_id,
                "parent_id": live.parent_id,
                "name": live.name,
                "kind": live.kind,
                "service": active.service,
                "worker": live.worker,
                "start": entry["start_wall"],
                "end": entry["start_wall"] + duration,
                "attrs": attrs,
            }
        )
    active.close()


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[str, Optional[str]]] = []


_context = _Context()


def tracer() -> Optional[Tracer]:
    """The process tracer, lazily built from ``$REPRO_TRACE`` (``None`` = off).

    The value is a JSONL sink path.  A URL is not a path: it leaves tracing
    off with one line on stderr, so stdout and the work are unchanged.
    """
    global _tracer
    if _tracer is _UNSET:
        spec = (os.environ.get(TRACE_ENV) or "").strip()
        if not spec:
            _tracer = None
        elif spec.startswith(("http://", "https://")):
            print(
                f"repro: {TRACE_ENV}={spec!r} is a URL; it takes a file path "
                "(spans are written as JSONL), so tracing is off",
                file=sys.stderr,
            )
            _tracer = None
        else:
            _tracer = Tracer(Path(spec))
        if _tracer is not None:
            _ensure_atexit()
    return _tracer


def sink_spec() -> Optional[str]:
    """The active tracer's sink file path, if tracing."""
    active = tracer()
    return active.sink_spec if active is not None else None


def enabled() -> bool:
    """Whether tracing is active in this process."""
    return tracer() is not None


def enable(sink: Optional[Path] = None, service: str = "cli") -> Tracer:
    """Programmatically switch tracing on (tests; env-free embedding)."""
    global _tracer
    if isinstance(_tracer, Tracer):
        _tracer.close()
    _tracer = Tracer(sink, service=service)
    if _tracer.sink is not None:
        _ensure_atexit()
    return _tracer


def reset() -> None:
    """Forget the process tracer so the next use re-reads ``$REPRO_TRACE``."""
    global _tracer, _last_trace_id
    if isinstance(_tracer, Tracer):
        _tracer.close()
    _tracer = _UNSET
    _last_trace_id = None
    _context.stack = []
    with _live_lock:
        _live_spans.clear()


def current() -> Optional[Tuple[str, Optional[str]]]:
    """The innermost ``(trace_id, span_id)`` on this thread, if any."""
    stack = _context.stack
    return stack[-1] if stack else None


def wire_context() -> Optional[Dict[str, Optional[str]]]:
    """The active context as a picklable dict for pool tasks (or ``None``)."""
    if tracer() is None:
        return None
    active = current()
    if active is None:
        return None
    return {"trace_id": active[0], "parent_id": active[1]}


@contextmanager
def activate(trace_id: Optional[str], parent_id: Optional[str] = None) -> Iterator[None]:
    """Adopt a propagated context for the block: spans opened inside become
    children of *parent_id* within *trace_id*.  No-op when *trace_id* is
    falsy, so callers can pass whatever the task carried."""
    if not trace_id:
        yield
        return
    stack = _context.stack
    stack.append((str(trace_id), parent_id))
    try:
        yield
    finally:
        stack.pop()


@contextmanager
def span(
    name: str,
    kind: str = "span",
    worker: Optional[str] = None,
    **attrs: Any,
) -> Iterator[Any]:
    """Open one span for the block; free (one ``None`` check) when off.

    The yielded object exposes ``trace_id`` / ``span_id`` and ``set(key,
    value)`` for late attributes (e.g. ``cache_hit`` once known).  The span
    is recorded when the block exits, with an ``error`` attribute when it
    exits by exception (which still propagates)."""
    active = tracer()
    if active is None:
        yield NULL_SPAN
        return
    parent = current()
    trace_id = parent[0] if parent else new_trace_id()
    parent_id = parent[1] if parent else None
    global _last_trace_id
    _last_trace_id = trace_id
    live = _LiveSpan(trace_id, new_span_id(), parent_id, name, kind, worker, dict(attrs))
    stack = _context.stack
    stack.append((trace_id, live.span_id))
    start_wall = time.time()
    start_mono = time.perf_counter()
    token = _register_live(live, start_wall, start_mono)
    try:
        yield live
    except BaseException as exc:
        live.attrs["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        stack.pop()
        duration = time.perf_counter() - start_mono
        if _finish_live(token) is not None:
            active.record(
                {
                    "trace_id": live.trace_id,
                    "span_id": live.span_id,
                    "parent_id": live.parent_id,
                    "name": live.name,
                    "kind": live.kind,
                    "service": active.service,
                    "worker": live.worker,
                    "start": start_wall,
                    "end": start_wall + duration,
                    "attrs": live.attrs,
                }
            )


def last_trace_id() -> Optional[str]:
    """The most recent trace id this process opened a span under, if any.

    Unlike :func:`current` this survives the end of the run — the
    run-history recorder reads it *after* the harness span closed, so a
    ledger row can link a flagged regression to its trace.
    """
    return _last_trace_id
