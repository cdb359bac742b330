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
A span opened without a ``worker`` inherits the enclosing span's, so the
cache and stage spans under a pool worker's task span share its lane.

The recording side — the :class:`~repro.obs.trace_sink.Tracer`, its open
spans and the sink file — is :mod:`repro.obs.trace_sink`, loaded only
when tracing is on; off, a span costs one ``None`` check.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.trace_sink import Tracer

#: Environment variable naming the JSONL sink; set = tracing on.
TRACE_ENV = "REPRO_TRACE"


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return os.urandom(8).hex()


class _NullSpan:
    """Stand-in yielded when tracing is off; absorbs attribute writes."""

    __slots__ = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def set(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


# The process tracer: _UNSET until first use, then a Tracer or None.
_UNSET = object()
_tracer: Any = _UNSET
_atexit_registered = False
_last_trace_id: Optional[str] = None


def _ensure_atexit() -> None:
    global _atexit_registered
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(shutdown)


def shutdown() -> None:
    """Flush the process tracer: record still-open spans, close the sink.

    Registered ``atexit`` whenever a sink-backed tracer exists, and safe
    to call eagerly (e.g. from the CLI's KeyboardInterrupt handler); see
    :meth:`repro.obs.trace_sink.Tracer.shutdown`.
    """
    if _tracer is not _UNSET and _tracer is not None:
        _tracer.shutdown()


class _Context(threading.local):
    def __init__(self) -> None:
        #: ``(trace_id, span_id, worker)`` of each open span, innermost last.
        self.stack: List[Tuple[str, Optional[str], Optional[str]]] = []


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
            from repro.obs.trace_sink import Tracer

            _tracer = Tracer(Path(spec))
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
    from repro.obs.trace_sink import Tracer

    global _tracer
    if _tracer is not _UNSET and _tracer is not None:
        _tracer.close()
    _tracer = Tracer(sink, service=service)
    if _tracer.sink is not None:
        _ensure_atexit()
    return _tracer


def reset() -> None:
    """Forget the process tracer so the next use re-reads ``$REPRO_TRACE``."""
    global _tracer, _last_trace_id
    if _tracer is not _UNSET and _tracer is not None:
        _tracer.close()
    _tracer = _UNSET
    _last_trace_id = None
    _context.stack = []


def current() -> Optional[Tuple[str, Optional[str]]]:
    """The innermost ``(trace_id, span_id)`` on this thread, if any."""
    stack = _context.stack
    return stack[-1][:2] if stack else None


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
    stack.append((str(trace_id), parent_id, None))
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
    value)`` for late attributes (e.g. ``cache_hit`` once known).  Without a
    *worker* the span takes the enclosing span's.  The span is recorded
    when the block exits, with an ``error`` attribute when it exits by
    exception (which still propagates)."""
    active = tracer()
    if active is None:
        yield NULL_SPAN
        return
    stack = _context.stack
    if stack:
        trace_id, parent_id, inherited = stack[-1]
        worker = worker or inherited
    else:
        trace_id, parent_id = new_trace_id(), None
    global _last_trace_id
    _last_trace_id = trace_id
    live = active.open(trace_id, parent_id, name, kind, worker, dict(attrs))
    stack.append((trace_id, live.span_id, worker))
    try:
        yield live
    except BaseException as exc:
        live.attrs["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        stack.pop()
        active.finish(live)


def last_trace_id() -> Optional[str]:
    """The most recent trace id this process opened a span under, if any.

    Unlike :func:`current` this survives the end of the run — the
    run-history recorder reads it *after* the harness span closed, so a
    ledger row can link a flagged regression to its trace.
    """
    return _last_trace_id
