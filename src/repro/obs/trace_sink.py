"""The recording side of span tracing: the tracer, its open spans and its JSONL sink.

:mod:`repro.obs.tracing` holds the span context and builds a
:class:`Tracer` only when ``$REPRO_TRACE`` names a file (or
:func:`repro.obs.tracing.enable` is called), so an untraced run never
loads this module.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.tracing import new_span_id

#: In-memory span buffer cap per process (the JSONL sink is unbounded).
_BUFFER_LIMIT = 100_000


class _LiveSpan:
    """The object a ``with span(...)`` block receives: ids + attr setter."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "kind", "worker", "attrs",
        "token", "start_wall", "start_mono",
    )

    def __init__(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        worker: Optional[str],
        attrs: Dict[str, Any],
        token: int,
    ):
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.worker = worker
        self.attrs = attrs
        self.token = token
        self.start_wall = time.time()
        self.start_mono = time.perf_counter()

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-serialisable) to the span."""
        self.attrs[key] = value


class Tracer:
    """Records finished spans to an in-memory buffer and a JSONL file.

    The file handle is opened once in append mode and **flushed after every
    record**, so a process killed mid-run (KeyboardInterrupt, OOM, SIGTERM)
    leaves a valid JSONL prefix — every line that was written is complete
    and parseable.  The tracer also keeps the spans still open, so that
    :meth:`shutdown` (run ``atexit``) records them as ``interrupted`` before
    it closes the file.
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
        self._live: Dict[int, _LiveSpan] = {}
        self._tokens = itertools.count()

    def open(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        worker: Optional[str],
        attrs: Dict[str, Any],
    ) -> _LiveSpan:
        """Start one span now and keep it as open until :meth:`finish`."""
        live = _LiveSpan(trace_id, parent_id, name, kind, worker, attrs, next(self._tokens))
        with self._lock:
            self._live[live.token] = live
        return live

    def finish(self, live: _LiveSpan) -> None:
        """Record *live* as ended now, unless :meth:`shutdown` already did."""
        duration = time.perf_counter() - live.start_mono
        with self._lock:
            claimed = self._live.pop(live.token, None)
        if claimed is not None:
            self._record_span(live, duration, live.attrs)

    def _record_span(self, live: _LiveSpan, duration: float, attrs: Dict[str, Any]) -> None:
        self.record(
            {
                "trace_id": live.trace_id,
                "span_id": live.span_id,
                "parent_id": live.parent_id,
                "name": live.name,
                "kind": live.kind,
                "service": self.service,
                "worker": live.worker,
                "start": live.start_wall,
                "end": live.start_wall + duration,
                "attrs": attrs,
            }
        )

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

    def shutdown(self) -> None:
        """Record the spans still open, then close the sink.

        Spans that are still open — an interrupted scheduler, say — are
        recorded with an ``interrupted`` attribute and the current time as
        their end, so a partial trace still accounts for all the wall time
        it observed.  Idempotent per span: whichever of this method and
        :meth:`finish` runs first records it.
        """
        with self._lock:
            pending = sorted(self._live.items())
            self._live.clear()
        for _, live in pending:
            attrs = dict(live.attrs)
            attrs["interrupted"] = True
            self._record_span(live, time.perf_counter() - live.start_mono, attrs)
        self.close()

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
