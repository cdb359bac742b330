"""Execution tracing for the task-graph scheduler (chrome://tracing JSON).

``repro report --trace trace.json`` records one complete event per executed
task — start/stop wall time plus the lane that ran it (the parent, a
``pid:<n>`` pool worker) — and writes the Chrome
Trace Event Format document that ``chrome://tracing`` / Perfetto render as a
per-worker utilisation timeline.  Cache hits and seeded tasks run nothing
and therefore produce no event; gaps in a lane are genuine idle time.

The recorder is deliberately tiny and thread-safe:
:class:`TraceRecorder.record` appends one event,
:meth:`TraceRecorder.write` emits the JSON file.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


class TraceRecorder:
    """Collects per-task execution spans and renders chrome://tracing JSON.

    Workers are mapped to integer ``tid`` lanes in first-seen order (the
    format requires integers); a ``thread_name`` metadata event labels each
    lane with the worker's name so the viewer shows readable rows.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._lanes: Dict[str, int] = {}
        self._spans: List[Dict[str, Any]] = []

    def _lane(self, worker: str) -> int:
        lane = self._lanes.get(worker)
        if lane is None:
            lane = len(self._lanes)
            self._lanes[worker] = lane
        return lane

    def record(
        self,
        name: str,
        category: str,
        worker: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add one complete ("X") event; times are ``time.time()`` seconds."""
        with self._lock:
            self._spans.append(
                {"name": name, "kind": category, "worker": worker, "start": start, "end": end}
            )
            self._events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "pid": 1,
                    "tid": self._lane(worker),
                    "ts": int(start * 1_000_000),
                    "dur": max(0, int((end - start) * 1_000_000)),
                    "args": args or {},
                }
            )

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded complete events (no metadata), oldest first."""
        with self._lock:
            return list(self._events)

    @property
    def spans(self) -> List[Dict[str, Any]]:
        """The raw recorded spans (name/kind/worker/start/end), oldest first.

        What the HTML report's embedded timeline chart is built from —
        sorted deterministically by (start, worker, name) since completion
        callbacks may arrive on several threads.
        """
        with self._lock:
            return sorted(self._spans, key=lambda s: (s["start"], s["worker"], s["name"]))

    def to_chrome(self) -> Dict[str, Any]:
        """The full trace document: metadata + events sorted by start time."""
        with self._lock:
            metadata: List[Dict[str, Any]] = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": "repro task graph"},
                }
            ]
            for worker, lane in self._lanes.items():
                metadata.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": lane,
                        "args": {"name": worker},
                    }
                )
            events = sorted(self._events, key=lambda e: (e["ts"], e["tid"]))
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def write(self, path: Union[str, Path]) -> Path:
        """Write the chrome://tracing JSON document to *path*."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=1), encoding="utf-8")
        return path
