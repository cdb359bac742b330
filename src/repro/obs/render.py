"""Text renderers for JSONL trace files: span tree and per-worker Gantt.

``repro trace RUN.jsonl`` loads the span records a traced run streamed to
``$REPRO_TRACE`` (possibly appended by several processes — the CLI and its
pool children) and reassembles them:

* :func:`render_tree` — the default view: one indented tree per trace,
  children ordered by start time, each line showing name, kind, duration,
  the recording service/worker, and a ``[hit]`` marker for cache hits.
  Spans whose parent never landed in the file (e.g. a worker that died
  mid-write) are shown as roots with a ``~orphan`` marker rather than
  dropped.
* :func:`render_gantt` — ``--gantt``: one lane per service/worker, spans
  drawn as bars over a shared time axis, for eyeballing parallelism and
  stragglers across a ``-j N`` run.

Pure functions over plain dicts — the loader tolerates and skips malformed
lines so a trace truncated by a crash still renders.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

Span = Dict[str, Any]

#: Gantt bar area width in characters.
GANTT_WIDTH = 60


def load_spans(path: Path) -> List[Span]:
    """Parse one JSONL trace file, skipping blank or malformed lines."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("span_id"):
                spans.append(record)
    return spans


def group_by_trace(spans: List[Span]) -> Dict[str, List[Span]]:
    """Spans bucketed by trace id, insertion-ordered by first appearance."""
    traces: Dict[str, List[Span]] = {}
    for span in spans:
        traces.setdefault(str(span.get("trace_id", "?")), []).append(span)
    return traces


def _duration(span: Span) -> float:
    return max(0.0, float(span.get("end", 0.0)) - float(span.get("start", 0.0)))


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _span_lane(span: Span) -> str:
    worker = span.get("worker")
    if worker:
        return str(worker)
    return str(span.get("service") or "?")


def _describe(span: Span, orphan: bool = False) -> str:
    attrs = span.get("attrs") or {}
    parts = [
        str(span.get("name", "?")),
        f"({span.get('kind', 'span')})",
        _format_duration(_duration(span)),
        f"[{_span_lane(span)}]",
    ]
    if attrs.get("cache_hit"):
        parts.append("[hit]")
    if attrs.get("error"):
        parts.append(f"!error: {attrs['error']}")
    if orphan:
        parts.append("~orphan")
    return " ".join(parts)


def render_tree(spans: List[Span], trace_id: Optional[str] = None) -> str:
    """The tree view of *spans* (optionally restricted to one trace)."""
    traces = group_by_trace(spans)
    if trace_id is not None:
        traces = {trace_id: traces.get(trace_id, [])}
    blocks: List[str] = []
    for tid, members in traces.items():
        members = sorted(members, key=lambda s: (float(s.get("start", 0.0)), str(s.get("span_id"))))
        by_id = {str(s["span_id"]): s for s in members}
        children: Dict[Optional[str], List[Span]] = {}
        roots: List[tuple] = []
        for span in members:
            parent = span.get("parent_id")
            if parent is None or str(parent) not in by_id:
                roots.append((span, parent is not None))
            else:
                children.setdefault(str(parent), []).append(span)
        total = 0.0
        if members:
            total = max(float(s.get("end", 0.0)) for s in members) - min(
                float(s.get("start", 0.0)) for s in members
            )
        lines = [f"trace {tid} ({len(members)} spans, {_format_duration(total)})"]

        def walk(span: Span, prefix: str, is_last: bool, orphan: bool) -> None:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _describe(span, orphan=orphan))
            child_prefix = prefix + ("   " if is_last else "│  ")
            kids = children.get(str(span["span_id"]), [])
            for index, kid in enumerate(kids):
                walk(kid, child_prefix, index == len(kids) - 1, orphan=False)

        for index, (root, orphan) in enumerate(roots):
            walk(root, "", index == len(roots) - 1, orphan)
        blocks.append("\n".join(lines))
    if not blocks:
        return "no spans"
    return "\n\n".join(blocks)


def render_gantt(spans: List[Span], trace_id: Optional[str] = None) -> str:
    """The per-worker Gantt view of *spans* (optionally one trace)."""
    traces = group_by_trace(spans)
    if trace_id is not None:
        traces = {trace_id: traces.get(trace_id, [])}
    blocks: List[str] = []
    for tid, members in traces.items():
        if not members:
            blocks.append(f"trace {tid} (0 spans)")
            continue
        t0 = min(float(s.get("start", 0.0)) for s in members)
        t1 = max(float(s.get("end", 0.0)) for s in members)
        window = max(t1 - t0, 1e-9)
        lanes: Dict[str, List[Span]] = {}
        for span in members:
            lanes.setdefault(_span_lane(span), []).append(span)
        label_width = max(len(lane) for lane in lanes)
        lines = [f"trace {tid} ({len(members)} spans, {_format_duration(window)} window)"]
        for lane in sorted(lanes):
            lane_spans = sorted(lanes[lane], key=lambda s: float(s.get("start", 0.0)))
            lines.append(f"{lane:<{label_width}} │ {len(lane_spans)} spans")
            for span in lane_spans:
                begin = int((float(span.get("start", 0.0)) - t0) / window * (GANTT_WIDTH - 1))
                width = max(1, int(_duration(span) / window * GANTT_WIDTH))
                width = min(width, GANTT_WIDTH - begin)
                bar = " " * begin + "█" * width
                lines.append(
                    f"{'':<{label_width}} │ {bar:<{GANTT_WIDTH}} "
                    f"{span.get('name', '?')} {_format_duration(_duration(span))}"
                )
        blocks.append("\n".join(lines))
    if not blocks:
        return "no spans"
    return "\n\n".join(blocks)
