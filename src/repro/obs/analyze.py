"""Trace analytics over JSONL span files: summaries, critical path, overhead.

:mod:`repro.obs.render` draws a trace; this module *measures* it.  All
functions are pure over the plain span dicts :func:`repro.obs.render.load_spans`
returns, so they work equally on a file captured via ``$REPRO_TRACE``, the
in-process buffer of a live tracer, or synthetic spans in tests.

Four instruments:

* :func:`summarize` — per-kind aggregates: span count, total time, *self*
  time (duration minus the time covered by child spans, clamped at zero),
  and p50/p95 durations.  Self time is what a flat profile can't show you:
  a ``scheduler.run`` span wrapping the whole run has a huge total but —
  if the scheduler is efficient — near-zero self time.
* :func:`critical_path` — the longest chain through the span DAG of one
  trace: start from the longest root, repeatedly descend into the child
  that finishes last, and attribute to every hop the time *not* explained
  by the next hop.  The chain's coverage of the trace window tells you how
  much of the wall time a single dependency chain pins down — the
  shortest possible run time under infinite parallelism.
* :func:`scheduler_overhead` — wall time of each ``scheduler.run`` span
  minus the union of its children's intervals (its self time): time the
  engine spent *between* tasks (topo sorting, result plumbing, cache
  bookkeeping).
* :func:`pool_placements` — how the ``-j N`` pool placed its tasks: on the
  worker that already held the task's workload, or free, on a worker that
  took up a workload no worker held.

Percentiles use the deterministic nearest-rank method so the same trace
always yields the same report.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

Span = Dict[str, Any]


def _duration(span: Span) -> float:
    return max(0.0, float(span.get("end", 0.0)) - float(span.get("start", 0.0)))


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (deterministic)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def trace_window(spans: List[Span]) -> Tuple[float, float]:
    """The ``(earliest start, latest end)`` wall window covered by *spans*."""
    if not spans:
        return (0.0, 0.0)
    return (
        min(float(s.get("start", 0.0)) for s in spans),
        max(float(s.get("end", 0.0)) for s in spans),
    )


def _children_index(spans: List[Span]) -> Dict[str, List[Span]]:
    """``span_id -> children`` within one trace, children ordered by start."""
    by_id = {str(s.get("span_id")): s for s in spans}
    children: Dict[str, List[Span]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and str(parent) in by_id:
            children.setdefault(str(parent), []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (float(s.get("start", 0.0)), str(s.get("span_id"))))
    return children


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` pairs."""
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_seconds(span: Span, children: Dict[str, List[Span]]) -> float:
    """Span duration minus the union of its children's intervals (>= 0)."""
    kids = children.get(str(span.get("span_id")), [])
    if not kids:
        return _duration(span)
    start = float(span.get("start", 0.0))
    end = float(span.get("end", 0.0))
    covered = _interval_union(
        [
            (max(float(k.get("start", 0.0)), start), min(float(k.get("end", 0.0)), end))
            for k in kids
            if float(k.get("end", 0.0)) > start and float(k.get("start", 0.0)) < end
        ]
    )
    return max(0.0, _duration(span) - covered)


def summarize(spans: List[Span]) -> List[Dict[str, Any]]:
    """Per-kind aggregate rows, ordered by total time descending.

    Each row: ``kind``, ``count``, ``total_seconds``, ``self_seconds``,
    ``p50_seconds``, ``p95_seconds``.  Self time is computed per trace so a
    parent in one trace never absorbs children from another.
    """
    from repro.obs.render import group_by_trace

    per_kind: Dict[str, Dict[str, Any]] = {}
    for members in group_by_trace(spans).values():
        children = _children_index(members)
        for span in members:
            kind = str(span.get("kind", "span"))
            row = per_kind.setdefault(
                kind, {"kind": kind, "count": 0, "total": 0.0, "self": 0.0, "durations": []}
            )
            row["count"] += 1
            row["total"] += _duration(span)
            row["self"] += self_seconds(span, children)
            row["durations"].append(_duration(span))
    rows = []
    for row in per_kind.values():
        durations = sorted(row["durations"])
        rows.append(
            {
                "kind": row["kind"],
                "count": row["count"],
                "total_seconds": round(row["total"], 6),
                "self_seconds": round(row["self"], 6),
                "p50_seconds": round(_percentile(durations, 0.50), 6),
                "p95_seconds": round(_percentile(durations, 0.95), 6),
            }
        )
    rows.sort(key=lambda r: (-r["total_seconds"], r["kind"]))
    return rows


def critical_path(spans: List[Span], trace_id: Optional[str] = None) -> Dict[str, Any]:
    """The longest root-to-leaf chain of one trace, with per-hop attribution.

    Picks the trace with the widest window when *trace_id* is not given.
    Returns ``{trace_id, window_seconds, path_seconds, coverage, hops}``
    where each hop carries ``name``, ``kind``, ``lane`` (worker or
    service), ``duration_seconds`` and ``self_seconds`` — the time this
    hop contributes beyond the hop below it.  ``coverage`` is
    ``path_seconds / window_seconds``: how much of the observed wall time
    one dependency chain explains.
    """
    from repro.obs.render import _span_lane, group_by_trace

    traces = group_by_trace(spans)
    if trace_id is not None:
        traces = {trace_id: traces.get(trace_id, [])}
    if not traces or not any(traces.values()):
        return {"trace_id": trace_id, "window_seconds": 0.0, "path_seconds": 0.0, "coverage": 0.0, "hops": []}

    def window_of(members: List[Span]) -> float:
        t0, t1 = trace_window(members)
        return t1 - t0

    tid, members = max(
        ((tid, m) for tid, m in traces.items() if m), key=lambda item: window_of(item[1])
    )
    children = _children_index(members)
    by_id = {str(s.get("span_id")): s for s in members}
    roots = [
        s
        for s in members
        if s.get("parent_id") is None or str(s.get("parent_id")) not in by_id
    ]
    root = max(roots, key=lambda s: (_duration(s), str(s.get("span_id"))))

    chain: List[Span] = [root]
    cursor = root
    while True:
        kids = children.get(str(cursor.get("span_id")), [])
        if not kids:
            break
        # The child that finishes last pins the parent's end — follow it.
        cursor = max(kids, key=lambda s: (float(s.get("end", 0.0)), str(s.get("span_id"))))
        chain.append(cursor)

    hops: List[Dict[str, Any]] = []
    for index, hop in enumerate(chain):
        below = _duration(chain[index + 1]) if index + 1 < len(chain) else 0.0
        hops.append(
            {
                "name": str(hop.get("name", "?")),
                "kind": str(hop.get("kind", "span")),
                "lane": _span_lane(hop),
                "duration_seconds": round(_duration(hop), 6),
                "self_seconds": round(max(0.0, _duration(hop) - below), 6),
            }
        )
    window = window_of(members)
    path_seconds = _duration(root)
    return {
        "trace_id": tid,
        "window_seconds": round(window, 6),
        "path_seconds": round(path_seconds, 6),
        "coverage": round(path_seconds / window, 4) if window > 0 else 0.0,
        "hops": hops,
    }


def scheduler_overhead(spans: List[Span]) -> Dict[str, Any]:
    """Engine overhead: scheduler wall time not covered by its child spans.

    For every ``scheduler.run`` span this is its self time: its duration
    minus the union of its children's intervals.  A pool worker's task
    spans are re-parented under the scheduler's span, so they count; spans
    that are not its descendants — the ``harness.execute`` span around it,
    say — cover nothing.  Returns ``{runs, total_seconds, covered_seconds,
    overhead_seconds, overhead_fraction}``.
    """
    from repro.obs.render import group_by_trace

    runs = 0
    total = 0.0
    overhead = 0.0
    for members in group_by_trace(spans).values():
        children = _children_index(members)
        for span in members:
            if str(span.get("name")) == "scheduler.run":
                runs += 1
                total += _duration(span)
                overhead += self_seconds(span, children)
    covered = total - overhead
    return {
        "runs": runs,
        "total_seconds": round(total, 6),
        "covered_seconds": round(covered, 6),
        "overhead_seconds": round(overhead, 6),
        "overhead_fraction": round(overhead / total, 4) if total > 0 else 0.0,
    }


def pool_placements(spans: List[Span]) -> Dict[str, int]:
    """Count the pool's task placements from the ``resident`` attribute of
    its task spans (spans without it ran in the parent).  Returns
    ``{tasks, resident, free}``."""
    placed = [
        span["attrs"] for span in spans if span.get("attrs", {}).get("resident") is not None
    ]
    resident = sum(1 for attrs in placed if attrs["resident"])
    return {"tasks": len(placed), "resident": resident, "free": len(placed) - resident}


# ---------------------------------------------------------------------------
# text renderers (the `repro trace --summary/--critical-path` output)
# ---------------------------------------------------------------------------


def _fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def render_summary(spans: List[Span]) -> str:
    """The ``--summary`` table plus the scheduler-overhead and pool-placement
    footers."""
    rows = summarize(spans)
    if not rows:
        return "no spans"
    header = ("kind", "count", "total", "self", "p50", "p95")
    table = [header] + [
        (
            row["kind"],
            str(row["count"]),
            _fmt(row["total_seconds"]),
            _fmt(row["self_seconds"]),
            _fmt(row["p50_seconds"]),
            _fmt(row["p95_seconds"]),
        )
        for row in rows
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col])
                for col, cell in enumerate(line)
            ).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    overhead = scheduler_overhead(spans)
    if overhead["runs"]:
        lines.append("")
        lines.append(
            f"scheduler overhead: {_fmt(overhead['overhead_seconds'])} of "
            f"{_fmt(overhead['total_seconds'])} scheduler wall time "
            f"({overhead['overhead_fraction'] * 100.0:.1f}%) not covered by spans"
        )
    placements = pool_placements(spans)
    if placements["tasks"]:
        lines.append(
            f"pool placements: {placements['resident']} resident, "
            f"{placements['free']} free of {placements['tasks']}"
        )
    return "\n".join(lines)


def render_critical_path(spans: List[Span], trace_id: Optional[str] = None) -> str:
    """The ``--critical-path`` chain, one indented hop per line."""
    path = critical_path(spans, trace_id=trace_id)
    if not path["hops"]:
        return "no spans"
    lines = [
        f"critical path: trace {path['trace_id']} — {len(path['hops'])} hops, "
        f"{_fmt(path['path_seconds'])} of {_fmt(path['window_seconds'])} window "
        f"(coverage {path['coverage'] * 100.0:.0f}%)"
    ]
    for depth, hop in enumerate(path["hops"]):
        indent = "  " * depth + ("└─ " if depth else "")
        lines.append(
            f"{indent}{hop['name']} ({hop['kind']}) {_fmt(hop['duration_seconds'])} "
            f"[self {_fmt(hop['self_seconds'])}] [{hop['lane']}]"
        )
    return "\n".join(lines)
