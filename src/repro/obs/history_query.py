"""Reading the run history back: records, metric series, regressions, views.

:mod:`repro.obs.history` appends one record per measured run; this module
loads a records file, turns it into per-metric series, flags regressions
against a rolling-median baseline, and renders the text views of ``repro
history show/trend/check``.  Only those commands and ``repro report
--html`` (its trends section) load it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.obs.history import DEFAULT_THRESHOLD, DEFAULT_WINDOW

#: Runs needed before a metric is checked at all (too little history = noise).
MIN_HISTORY = 3

#: Absolute jitter floor: deltas under this many seconds never flag.
JITTER_FLOOR_SECONDS = 0.05


def load_runs(path: Path) -> List[Dict[str, Any]]:
    """Parse one history file, skipping blank or malformed lines."""
    runs: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and isinstance(record.get("metrics"), dict):
                    runs.append(record)
    except OSError:
        return []
    return runs


def metric_series(
    runs: Iterable[Mapping[str, Any]], command: Optional[str] = None
) -> Dict[str, List[float]]:
    """``metric -> values`` in record order, optionally for one command."""
    series: Dict[str, List[float]] = {}
    for run in runs:
        if command is not None and run.get("command") != command:
            continue
        for name, value in (run.get("metrics") or {}).items():
            try:
                series.setdefault(str(name), []).append(float(value))
            except (TypeError, ValueError):
                continue
    return series


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_regressions(
    runs: List[Dict[str, Any]],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
    command: Optional[str] = None,
    min_history: int = MIN_HISTORY,
) -> List[Dict[str, Any]]:
    """Flag ``*_seconds`` metrics whose latest run regressed vs the baseline.

    Per ``(command, metric)``: baseline = median of the up-to-*window*
    values preceding the latest; flag when ``latest > threshold ×
    baseline`` *and* the absolute delta clears :data:`JITTER_FLOOR_SECONDS`.
    Needs at least *min_history* prior values — young histories pass.
    """
    by_command: Dict[str, List[Mapping[str, Any]]] = {}
    for run in runs:
        cmd = str(run.get("command", "?"))
        if command is not None and cmd != command:
            continue
        by_command.setdefault(cmd, []).append(run)
    regressions: List[Dict[str, Any]] = []
    for cmd in sorted(by_command):
        series = metric_series(by_command[cmd])
        for metric in sorted(series):
            if not metric.endswith("_seconds"):
                continue
            values = series[metric]
            if len(values) < min_history + 1:
                continue
            latest = values[-1]
            baseline = _median(values[-(window + 1) : -1])
            if baseline <= 0:
                continue
            if latest > threshold * baseline and latest - baseline > JITTER_FLOOR_SECONDS:
                regressions.append(
                    {
                        "command": cmd,
                        "metric": metric,
                        "latest": round(latest, 6),
                        "baseline": round(baseline, 6),
                        "ratio": round(latest / baseline, 3),
                        "threshold": threshold,
                        "window": min(window, len(values) - 1),
                    }
                )
    return regressions


# ---------------------------------------------------------------------------
# text rendering (`repro history show/trend/check`)
# ---------------------------------------------------------------------------

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float]) -> str:
    """A unicode block sparkline of *values* (empty string for no data)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_BLOCKS[0] * len(values)
    scale = (len(_SPARK_BLOCKS) - 1) / (high - low)
    return "".join(_SPARK_BLOCKS[int((v - low) * scale)] for v in values)


def render_show(runs: List[Dict[str, Any]], limit: int = 20) -> str:
    """One line per run, newest last: timestamp, command, key metrics.

    Runs recorded under ``$REPRO_TRACE`` / ``$REPRO_PROFILE`` carry their
    trace id and profile path in ``attrs``; showing them here links a
    flagged regression straight to the telemetry that explains it.
    """
    if not runs:
        return "no history"
    lines = []
    for run in runs[-limit:]:
        ts = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(run.get("ts", 0.0))))
        metrics = run.get("metrics") or {}
        shown = [
            f"{name}={metrics[name]:.3f}"
            for name in sorted(metrics)
            if name.endswith("_seconds") or name.endswith("_rate")
        ][:4]
        attrs = run.get("attrs") or {}
        trace_id = attrs.get("trace_id")
        if trace_id:
            shown.append(f"trace={str(trace_id)[:12]}")
        if attrs.get("profile"):
            shown.append(f"profile={attrs['profile']}")
        rev = (run.get("env") or {}).get("git_rev") or "-"
        lines.append(f"{ts}  {run.get('command', '?'):<14} {rev:<9} " + "  ".join(shown))
    return "\n".join(lines)


def render_trend(runs: List[Dict[str, Any]], command: Optional[str] = None) -> str:
    """Per-metric min/median/last plus a sparkline of the whole series."""
    series = metric_series(runs, command=command)
    rows = [
        (metric, values)
        for metric, values in sorted(series.items())
        if metric.endswith("_seconds") or metric.endswith("_rate")
    ]
    if not rows:
        return "no history"
    width = max(len(metric) for metric, _ in rows)
    lines = []
    for metric, values in rows:
        lines.append(
            f"{metric:<{width}}  n={len(values):<3} min={min(values):.3f} "
            f"med={_median(values):.3f} last={values[-1]:.3f}  {sparkline(values)}"
        )
    return "\n".join(lines)


def render_regressions(regressions: List[Dict[str, Any]]) -> str:
    """The ``check`` verdict, one flagged metric per line."""
    if not regressions:
        return "ok: no regressions"
    lines = ["REGRESSIONS:"]
    for entry in regressions:
        lines.append(
            f"  {entry['command']}/{entry['metric']}: {entry['latest']:.3f}s vs "
            f"baseline {entry['baseline']:.3f}s ({entry['ratio']:.2f}x > "
            f"{entry['threshold']:.2f}x over window {entry['window']})"
        )
    return "\n".join(lines)
