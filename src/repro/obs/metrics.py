"""Process-local metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` per process (the module-level
:data:`REGISTRY`) holds named counters, gauges and histograms, each keyed
by an optional label set.  Instruments are cheap, thread-safe and
idempotently declared — asking for an existing name returns the existing
instrument — so every subsystem registers what it needs at import time and
the cache server / coordinator expose the union on their auth-exempt
``GET /metrics`` endpoints (docs/OBSERVABILITY.md lists the catalogue).

:func:`MetricsRegistry.render` produces the Prometheus text exposition
format (``# HELP`` / ``# TYPE`` comments, ``name{label="v"} value``
samples, ``_bucket``/``_sum``/``_count`` series for histograms) that both
``promtool``-style scrapers and this module's own :func:`parse_prometheus`
consume.  Collector callbacks registered via
:func:`MetricsRegistry.register_collector` run just before each render so
point-in-time gauges (queue depth, heartbeat ages, store size) are fresh at
scrape time.

:func:`install_stage_observer` bridges :mod:`repro.perf`: once installed
(the services do it at startup), every ``perf.stage`` block folds its
wall-clock seconds into ``repro_stage_seconds_total{stage=...}`` whether or
not a ``perf.collect`` block is active.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import perf

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds): sub-ms cache ops through minute-long
#: compiles.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Explicit buckets (seconds) for HTTP request-duration histograms: finer
#: at the sub-10ms end where cache GET/HEAD traffic lives, topping out at
#: the coordinator's long-poll lease wait.
REQUEST_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing sum, optionally partitioned by labels."""

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        with self._lock:
            if not self._values:
                # Expose an explicit zero before the first increment
                # (Prometheus client convention), so dashboards can compute
                # rates from process start rather than from first use.
                return [(self.name, (), 0.0)]
            return [(self.name, key, value) for key, value in sorted(self._values.items())]


class Gauge:
    """A point-in-time value, optionally partitioned by labels."""

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def clear(self) -> None:
        """Drop every labelled series (rebuilt-at-scrape gauges)."""
        with self._lock:
            self._values.clear()

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        with self._lock:
            if not self._values:
                return [(self.name, (), 0.0)]
            return [(self.name, key, value) for key, value in sorted(self._values.items())]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics) of observations."""

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        # Per label set: per-bucket counts (+Inf implicit last), sum, count.
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        with self._lock:
            return self._totals.get(_label_key(labels), 0)

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        rows: List[Tuple[str, LabelKey, float]] = []
        with self._lock:
            keys = sorted(self._counts) or [()]  # zero series before first observe
            for key in keys:
                if key not in self._counts:
                    for bound in self.buckets:
                        rows.append((f"{self.name}_bucket", (("le", _format_value(bound)),), 0.0))
                    rows.append((f"{self.name}_bucket", (("le", "+Inf"),), 0.0))
                    rows.append((f"{self.name}_sum", (), 0.0))
                    rows.append((f"{self.name}_count", (), 0.0))
                    continue
                cumulative = 0
                for bound, bucket_count in zip(self.buckets, self._counts[key]):
                    cumulative += bucket_count
                    rows.append(
                        (f"{self.name}_bucket", key + (("le", _format_value(bound)),), float(cumulative))
                    )
                cumulative += self._counts[key][-1]
                rows.append((f"{self.name}_bucket", key + (("le", "+Inf"),), float(cumulative)))
                rows.append((f"{self.name}_sum", key, self._sums[key]))
                rows.append((f"{self.name}_count", key, float(self._totals[key])))
        return rows


_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """Named instruments plus pre-scrape collector callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}
        self._collectors: List[Callable[[], None]] = []

    def _declare(self, cls: type, name: str, help_text: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric '{name}' already declared as "
                        f"{_TYPE_NAMES[type(existing)]}, not {_TYPE_NAMES[cls]}"
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str) -> Counter:
        return self._declare(Counter, name, help_text)

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._declare(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._declare(Histogram, name, help_text, buckets=buckets)

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run *collector* before every render (point-in-time gauges)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def metrics(self) -> Iterable[Any]:
        with self._lock:
            return list(self._metrics.values())

    def render(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:
                pass  # a broken gauge source must not break the scrape
        lines: List[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {_TYPE_NAMES[type(metric)]}")
            for sample_name, key, value in metric.samples():
                lines.append(f"{sample_name}{_format_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"


#: The process registry every subsystem and both services share.
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str) -> Counter:
    """Declare (or fetch) a counter on the process registry."""
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str) -> Gauge:
    """Declare (or fetch) a gauge on the process registry."""
    return REGISTRY.gauge(name, help_text)


def histogram(name: str, help_text: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    """Declare (or fetch) a histogram on the process registry."""
    return REGISTRY.histogram(name, help_text, buckets=buckets)


def set_build_info(registry: Optional[MetricsRegistry] = None) -> Gauge:
    """Declare ``repro_build_info`` (value 1, version/python labels).

    The standard build-info idiom: the gauge itself carries no quantity,
    the labels identify what is running so dashboards can correlate a
    regression with a deploy.  Called by both services at startup.
    """
    import platform

    from repro import __version__

    info = (registry or REGISTRY).gauge(
        "repro_build_info", "Build information; value is always 1, labels identify the build."
    )
    info.set(1.0, version=__version__, python=platform.python_version())
    return info


# -- parsing the exposition format ---------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``{name: [(labels, value)]}``."""
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for label_match in _LABEL_RE.finditer(match.group("labels")):
                value = label_match.group(2)
                value = value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
                labels[label_match.group(1)] = value
        raw = match.group("value")
        try:
            value = float("inf") if raw == "+Inf" else float(raw)
        except ValueError:
            continue
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def metric_value(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    name: str,
    **labels: str,
) -> Optional[float]:
    """Sum of *name* samples whose labels include *labels* (``None`` = absent)."""
    rows = samples.get(name)
    if rows is None:
        return None
    matched = [
        value
        for sample_labels, value in rows
        if all(sample_labels.get(k) == v for k, v in labels.items())
    ]
    if not matched:
        return None
    return sum(matched)


# -- repro.perf bridge -----------------------------------------------------------

_stage_seconds: Optional[Counter] = None
_stage_calls: Optional[Counter] = None


def install_stage_observer() -> None:
    """Fold every ``perf.stage`` block into per-stage counters from now on.

    Installed by the long-running processes (cache server, coordinator,
    worker daemons) so ``/metrics`` carries cumulative per-stage seconds
    without requiring a ``perf.collect`` block around anything.  Idempotent.
    """
    global _stage_seconds, _stage_calls
    if _stage_seconds is None:
        _stage_seconds = counter(
            "repro_stage_seconds_total", "Cumulative wall-clock seconds per pipeline stage."
        )
        _stage_calls = counter(
            "repro_stage_calls_total", "Number of timed executions per pipeline stage."
        )
    perf.set_stage_observer(_observe_stage)


def _observe_stage(stage_name: str, elapsed: float) -> None:
    if _stage_seconds is not None and _stage_calls is not None:
        _stage_seconds.inc(elapsed, stage=stage_name)
        _stage_calls.inc(1.0, stage=stage_name)
