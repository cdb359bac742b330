"""Low-overhead sampling profiler + deterministic per-task counters.

Answers "where does the wall time go?" without touching the measured code
and without a thread: ``signal.setitimer(ITIMER_PROF)`` raises ``SIGPROF``
``hz`` times per second of the process's CPU time, and the handler counts
one sample for the interrupted frame's collapsed stack
(``module:function;module:function;...``, root first — the format
flamegraph tooling expects).  All compute runs on the main thread of each
process, which is where Python runs signal handlers, so the interrupted
frame is the one doing the work.  Between signals the profiled code runs
at full speed, so overhead is bounded by ``hz`` × stack depth, not by how
hot the code is; the default 97 Hz is deliberately co-prime with common
periodic work to avoid lockstep aliasing.  A process blocked on a pipe
uses no CPU and takes no samples.

Like tracing, profiling is **off by default** and strictly observational.
The switch is ``$REPRO_PROFILE`` naming a JSONL sink: every process that
inherits it — the CLI and its pool children — starts its own
sampler via :func:`maybe_start` (an interval timer is not inherited across
``fork``) and appends **one JSON record at exit**
(``O_APPEND``, safe across processes), so a parallel run yields per-worker
profiles that :func:`merge_stacks` folds into one flamegraph.
``$REPRO_PROFILE_HZ`` overrides the rate.  Starting no thread keeps every
``-j N`` slot forking from a single-threaded parent.

Sampling answers "where"; the *deterministic counters* answer "how many".
:func:`count` is a near-free hook (one ``None`` check when off) the task
engine calls per executed task, so a profile also carries exact
``task.<kind>`` counts that never vary with sampling luck.

Render with ``repro profile --from PROFILE.jsonl --flame out.svg`` (an
SVG via :mod:`repro.viz.flame`) or ``--collapsed`` for external tooling.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Environment variable naming the JSONL sink; set = profiling on.
PROFILE_ENV = "REPRO_PROFILE"

#: Environment variable overriding the sampling rate.
PROFILE_HZ_ENV = "REPRO_PROFILE_HZ"

#: Default sampling rate (Hz); co-prime with common 10/50/100 Hz periods.
DEFAULT_HZ = 97

#: Frames deeper than this are truncated (a ``...`` root marker is kept).
MAX_STACK_DEPTH = 64


def _frame_label(frame: Any) -> str:
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


def _collapse(frame: Any) -> str:
    """One frame chain as a root-first ``;``-joined collapsed stack."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    if frame is not None:
        labels.append("...")
    labels.reverse()
    return ";".join(labels)


class SamplingProfiler:
    """Samples the main thread of this process on ``SIGPROF``.

    Only one profiler can own the process's ``ITIMER_PROF`` timer and
    ``SIGPROF`` handler at a time; :meth:`start` takes both and
    :meth:`stop` gives them back.  Outside the main thread, where Python
    cannot install a signal handler, :meth:`start` leaves it stopped.
    """

    def __init__(self, hz: int = DEFAULT_HZ, service: str = "cli"):
        self.hz = max(1, int(hz))
        self.service = service
        self._stacks: Dict[str, int] = {}
        self._counters: Dict[str, float] = {}
        self._samples = 0
        self._previous_handler: Any = None
        self._started_mono: Optional[float] = None
        self._duration = 0.0

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._started_mono is not None

    def start(self) -> None:
        if self.running:
            return
        try:
            self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        except (AttributeError, ValueError):  # no SIGPROF here, or not the main thread
            return
        self._started_mono = time.perf_counter()
        interval = 1.0 / self.hz
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)
        self._duration += time.perf_counter() - self._started_mono
        self._started_mono = None

    def _on_signal(self, signum: int, frame: Any) -> None:
        stack = _collapse(frame)
        if stack:
            self._stacks[stack] = self._stacks.get(stack, 0) + 1
            self._samples += 1

    # -- deterministic counters --------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump an exact (non-sampled) counter attached to this profile."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    # -- output -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """This profiler's state as one JSON-able profile record."""
        duration = self._duration
        if self._started_mono is not None:
            duration += time.perf_counter() - self._started_mono
        return {
            "kind": "profile",
            "service": self.service,
            "pid": os.getpid(),
            "hz": self.hz,
            "samples": self._samples,
            "duration_seconds": round(duration, 6),
            "stacks": dict(sorted(self._stacks.items())),
            "counters": dict(sorted(self._counters.items())),
        }

    def dump(self, sink: Path) -> None:
        """Append this profile as one JSONL record (never raises)."""
        record = self.snapshot()
        try:
            with open(sink, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        except OSError:
            pass  # observe-only: a broken sink must never fail work


# ---------------------------------------------------------------------------
# process-global profiler, lazily built from $REPRO_PROFILE
# ---------------------------------------------------------------------------

# _UNSET until the first maybe_start(), then a SamplingProfiler or None.
_UNSET = object()
_profiler: Any = _UNSET
_sink: Optional[Path] = None
# Pid that initialised _profiler: a forked pool child inherits the global
# but not the interval timer, so a pid mismatch means "start fresh here".
_owner_pid: Optional[int] = None


def profiler() -> Optional[SamplingProfiler]:
    """The process profiler, if one is running (``None`` = off)."""
    return _profiler if isinstance(_profiler, SamplingProfiler) else None


def enabled() -> bool:
    """Whether profiling is active in this process."""
    return profiler() is not None


def maybe_start(service: str = "cli") -> Optional[SamplingProfiler]:
    """Start the process profiler from ``$REPRO_PROFILE`` (idempotent).

    Called once per process entry point (CLI main, pool child).  When the variable is unset this is one dict lookup; when set
    it starts the sampler and registers an atexit hook appending the
    profile record to the sink, so even pool children that exit through
    their slot's normal shutdown path leave their samples behind.
    """
    global _profiler, _sink, _owner_pid
    if _profiler is not _UNSET and _owner_pid == os.getpid():
        active = profiler()
        if active is not None:
            active.service = service
        return active
    path = (os.environ.get(PROFILE_ENV) or "").strip()
    if not path:
        _profiler = None
        _owner_pid = os.getpid()
        return None
    try:
        hz = int(os.environ.get(PROFILE_HZ_ENV, "") or DEFAULT_HZ)
    except ValueError:
        hz = DEFAULT_HZ
    _sink = Path(path)
    _profiler = SamplingProfiler(hz=hz, service=service)
    _owner_pid = os.getpid()
    _profiler.start()
    atexit.register(shutdown)
    # multiprocessing children (pool workers) leave through os._exit, which
    # skips atexit but *does* run multiprocessing's own finalizers — hook
    # both so their profiles land too.  shutdown() is idempotent.
    try:
        from multiprocessing import util as mp_util

        mp_util.Finalize(None, shutdown, exitpriority=0)
    except Exception:  # pragma: no cover - multiprocessing always importable
        pass
    return _profiler


def shutdown() -> None:
    """Stop the process profiler and flush its record to the sink."""
    active = profiler()
    if active is None or _owner_pid != os.getpid():
        # A forked child inherits the parent's atexit/finalizer hooks; only
        # the process that started a sampler may dump it (no duplicates).
        return
    active.stop()
    if _sink is not None:
        active.dump(_sink)
    reset()


def reset() -> None:
    """Forget the process profiler (tests); next maybe_start re-reads env."""
    global _profiler, _sink, _owner_pid
    active = profiler()
    if active is not None:
        active.stop()  # disarms this process's timer, whoever started the profiler
    _profiler = _UNSET
    _sink = None
    _owner_pid = None


def count(name: str, amount: float = 1.0) -> None:
    """Bump a deterministic counter; free (one isinstance) when off."""
    active = _profiler
    if isinstance(active, SamplingProfiler):
        active.count(name, amount)


# ---------------------------------------------------------------------------
# profile files: load / merge / collapsed output
# ---------------------------------------------------------------------------


def load_profiles(path: Path) -> List[Dict[str, Any]]:
    """Parse one JSONL profile sink, skipping blank or malformed lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("kind") == "profile":
                records.append(record)
    return records


def merge_stacks(records: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    """Fold the per-process ``stacks`` maps into one (sorted keys)."""
    merged: Dict[str, int] = {}
    for record in records:
        for stack, samples in (record.get("stacks") or {}).items():
            merged[stack] = merged.get(stack, 0) + int(samples)
    return dict(sorted(merged.items()))


def merge_counters(records: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Fold the per-process deterministic counters into one (sorted keys)."""
    merged: Dict[str, float] = {}
    for record in records:
        for name, value in (record.get("counters") or {}).items():
            merged[name] = merged.get(name, 0.0) + float(value)
    return dict(sorted(merged.items()))


def collapsed_lines(stacks: Mapping[str, int]) -> str:
    """Stacks in the standard collapsed format: ``frame;frame count``."""
    return "\n".join(f"{stack} {samples}" for stack, samples in sorted(stacks.items()))


def top_self(stacks: Mapping[str, int], limit: int = 15) -> List[Dict[str, Any]]:
    """Leaf-frame ranking: which function was *executing* when sampled."""
    leaves: Dict[str, int] = {}
    total = 0
    for stack, samples in stacks.items():
        leaf = stack.rsplit(";", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + int(samples)
        total += int(samples)
    ranked = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))[:limit]
    return [
        {
            "frame": frame,
            "samples": samples,
            "fraction": round(samples / total, 4) if total else 0.0,
        }
        for frame, samples in ranked
    ]
