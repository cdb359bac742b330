"""Lightweight wall-clock stage timers for the compiler/simulator hot paths.

The pipeline's coarse stages (``lex``, ``parse``, ``lower``, ``ssa``,
``dswp``, ``hls``, ``interp``, ``replay``) are wrapped in :func:`stage`
context managers at their call sites.  Timing is off by default and costs
one ``None`` check per stage entry; inside a :func:`collect` block every
stage accumulates wall-clock seconds and a call count into the active
:class:`StageTimings`.

Timers observe but never influence the pipeline: they read the monotonic
clock around a stage and touch no simulation state, so collected runs stay
byte-identical to uncollected ones.  ``repro profile`` and the report's
run-metadata section are the two consumers; ``tools/bench_hotpath.py``
uses the same collector for the before/after stage tables.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Canonical stage names, in pipeline order (used for stable table output).
#: ``ingest`` covers raw-C workload ingestion (repro.ingest.evaluate) and
#: ``explore`` one candidate evaluation (repro.explore.evaluate).
STAGES = ("lex", "parse", "lower", "ssa", "interp", "dswp", "hls", "replay", "ingest", "explore")


class StageTimings:
    """Accumulated wall-clock per stage: total seconds and call counts.

    Stages nest (``explore`` wraps ``dswp`` and ``replay``), and each
    stage's ``seconds`` include its nested stages.  :meth:`total`
    therefore counts only the time of outermost stages, so it never
    exceeds the wall time covered.
    """

    __slots__ = ("seconds", "calls", "outermost_seconds", "open_stages")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.outermost_seconds = 0.0
        self.open_stages = 0

    def add(self, stage_name: str, elapsed: float, outermost: bool = True) -> None:
        self.seconds[stage_name] = self.seconds.get(stage_name, 0.0) + elapsed
        self.calls[stage_name] = self.calls.get(stage_name, 0) + 1
        if outermost:
            self.outermost_seconds += elapsed

    def total(self) -> float:
        """Seconds spent inside any stage, nested stages counted once."""
        return self.outermost_seconds

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON form: ``{stage: {"seconds": s, "calls": n}}`` in pipeline order."""
        ordered = [s for s in STAGES if s in self.seconds]
        ordered += sorted(set(self.seconds) - set(STAGES))
        return {
            s: {"seconds": round(self.seconds[s], 6), "calls": self.calls[s]}
            for s in ordered
        }

    def table(self) -> str:
        """Human-readable fixed-width table (``repro profile`` output)."""
        rows = ["stage      seconds    calls"]
        for name, entry in self.as_dict().items():
            rows.append(f"{name:<9} {entry['seconds']:>8.4f} {entry['calls']:>8d}")
        rows.append(f"{'total':<9} {self.total():>8.4f}")
        return "\n".join(rows)


_active: Optional[StageTimings] = None


@contextmanager
def collect() -> Iterator[StageTimings]:
    """Enable stage timing for the dynamic extent; yields the accumulator.

    Re-entrant: a nested ``collect`` shadows the outer one for its extent
    (the outer block simply does not see the inner block's stages).
    """
    global _active
    previous = _active
    timings = StageTimings()
    _active = timings
    try:
        yield timings
    finally:
        _active = previous


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time one stage execution; free (one ``None`` check) when not collecting."""
    recorder = _active
    if recorder is None:
        yield
        return
    recorder.open_stages += 1
    start = time.perf_counter()
    try:
        yield
    finally:
        recorder.open_stages -= 1
        recorder.add(name, time.perf_counter() - start, outermost=recorder.open_stages == 0)
