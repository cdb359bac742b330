"""Traced entry point: run one ``repro`` command with its layers wrapped from outside.

Usage (``PYTHONPATH=src``)::

    python3 perfbench/tracer.py SPANS.json report --json --cache-dir DIR

The tracer times ``import repro.cli`` (the ``startup`` layer), wraps the
public call of every pipeline and infrastructure layer listed in
:data:`PROBES`, then calls ``repro.cli.main(argv)`` with the remaining
arguments.  Spans stay in memory with parent links and are written to
SPANS.json once the command returns; the command's stdout is untouched, so
it can be compared byte for byte with an untraced run.  No file under
``src/`` is changed.

Class methods are patched on the class, because callers look them up at
call time.  Module-level names are patched where they are *called*:
``repro.core.compiler`` and ``repro.sim.system`` bind ``compile_c`` and
``run_dswp`` at import, so patching ``repro.dswp.pipeline`` alone would
record nothing.  Only this process is traced; with ``-j N`` the pool
children run unrecorded and the parent-side ``pool`` spans cover them.

:func:`summarize` turns a spans document into the per-layer metrics the
benchmark reports.  A layer's self time is its span's duration minus the
duration of its child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


def _assignment(args: tuple, kwargs: dict) -> Any:
    return kwargs["assignment"] if "assignment" in kwargs else args[2]


def _replay_probe(args: tuple, kwargs: dict) -> str:
    # The ready engine takes a separate single-thread path, so the split by
    # the assignment's thread count is the split the engine itself makes.
    return "replay.multi" if len(_assignment(args, kwargs).threads) > 1 else "replay.single"


def _interp_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"events": len(result.trace) if result.trace is not None else 0}


def _replay_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"events": int(result.events)}


def _get_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"hit": int(result is not None)}


def _get_blob_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"bytes": len(result[1]) if result is not None else 0}


def _put_blob_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    data = kwargs["data"] if "data" in kwargs else args[3]
    return {"bytes": len(data)}


def _scheduler_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    stats = args[0].stats
    return {"tasks": int(stats["total"]), "executed": sum(stats["executed"].values())}


#: (module, owner attribute or None for a module global, attribute, probe
#: name or a function of the call's arguments, info function).  A probe
#: name is ``layer`` or ``layer@binding``; the binding guard in
#: ``selfcheck.py`` requires every probe to record at least one call.
PROBES = (
    ("repro.core.compiler", None, "compile_c", "frontend", None),
    ("repro.core.compiler", "TwillCompiler", "compile_module", "ssa", None),
    ("repro.interp.interpreter", "Interpreter", "run", "interp", _interp_info),
    ("repro.core.compiler", None, "run_dswp", "dswp@compiler", None),
    ("repro.sim.system", None, "run_dswp", "dswp@system", None),
    ("repro.hls.legup", "LegUpFlow", "run", "hls", None),
    ("repro.sim.timing", "TimingSimulator", "simulate", _replay_probe, _replay_info),
    ("repro.explore.evaluate", None, "compute_explore_point", "explore", None),
    ("repro.eval.cache", "ArtifactCache", "get", "cache.get", _get_info),
    ("repro.eval.cache", "ArtifactCache", "put", "cache.put", None),
    ("repro.eval.cache", "LocalFSBackend", "get_blob", "cache.get_blob", _get_blob_info),
    ("repro.eval.cache", "LocalFSBackend", "put_blob", "cache.put_blob", _put_blob_info),
    ("repro.eval.taskgraph", "TaskScheduler", "run", "scheduler", _scheduler_info),
    ("repro.eval.taskgraph", "LocalProcessExecutor", "submit", "pool.submit", None),
    ("repro.eval.taskgraph", "LocalProcessExecutor", "wait", "pool.wait", None),
)

#: Every probe name the wrapped layers can record.
PROBE_NAMES = tuple(probe for *_, probe, _ in PROBES if isinstance(probe, str)) + (
    "replay.multi", "replay.single",
)


class Recorder:
    """In-memory span store: ``[probe, start, end, parent index, info]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, probe: str, start: float, end: float) -> None:
        """Record a finished top-level span (used for start-up)."""
        self.spans.append([probe, start, end, -1, None])

    def wrap(
        self,
        owner: Any,
        attr: str,
        probe: Any,
        info: Optional[Callable[[tuple, dict, Any], Dict[str, int]]],
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = probe(args, kwargs) if callable(probe) else probe
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer in :data:`PROBES`."""
        for module_name, owner_name, attr, probe, info in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attr, probe, info)


def probe_calls(doc: Dict[str, Any]) -> Dict[str, int]:
    """Number of recorded spans per probe name."""
    calls = dict.fromkeys(PROBE_NAMES, 0)
    for span in doc["spans"]:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return calls


def summarize(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json ``per_layer``)."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for probe, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    probes = {name: {"calls": 0, "self": 0.0, "total": 0.0} for name in PROBE_NAMES}
    counters: Dict[str, float] = {}
    explore_dswp = 0
    for index, (probe, start, end, parent, info) in enumerate(spans):
        entry = probes.setdefault(probe, {"calls": 0, "self": 0.0, "total": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        for key, value in (info or {}).items():
            counters[f"{probe}.{key}"] = counters.get(f"{probe}.{key}", 0) + value
        if probe.startswith("dswp@"):
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "explore":
                ancestor = spans[ancestor][3]
            explore_dswp += ancestor >= 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    p = probes
    replay_self = p["replay.multi"]["self"] + p["replay.single"]["self"]
    replay_events = counters.get("replay.multi.events", 0) + counters.get("replay.single.events", 0)
    lookups = p["cache.get"]["calls"]
    named_self = sum(entry["self"] for entry in probes.values())
    return {
        "startup.import_s": p["startup"]["self"],
        "frontend.self_s": p["frontend"]["self"],
        "frontend.calls": p["frontend"]["calls"],
        "ssa.self_s": p["ssa"]["self"],
        "interp.self_s": p["interp"]["self"],
        "interp.calls": p["interp"]["calls"],
        "interp.events": counters.get("interp.events", 0),
        "interp.events_per_s": ratio(counters.get("interp.events", 0), p["interp"]["self"]),
        "dswp.self_s": p["dswp@compiler"]["self"] + p["dswp@system"]["self"],
        "dswp.calls": p["dswp@compiler"]["calls"] + p["dswp@system"]["calls"],
        "hls.self_s": p["hls"]["self"],
        "replay.multi.self_s": p["replay.multi"]["self"],
        "replay.multi.calls": p["replay.multi"]["calls"],
        "replay.single.self_s": p["replay.single"]["self"],
        "replay.single.calls": p["replay.single"]["calls"],
        "replay.events": replay_events,
        "replay.events_per_s": ratio(replay_events, replay_self),
        "explore.self_s": p["explore"]["self"],
        "explore.points": p["explore"]["calls"],
        "explore.dswp_reuse": (
            1.0 - explore_dswp / p["explore"]["calls"] if p["explore"]["calls"] else 0.0
        ),
        "cache.lookups": lookups,
        "cache.hit_ratio": ratio(counters.get("cache.get.hit", 0), lookups),
        "cache.decode_s": p["cache.get"]["self"],
        "cache.encode_s": p["cache.put"]["self"],
        "cache.read_s": p["cache.get_blob"]["total"],
        "cache.write_s": p["cache.put_blob"]["total"],
        "cache.bytes_read": counters.get("cache.get_blob.bytes", 0),
        "cache.bytes_written": counters.get("cache.put_blob.bytes", 0),
        "scheduler.self_s": p["scheduler"]["self"],
        "scheduler.tasks": counters.get("scheduler.tasks", 0),
        "scheduler.executed": counters.get("scheduler.executed", 0),
        "pool.submit_s": p["pool.submit"]["total"],
        "pool.wait_s": p["pool.wait"]["total"],
        "pool.tasks": p["pool.submit"]["calls"],
        "traced_wall_s": doc["wall_s"],
        "layer_coverage": ratio(named_self, doc["wall_s"]),
    }


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json REPRO-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    started = perf_counter()
    cli = importlib.import_module("repro.cli")
    recorder.span("startup", started, perf_counter())
    recorder.install()
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        wall = perf_counter() - started
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "wall_s": wall, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
