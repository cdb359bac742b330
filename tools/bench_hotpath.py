#!/usr/bin/env python
"""Before/after micro-benchmark of the hot-path overhauls.

Each A/B leg times the new implementation against its reference **in the
same process, on the same inputs**, and verifies the two produce identical
output before reporting a single number:

* **frontend** — the batched-regex lexer and the recursive-descent parser
  over every builtin workload source; per-stage lex/parse seconds come
  from the :mod:`repro.perf` collectors.  Not an A/B leg: there is one
  parser, so this is a plain timing.
* **replay** — a first replay (readiness-driven scheduler, then the
  re-time pass) vs the cooperative poll engine kept as the differential
  oracle (``tests/replay_oracle.py``), replaying each workload's trace
  under its pure-SW, pure-HW and DSWP-partitioned assignments.  The replay
  memos are dropped before every timed replay, so none is served a
  recording or a result; the identity check also holds a second replay of
  each job, served by the result memo, equal to the oracle.
* **sweep** — one workload's six Figure 6.5/6.6 runtime points replayed
  the way a report does (the first replay of each queue depth schedules,
  the rest re-time its recording) vs the same points with the memos
  dropped before each, which re-runs the scheduler every time.
* **explore** — incremental candidate evaluation (memoized shared
  re-partition stage) vs re-running DSWP for every candidate, over the
  report's 3x3 split-target x queue-depth space.
* **interp** — traced interpretation of every workload by the decoded,
  slot-indexed interpreter vs the tree-walking engine kept as the
  differential oracle (``tests/interp_oracle.py``), on the same compiled
  modules; every trace column, the instruction table, the outputs and the
  step counts must agree.
* **trace** — per workload, the seconds to record the columnar trace (an
  interpreter run with tracing, next to one without).  Not an A/B leg:
  its check is that two traced runs record the same columns, which a
  re-simulation's build of a compile relies on.
* **artifact** — per workload, the seconds to encode its compile summary,
  to decode it the way a cache hit does (magic, checksum, summary) and to
  build the heavy fields the way a re-simulation does (one
  ``TwillCompiler.build``: the flow up to DSWP and LegUp), plus the
  payload's bytes.  Not an A/B leg: its check is that the payload decodes
  to the summary and every build reproduces the compile's outputs, DSWP
  summary and trace columns.
* **startup** — the wall time of a fresh interpreter running
  ``import repro.cli``, ``repro list`` and a warm ``repro report --json``
  (median of :data:`STARTUP_RUNS`, pinned to one CPU), with the number of
  ``repro`` modules and source lines each loads.  Not an A/B leg: its check
  is that the warm report prints the cold report's bytes.

Results land in ``BENCH_hotpath.json`` (override with ``--out``).  Exits
non-zero if any leg's outputs diverge or any A/B leg's new implementation
is slower than its reference beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)  # tests.replay_oracle, tests.interp_oracle

from repro import perf  # noqa: E402
from repro.frontend.lexer import tokenize  # noqa: E402
from repro.frontend.parser import Parser  # noqa: E402
from repro.workloads import all_workloads  # noqa: E402

#: Workloads whose traces the replay leg simulates (kept small: replay cost
#: scales with dynamic instruction count, and two shapes suffice).
REPLAY_WORKLOADS = ("blowfish", "mips")
#: The A/B legs, in report order (the frontend, trace and artifact legs have
#: no reference side).
LEGS = ("replay", "sweep", "explore", "interp")
#: Workload whose runtime sweep the sweep leg replays: of all workloads its
#: Twill replay has the largest share of cross-thread events (about 42 %).
SWEEP_WORKLOAD = "jpeg"
#: Fresh-interpreter runs per command of the startup leg (it reports the median).
STARTUP_RUNS = 7


def _timed(fn):
    """Run *fn*, returning (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_frontend(repeats: int) -> dict:
    """Leg (a): lex+parse every builtin workload source."""
    sources = [w.source for w in all_workloads()]

    def run():
        with perf.collect() as timings:
            for _ in range(repeats):
                for source in sources:
                    with perf.stage("lex"):
                        tokens = tokenize(source)
                    with perf.stage("parse"):
                        Parser(tokens).parse_translation_unit()
            return timings

    seconds, timings = _timed(run)
    return {
        "seconds": round(seconds, 4),
        "stages": timings.as_dict(),
        "sources": len(sources),
        "repeats": repeats,
    }


def _compiled(name: str):
    """(module, trace, DSWP result) of one builtin workload."""
    from repro.core.compiler import TwillCompiler
    from repro.dswp import run_dswp
    from repro.interp import Profile, run_module
    from repro.workloads import get_workload

    module = TwillCompiler().compile_module(get_workload(name).source, name)
    execution = run_module(module, record_trace=True)
    profile = Profile.from_trace(module, execution.trace)
    return module, execution.trace, run_dswp(module, profile=profile)


def _drop_replay_memos(trace) -> None:
    """Forget the trace's memoised setups, schedules and results (keeps its index)."""
    from repro.sim.timing import _trace_index

    index = _trace_index(trace)
    index.setups.clear()
    index.results.clear()


def bench_replay(repeats: int) -> dict:
    """Leg (b): replay each workload trace with the scheduler and the oracle."""
    import dataclasses

    from repro.sim import ThreadAssignment, TimingSimulator
    from tests.replay_oracle import poll_replay

    jobs = []
    for name in REPLAY_WORKLOADS:
        module, trace, dswp = _compiled(name)
        for assignment in (
            ThreadAssignment.pure_software(module),
            ThreadAssignment.pure_hardware(module),
            ThreadAssignment.from_partitioning(module, dswp.partitioning),
        ):
            jobs.append((trace, assignment))

    sim = TimingSimulator()

    def ready():
        results = []
        for _ in range(repeats):
            for trace, assignment in jobs:
                _drop_replay_memos(trace)
                results.append(sim.simulate(trace, assignment))
        return results

    def oracle():
        return [
            poll_replay(sim, trace, assignment)
            for _ in range(repeats)
            for trace, assignment in jobs
        ]

    ready_seconds, ready_results = _timed(ready)
    poll_seconds, poll_results = _timed(oracle)
    hits = []
    for trace, assignment in jobs:
        _drop_replay_memos(trace)
        sim.simulate(trace, assignment)
        hits.append(sim.simulate(trace, assignment))
    identical = all(
        dataclasses.asdict(a) == dataclasses.asdict(b)
        for a, b in zip(ready_results + hits, poll_results + poll_results[: len(jobs)])
    )
    return {
        "after_seconds": round(ready_seconds, 4),
        "before_seconds": round(poll_seconds, 4),
        "speedup": round(poll_seconds / max(ready_seconds, 1e-9), 3),
        "identical": identical,
        "traces": len(jobs),
        "repeats": repeats,
    }


def bench_sweep(repeats: int) -> dict:
    """Leg (c): one workload's runtime sweep, re-timed vs re-scheduled.

    The six points are the distinct runtime configurations of Figures 6.5
    (queue latencies at the base depth) and 6.6 (queue depths at the base
    latency).  Points that share a queue depth share one recorded schedule.
    """
    import dataclasses

    from repro.config import RuntimeConfig
    from repro.eval.experiments import FIGURE_6_6_BASE_DEPTH, QUEUE_DEPTHS, QUEUE_LATENCIES
    from repro.sim import ThreadAssignment, TimingSimulator

    module, trace, dswp = _compiled(SWEEP_WORKLOAD)
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    points = [
        RuntimeConfig(queue_depth=FIGURE_6_6_BASE_DEPTH, queue_latency=latency)
        for latency in QUEUE_LATENCIES
    ] + [
        RuntimeConfig(queue_depth=depth, queue_latency=QUEUE_LATENCIES[0])
        for depth in QUEUE_DEPTHS
        if depth != FIGURE_6_6_BASE_DEPTH
    ]
    sims = [TimingSimulator(runtime) for runtime in points]
    # Build the trace index once, outside both timings.
    TimingSimulator().simulate(trace, ThreadAssignment.pure_software(module))

    def memoised():
        results = []
        for _ in range(repeats):
            _drop_replay_memos(trace)
            results.extend(sim.simulate(trace, assignment) for sim in sims)
        return results

    def rescheduled():
        results = []
        for _ in range(repeats):
            for sim in sims:
                _drop_replay_memos(trace)
                results.append(sim.simulate(trace, assignment))
        return results

    after_seconds, after = _timed(memoised)
    before_seconds, before = _timed(rescheduled)
    return {
        "after_seconds": round(after_seconds, 4),
        "before_seconds": round(before_seconds, 4),
        "speedup": round(before_seconds / max(after_seconds, 1e-9), 3),
        "identical": [dataclasses.asdict(r) for r in after]
        == [dataclasses.asdict(r) for r in before],
        "workload": SWEEP_WORKLOAD,
        "points": len(points),
        "events": len(trace),
        "repeats": repeats,
    }


def bench_explore() -> dict:
    """Leg (d): evaluate the report's 9-candidate space both ways.

    The "before" path re-runs DSWP per candidate (memo cleared around every
    point) — exactly what evaluation did before the re-partition stage
    became shared.
    """
    from repro.config import CompilerConfig
    from repro.eval.cache import compile_key
    from repro.explore import evaluate
    from repro.explore.space import report_space
    from repro.sim import system
    from repro.workloads import get_workload

    space = report_space()
    config = CompilerConfig()
    parent = compile_key(get_workload("blowfish").source, config)
    candidates = list(space.candidates())
    dswp_runs = []
    real_repartition = system.repartition

    def counting(*args, **kwargs):
        dswp_runs.append(1)
        return real_repartition(*args, **kwargs)

    # The explore payload imports the DSWP stage where it runs it.
    system.repartition = counting
    try:
        with tempfile.TemporaryDirectory(prefix="repro-hotpath-") as workdir:
            cache_root = os.path.join(workdir, "cache")

            def point(candidate, incremental):
                if not incremental:
                    evaluate._DSWP_MEMO.clear()
                return evaluate.compute_explore_point(
                    "blowfish",
                    config,
                    cache_root if incremental else None,
                    candidate.apply(space, config),
                    parent,
                )

            # Warm the compile artifact first so neither variant pays for it.
            point(candidates[0], True)
            evaluate._DSWP_MEMO.clear()
            dswp_runs.clear()

            after_seconds, after = _timed(
                lambda: [point(c, True) for c in candidates]
            )
            after_runs = len(dswp_runs)
            dswp_runs.clear()
            before_seconds, before = _timed(
                lambda: [point(c, False) for c in candidates]
            )
            before_runs = len(dswp_runs)
    finally:
        system.repartition = real_repartition
        evaluate._DSWP_MEMO.clear()

    return {
        "after_seconds": round(after_seconds, 4),
        "before_seconds": round(before_seconds, 4),
        "speedup": round(before_seconds / max(after_seconds, 1e-9), 3),
        "identical": json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True),
        "candidates": len(candidates),
        "dswp_runs_after": after_runs,
        "dswp_runs_before": before_runs,
    }


#: The trace columns the interp, trace and artifact legs compare.
TRACE_COLUMNS = ("inst", "deps", "dep_offsets", "mem_dep", "address", "value", "present",
                 "block_starts")


def bench_interp(repeats: int) -> dict:
    """Leg (e): trace every workload with the decoded interpreter and the oracle.

    Each side is timed over *repeats* traced runs of all the modules.
    """
    from repro.core.compiler import TwillCompiler
    from repro.interp.interpreter import Interpreter
    from tests.interp_oracle import OracleInterpreter

    modules = [TwillCompiler().compile_module(w.source, w.name) for w in all_workloads()]

    def run(engine):
        return [
            engine(module, record_trace=True).run()
            for _ in range(repeats)
            for module in modules
        ]

    def same(a, b) -> bool:
        return (
            all(getattr(a.trace, c) == getattr(b.trace, c) for c in TRACE_COLUMNS)
            and a.trace.instructions == b.trace.instructions
            and a.trace.functions == b.trace.functions
            and (a.outputs, a.return_value, a.steps) == (b.outputs, b.return_value, b.steps)
        )

    after_seconds, after = _timed(lambda: run(Interpreter))
    before_seconds, before = _timed(lambda: run(OracleInterpreter))
    return {
        "after_seconds": round(after_seconds, 4),
        "before_seconds": round(before_seconds, 4),
        "speedup": round(before_seconds / max(after_seconds, 1e-9), 3),
        "identical": all(same(a, b) for a, b in zip(after, before)),
        "events": sum(len(r.trace) for r in after[: len(modules)]),
        "workloads": len(modules),
        "repeats": repeats,
    }


def bench_trace(repeats: int) -> dict:
    """Leg (f): record every workload's trace, and run it untraced.

    Each time is the best of *repeats*.
    """
    from repro.core.compiler import TwillCompiler
    from repro.interp import run_module

    per_workload = {}
    identical = True
    for workload in all_workloads():
        module = TwillCompiler().compile_module(workload.source, workload.name)
        best = {"untraced": [], "record": []}
        traces = []
        for _ in range(repeats):
            seconds, _ = _timed(lambda: run_module(module))
            best["untraced"].append(seconds)
            seconds, execution = _timed(lambda: run_module(module, record_trace=True))
            best["record"].append(seconds)
            traces.append(execution.trace)
        first = traces[0]
        identical = identical and all(
            trace.instructions == first.instructions
            and all(getattr(trace, c) == getattr(first, c) for c in TRACE_COLUMNS)
            for trace in traces
        )
        per_workload[workload.name] = {
            "events": len(first),
            **{f"{step}_seconds": round(min(times), 4) for step, times in best.items()},
        }
    totals = {
        key: round(sum(w[key] for w in per_workload.values()), 4)
        for key in ("untraced_seconds", "record_seconds", "events")
    }
    return {**totals, "identical": identical, "workloads": per_workload, "repeats": repeats}


def bench_artifact(repeats: int) -> dict:
    """Leg (g): encode every workload's compile summary, read it back, and
    build the compile's heavy fields.

    ``encode`` writes the payload; ``decode`` reads it the way a cache hit
    does; ``build`` is one :meth:`~repro.core.compiler.TwillCompiler.build`
    (front end, traced interpreter, DSWP and LegUp), which a sweep, split
    or explore point runs for a compile its process does not hold.  Each
    time is the best of *repeats*.
    """
    from repro.core.compiler import TwillCompiler
    from repro.eval.artifact_codec import decode_compilation_result
    from repro.eval.heavy_codec import encode_compilation_result

    per_workload = {}
    identical = True
    for workload in all_workloads():
        compiler = TwillCompiler()
        result = compiler.compile_and_simulate(workload.source, name=workload.name)
        summary = result.summary()
        best = {"encode": [], "decode": [], "build": []}
        for _ in range(repeats):
            seconds, payload = _timed(lambda: encode_compilation_result(summary))
            best["encode"].append(seconds)
            seconds, decoded = _timed(lambda: decode_compilation_result(payload))
            best["decode"].append(seconds)
            seconds, fields = _timed(lambda: compiler.build(workload.source, workload.name))
            best["build"].append(seconds)
        recorded, rebuilt = result.execution.trace, fields["execution"].trace
        identical = (
            identical
            and decoded == summary
            and fields["execution"].outputs == summary.outputs
            and fields["dswp"].summary() == summary.dswp
            and all(getattr(rebuilt, c) == getattr(recorded, c) for c in TRACE_COLUMNS)
        )
        per_workload[workload.name] = {
            "bytes": len(payload),
            **{f"{step}_seconds": round(min(times), 4) for step, times in best.items()},
        }
    totals = {
        key: round(sum(w[key] for w in per_workload.values()), 4)
        for key in ("encode_seconds", "decode_seconds", "build_seconds", "bytes")
    }
    return {**totals, "identical": identical, "workloads": per_workload, "repeats": repeats}


# Runs one start-up command (argv ``null``: only ``import repro.cli``), then
# reports the repro modules it loaded and their source lines on stderr.
_STARTUP_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import repro.cli
code = 0 if argv is None else repro.cli.main(argv)
sys.stdout.flush()
files = [getattr(m, "__file__", None) for n, m in list(sys.modules.items())
         if n == "repro" or n.startswith("repro.")]
lines = sum(sum(1 for _ in open(f, encoding="utf-8")) for f in files if f)
print(json.dumps({"modules": len(files), "lines": lines}), file=sys.stderr)
sys.exit(code)
"""


def bench_startup(runs: int) -> dict:
    """Leg (h): fresh-interpreter start-up of three commands.

    The package is copied without any ``__pycache__`` and run with
    ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles ``repro`` from
    source as a checkout without bytecode does, while the standard library
    keeps its bytecode.  (An empty ``PYTHONPYCACHEPREFIX`` would hide the
    standard library's bytecode too, and the leg would mostly time
    compiling it.)  The warm report runs on a cache one cold report filled,
    and records its run history as a real one does.
    """
    pin = None
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))

        def pin():
            os.sched_setaffinity(0, {cpu})

    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(src, "repro"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=src,
            PYTHONDONTWRITEBYTECODE="1",
            REPRO_HISTORY=os.path.join(tmp, "history"),
        )
        cache = os.path.join(tmp, "cache")
        commands = {
            "import": None,
            "list": ["list"],
            "warm_report": ["report", "--json", "--cache-dir", cache],
        }

        def run(args):
            proc = subprocess.run(
                [sys.executable] + args,
                env=env,
                cwd=tmp,
                capture_output=True,
                check=True,
                preexec_fn=pin,
            )
            return proc.stdout, proc.stderr

        cold, _ = run(["-m", "repro.cli"] + commands["warm_report"])
        record: dict = {"runs": runs}
        identical = True
        for name, argv in commands.items():
            args = ["-c", "import repro.cli"] if argv is None else ["-m", "repro.cli"] + argv
            seconds = []
            for _ in range(runs):
                elapsed, (stdout, _) = _timed(lambda: run(args))
                seconds.append(elapsed)
                if name == "warm_report":
                    identical = identical and stdout == cold
            _, stderr = run(["-c", _STARTUP_PROBE, json.dumps(argv)])
            loaded = json.loads(stderr.decode().strip().splitlines()[-1])
            record[name] = {
                "seconds": round(statistics.median(seconds), 4),
                "modules": loaded["modules"],
                "lines": loaded["lines"],
            }
    return {**record, "identical": identical}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_hotpath.json", help="timing output file")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="frontend/replay/sweep/interp/trace/artifact timing repetitions (default: 3)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_HOTPATH_TOLERANCE", "0.9")),
        help="fail a leg if its speedup falls below this (default: 0.9, i.e. "
        "the new path may not be >10%% slower than the reference)",
    )
    args = parser.parse_args(argv)

    record = {
        "frontend": bench_frontend(args.repeats),
        "replay": bench_replay(args.repeats),
        "sweep": bench_sweep(args.repeats),
        "explore": bench_explore(),
        "interp": bench_interp(args.repeats),
        "trace": bench_trace(args.repeats),
        "artifact": bench_artifact(args.repeats),
        "startup": bench_startup(STARTUP_RUNS),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))

    # Append the timings to the persistent run ledger so `repro history
    # check` can flag regressions across CI runs (never fails the bench).
    from repro.obs import history as obs_history

    obs_history.record_run(
        "bench_hotpath",
        {
            "frontend_seconds": record["frontend"]["seconds"],
            **{
                f"{leg}_{side}_seconds": record[leg][f"{side}_seconds"]
                for leg in LEGS
                for side in ("after", "before")
            },
            **{
                f"trace_{step}_seconds": record["trace"][f"{step}_seconds"]
                for step in ("untraced", "record")
            },
            **{
                f"artifact_{step}_seconds": record["artifact"][f"{step}_seconds"]
                for step in ("encode", "decode", "build")
            },
            **{
                f"startup_{command}_seconds": record["startup"][command]["seconds"]
                for command in ("import", "list", "warm_report")
            },
        },
        attrs={"repeats": args.repeats},
    )

    failures = []
    if not record["trace"]["identical"]:
        failures.append("trace: two traced runs of a workload recorded different columns")
    if not record["artifact"]["identical"]:
        failures.append("artifact: a build or a decode differs from the compile's summary")
    if not record["startup"]["identical"]:
        failures.append("startup: the warm report's stdout differs from the cold report's")
    for leg in LEGS:
        if not record[leg]["identical"]:
            failures.append(f"{leg}: new and reference implementations diverge")
        if record[leg]["speedup"] < args.tolerance:
            failures.append(
                f"{leg}: speedup {record[leg]['speedup']}x below tolerance {args.tolerance}x"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"ok: frontend {record['frontend']['seconds']} s, "
        + ", ".join(f"{leg} {record[leg]['speedup']}x" for leg in LEGS)
        + f", trace untraced/record {record['trace']['untraced_seconds']}/"
        f"{record['trace']['record_seconds']} s"
        + f", artifact encode/decode/build {record['artifact']['encode_seconds']}/"
        f"{record['artifact']['decode_seconds']}/{record['artifact']['build_seconds']} s"
        + ", startup import/list/warm report "
        + "/".join(str(record["startup"][c]["seconds"]) for c in ("import", "list", "warm_report"))
        + " s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
