#!/usr/bin/env python
"""Timed smoke benchmark of ``repro report`` for CI and the perf trajectory.

Runs the full report three times against a fresh cache directory:

1. **cold, parallel** — compiles every workload and computes every sweep
   point through the task-graph scheduler;
2. **warm, parallel** — must be byte-identical to the cold run and finish in
   under ``--max-warm-fraction`` (default 0.25) of the cold wall time, which
   is the regression gate for the cache + scheduler fast path;
3. **warm, serial** — must also be byte-identical, which is the regression
   gate for serial/parallel determinism.

The cold run is also gated against the checked-in ``BENCH_report.json``
baseline: if it takes more than ``--max-cold-ratio`` (default 1.25) times
the baseline's cold wall time, the run fails.  That is the CI guard that
keeps hot-path regressions from landing silently.

A fourth run, cold and parallel again on a cache of its own, is traced
(``$REPRO_TRACE``) and must print the same bytes.  Its per-layer numbers go
into the record next to the wall times: each pipeline stage's self
seconds, the number of builds (``stage:interp`` spans: one per workload
interpreted, so a cold ``-j 2`` report of all eight builds 8) and each
pool slot's busy seconds.  They are recorded, not gated.

Worker count defaults to *auto*: 2 processes when the machine has at least
2 CPUs, otherwise serial — on a single core two workers only timeshare it
and the process-pool overhead makes the "parallel" run strictly slower
than serial, which would poison the perf record.  Pass ``--parallel N``
explicitly to override (``--parallel 0`` forces serial).

Timings land in a JSON file (``BENCH_report.json`` by default) so successive
CI runs leave a comparable perf record.  Exits non-zero on any violated
invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def run_report(
    cache_dir: str, parallel: int | None, benchmarks: str | None, trace_file: str | None = None
) -> tuple[float, str]:
    """One ``repro report --json`` invocation, traced into *trace_file* if
    given; returns (seconds, stdout)."""
    cmd = [sys.executable, "-m", "repro.cli", "report", "--json", "--cache-dir", cache_dir]
    if parallel is not None:
        cmd += ["--parallel", str(parallel)]
    if benchmarks:
        cmd += ["--benchmarks", benchmarks]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRACE", None)
    if trace_file is not None:
        env["REPRO_TRACE"] = trace_file
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=1200)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"report run failed ({' '.join(cmd)}):\n{proc.stderr}")
    return elapsed, proc.stdout


def traced_layers(trace_file: str) -> dict:
    """The per-layer numbers of one traced run: each pipeline stage's self
    seconds, the builds (``stage:interp`` spans) and each pool slot's busy
    seconds (the summed durations of its task spans), slots in the order
    they took their first task."""
    from repro.obs.analyze import summarize
    from repro.obs.render import load_spans

    spans = load_spans(trace_file)
    rows = {row["kind"]: row for row in summarize(spans)}
    busy: dict = {}
    first: dict = {}
    for span in spans:
        if span.get("attrs", {}).get("resident") is None:
            continue  # ran in the parent
        worker = span["worker"]
        busy[worker] = busy.get(worker, 0.0) + span["end"] - span["start"]
        first[worker] = min(first.get(worker, span["start"]), span["start"])
    return {
        "stage_self_seconds": {
            kind[len("stage:"):]: round(row["self_seconds"], 4)
            for kind, row in sorted(rows.items())
            if kind.startswith("stage:")
        },
        "builds": rows["stage:interp"]["count"] if "stage:interp" in rows else 0,
        "slot_busy_seconds": [round(busy[worker], 4) for worker in sorted(busy, key=first.get)],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        help="worker processes; 0 forces serial (default: auto — 2 if the "
        "machine has >= 2 CPUs, else serial)",
    )
    parser.add_argument("--benchmarks", help="comma-separated workload subset (default: all)")
    parser.add_argument("--out", default="BENCH_report.json", help="timing output file")
    parser.add_argument(
        "--max-warm-fraction",
        type=float,
        default=float(os.environ.get("BENCH_MAX_WARM_FRACTION", "0.25")),
        help="fail if warm wall time exceeds this fraction of cold (default: 0.25)",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_report.json"),
        help="checked-in record to gate the cold run against (default: the "
        "repo's BENCH_report.json; missing file disables the gate)",
    )
    parser.add_argument(
        "--max-cold-ratio",
        type=float,
        default=float(os.environ.get("BENCH_MAX_COLD_RATIO", "1.25")),
        help="fail if cold wall time exceeds this multiple of the baseline's "
        "cold time (default: 1.25; <= 0 disables)",
    )
    args = parser.parse_args(argv)

    if args.parallel is None:
        parallel = 2 if (os.cpu_count() or 1) >= 2 else 0
    else:
        parallel = max(args.parallel, 0)
    workers = parallel if parallel > 0 else None

    # Read the baseline *before* the out file (often the same path) is
    # overwritten with this run's record.
    baseline_cold = None
    if args.max_cold_ratio > 0 and os.path.exists(args.baseline):
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline_cold = json.load(fh).get("cold_parallel_seconds")
        except (OSError, ValueError):
            baseline_cold = None

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        cache_dir = os.path.join(workdir, "cache")
        cold_seconds, cold_out = run_report(cache_dir, workers, args.benchmarks)
        warm_seconds, warm_out = run_report(cache_dir, workers, args.benchmarks)
        serial_seconds, serial_out = run_report(cache_dir, None, args.benchmarks)
        trace_file = os.path.join(workdir, "trace.jsonl")
        traced_seconds, traced_out = run_report(
            os.path.join(workdir, "traced_cache"), workers, args.benchmarks, trace_file
        )
        layers = traced_layers(trace_file)

    failures = []
    if warm_out != cold_out:
        failures.append("warm parallel output differs from cold parallel output")
    if serial_out != cold_out:
        failures.append("serial output differs from parallel output")
    if traced_out != cold_out:
        failures.append("traced output differs from untraced output")
    warm_fraction = warm_seconds / max(cold_seconds, 1e-9)
    if warm_fraction >= args.max_warm_fraction:
        failures.append(
            f"warm run took {warm_fraction:.1%} of cold ({warm_seconds:.2f}s / "
            f"{cold_seconds:.2f}s), budget is {args.max_warm_fraction:.0%}"
        )
    cold_ratio = None
    if baseline_cold:
        cold_ratio = cold_seconds / baseline_cold
        if cold_ratio > args.max_cold_ratio:
            failures.append(
                f"cold run took {cold_ratio:.2f}x the baseline "
                f"({cold_seconds:.2f}s vs {baseline_cold:.2f}s), "
                f"budget is {args.max_cold_ratio:.2f}x"
            )

    record = {
        "benchmarks": args.benchmarks or "all",
        "parallel": parallel,
        "baseline_cold_seconds": baseline_cold,
        "cold_ratio_to_baseline": round(cold_ratio, 4) if cold_ratio is not None else None,
        "cold_parallel_seconds": round(cold_seconds, 3),
        "warm_parallel_seconds": round(warm_seconds, 3),
        "warm_serial_seconds": round(serial_seconds, 3),
        "warm_fraction_of_cold": round(warm_fraction, 4),
        "traced_cold_parallel": {"seconds": round(traced_seconds, 3), **layers},
        "outputs_byte_identical": not failures or all("output" not in f for f in failures),
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
        "bench_report",
        {
            "cold_parallel_seconds": cold_seconds,
            "warm_parallel_seconds": warm_seconds,
            "warm_serial_seconds": serial_seconds,
            "warm_fraction_of_cold": warm_fraction,
        },
        attrs={"benchmarks": args.benchmarks or "all", "parallel": parallel},
    )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    baseline_note = (
        f", {cold_ratio:.2f}x baseline" if cold_ratio is not None else ""
    )
    print(
        f"ok: cold {cold_seconds:.2f}s{baseline_note}, warm {warm_seconds:.2f}s "
        f"({warm_fraction:.1%} of cold), outputs byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
