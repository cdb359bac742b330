#!/usr/bin/env python3
"""Observability smoke: a traced, profiled report against a plain one.

The end-to-end acceptance check of the telemetry subsystem (see
docs/OBSERVABILITY.md).  Runs one ``repro report -j 2`` with
``$REPRO_TRACE``, ``$REPRO_PROFILE`` and ``$REPRO_HISTORY`` set and one
without, then asserts that:

* the two stdout payloads are byte-identical (telemetry must be
  observe-only) and the observed run is at most 10% slower than the plain
  one (one retry soaks timing flakes);
* the captured JSONL trace covers >= 95% of the executed task-graph nodes
  with valid parent links, and renders through ``repro trace`` (tree,
  Gantt, ``--summary`` and ``--critical-path`` — the critical path must
  cover >= 50% of the trace window); ``repro trace --chrome`` exports it
  as a loadable Chrome Trace Event document with a lane per pool worker;
* the sampled profile parses and renders as a flamegraph (``repro profile
  --from``, written to ``--flame-out`` for CI artifacts), and the history
  ledger holds the run's record;
* ``repro report --html`` under the same telemetry emits the profile /
  trace-analytics / trends cards;
* on a cold serial traced ``repro report --json`` of every benchmark, the
  stage spans and ``cache.put`` hold >= 90% of the ``harness`` span as
  self time and bare ``cache`` self time stays <= 5% (the first compile's
  pipeline import is a span of kind ``import``): the trace names the layer
  that spent the time.

Used by the ``obs-smoke`` CI job; handy manually:

    python tools/obs_smoke.py --benchmarks blowfish

Exits 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> int:
    print(f"obs-smoke: FAIL — {message}", file=sys.stderr)
    return 1


def repro_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRACE", None)  # each run opts in explicitly
    env.update(extra)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


#: Observed (trace + profile + history) cold runs may cost at most this
#: much relative to a plain cold run; one retry soaks scheduler noise.
MAX_OVERHEAD_RATIO = 1.10

#: Least share of the ``harness`` span held as self time by ``stage:*`` and
#: ``cache.put`` spans, and most share left as bare ``cache`` self time
#: (measured 2.0-2.3 % on a cold serial report of all eight benchmarks).
MIN_NAMED_SHARE = 0.90
MAX_CACHE_SELF_SHARE = 0.05


def _timed_report(benchmarks: str, cache_dir: Path, timeout: float,
                  env: Dict[str, str]) -> "tuple[float, subprocess.CompletedProcess]":
    start = time.perf_counter()
    result = subprocess.run(
        repro_cmd("report", "--json", "--benchmarks", benchmarks, "-j", "2",
                  "--cache-dir", str(cache_dir)),
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - start, result


def check_traced_report(benchmarks: str, timeout: float,
                        flame_out: Optional[str] = None) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        trace_file = Path(tmp) / "trace.jsonl"
        profile_file = Path(tmp) / "profile.jsonl"
        history_dir = Path(tmp) / "history"
        observed_env = repro_env(
            REPRO_TRACE=str(trace_file),
            REPRO_PROFILE=str(profile_file),
            REPRO_HISTORY=str(history_dir),
        )
        traced_seconds, traced = _timed_report(
            benchmarks, Path(tmp) / "cache-a", timeout, observed_env
        )
        if traced.returncode != 0:
            raise AssertionError(f"traced report exited {traced.returncode}: {traced.stderr}")
        plain_seconds, plain = _timed_report(
            benchmarks, Path(tmp) / "cache-b", timeout, repro_env()
        )
        if plain.returncode != 0:
            raise AssertionError(f"untraced report exited {plain.returncode}: {plain.stderr}")
        if traced.stdout != plain.stdout:
            raise AssertionError("traced report output differs from untraced output")
        print("obs-smoke: traced report byte-identical to untraced", flush=True)

        ratio = traced_seconds / max(plain_seconds, 1e-9)
        if ratio > MAX_OVERHEAD_RATIO:
            # One retry on fresh caches: CI machines are noisy and a single
            # descheduled second can swamp a short cold run.
            retry_traced, result = _timed_report(
                benchmarks, Path(tmp) / "cache-c", timeout, observed_env
            )
            if result.returncode != 0:
                raise AssertionError(f"retry traced report failed: {result.stderr}")
            retry_plain, result = _timed_report(
                benchmarks, Path(tmp) / "cache-d", timeout, repro_env()
            )
            if result.returncode != 0:
                raise AssertionError(f"retry untraced report failed: {result.stderr}")
            ratio = retry_traced / max(retry_plain, 1e-9)
            if ratio > MAX_OVERHEAD_RATIO:
                raise AssertionError(
                    f"telemetry overhead {ratio:.2f}x exceeds {MAX_OVERHEAD_RATIO:.2f}x "
                    f"(traced {retry_traced:.2f}s vs plain {retry_plain:.2f}s, "
                    f"first attempt {traced_seconds:.2f}s vs {plain_seconds:.2f}s)"
                )
        print(f"obs-smoke: telemetry overhead {ratio:.2f}x (budget "
              f"{MAX_OVERHEAD_RATIO:.2f}x)", flush=True)

        spans = [
            json.loads(line)
            for line in trace_file.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not spans:
            raise AssertionError("traced report wrote no spans")
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            parent = span.get("parent_id")
            if parent is not None and parent not in by_id:
                raise AssertionError(f"span {span['name']} has dangling parent {parent}")
        graph = subprocess.run(
            repro_cmd("graph", "--json", "--benchmarks", benchmarks),
            env=repro_env(), capture_output=True, text=True, timeout=120.0,
        )
        node_ids = {task["id"] for task in json.loads(graph.stdout)["tasks"]}
        covered = {
            span["name"][len("task:"):]
            for span in spans
            if span["name"].startswith("task:")
        }
        coverage = len(node_ids & covered) / max(1, len(node_ids))
        if coverage < 0.95:
            missing = sorted(node_ids - covered)[:10]
            raise AssertionError(
                f"trace covers {coverage:.0%} of task-graph nodes (< 95%); missing {missing}"
            )
        print(f"obs-smoke: trace covers {coverage:.0%} of {len(node_ids)} nodes", flush=True)

        for view in ([], ["--gantt"]):
            render = subprocess.run(
                repro_cmd("trace", str(trace_file), *view),
                env=repro_env(), capture_output=True, text=True, timeout=60.0,
            )
            if render.returncode != 0 or "trace " not in render.stdout:
                raise AssertionError(
                    f"repro trace {' '.join(view)} failed: {render.stderr or render.stdout}"
                )
        print("obs-smoke: repro trace renders (tree + gantt)", flush=True)

        summary = subprocess.run(
            repro_cmd("trace", str(trace_file), "--summary", "--json"),
            env=repro_env(), capture_output=True, text=True, timeout=60.0,
        )
        if summary.returncode != 0:
            raise AssertionError(f"repro trace --summary failed: {summary.stderr}")
        payload = json.loads(summary.stdout)
        kinds = {row["kind"] for row in payload.get("summary", [])}
        if "compile" not in kinds:
            raise AssertionError(f"trace summary lacks compile spans (kinds: {sorted(kinds)})")
        if payload.get("scheduler_overhead", {}).get("runs", 0) < 1:
            raise AssertionError("trace summary saw no scheduler.run span")
        critical = subprocess.run(
            repro_cmd("trace", str(trace_file), "--critical-path", "--json"),
            env=repro_env(), capture_output=True, text=True, timeout=60.0,
        )
        if critical.returncode != 0:
            raise AssertionError(f"repro trace --critical-path failed: {critical.stderr}")
        path = json.loads(critical.stdout)["critical_path"]
        if not path.get("hops"):
            raise AssertionError("critical path has no hops")
        if path.get("coverage", 0.0) < 0.5:
            raise AssertionError(
                f"critical path covers {path.get('coverage', 0.0):.0%} of the "
                "trace window (< 50%)"
            )
        print(
            f"obs-smoke: trace analytics OK (critical path {len(path['hops'])} hops, "
            f"{path['coverage']:.0%} coverage)", flush=True,
        )

        chrome_file = Path(tmp) / "chrome.json"
        chrome = subprocess.run(
            repro_cmd("trace", str(trace_file), "--chrome", str(chrome_file)),
            env=repro_env(), capture_output=True, text=True, timeout=60.0,
        )
        if chrome.returncode != 0:
            raise AssertionError(f"repro trace --chrome failed: {chrome.stderr}")
        events = json.loads(chrome_file.read_text(encoding="utf-8"))["traceEvents"]
        lanes = {e["tid"]: e["args"]["name"] for e in events if e.get("name") == "thread_name"}
        complete = [e for e in events if e.get("ph") == "X"]
        if len(complete) != len(spans) or any(e["tid"] not in lanes for e in complete):
            raise AssertionError(
                f"chrome export has {len(complete)} events for {len(spans)} spans "
                f"over lanes {sorted(lanes.values())}"
            )
        if not any(lane.startswith("pid:") for lane in lanes.values()):
            raise AssertionError(f"chrome export has no pool-worker lane: {sorted(lanes.values())}")
        print(f"obs-smoke: repro trace --chrome OK ({len(complete)} events, "
              f"{len(lanes)} lanes)", flush=True)

        records = [
            json.loads(line)
            for line in profile_file.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not records or any(rec.get("kind") != "profile" for rec in records):
            raise AssertionError(f"profile file malformed ({len(records)} records)")
        total_samples = sum(rec.get("samples", 0) for rec in records)
        if total_samples < 1:
            raise AssertionError("sampling profiler captured no samples on a cold report")
        flame_path = Path(flame_out) if flame_out else Path(tmp) / "flame.svg"
        flame = subprocess.run(
            repro_cmd("profile", "--from", str(profile_file), "--flame", str(flame_path)),
            env=repro_env(), capture_output=True, text=True, timeout=60.0,
        )
        if flame.returncode != 0:
            raise AssertionError(f"repro profile --from --flame failed: {flame.stderr}")
        if "<svg" not in flame_path.read_text(encoding="utf-8"):
            raise AssertionError(f"{flame_path} is not an SVG")
        print(
            f"obs-smoke: profile OK ({len(records)} process(es), {total_samples} samples, "
            f"flamegraph at {flame_path})", flush=True,
        )

        runs_file = history_dir / "runs.jsonl"
        if not runs_file.exists():
            raise AssertionError("observed report did not append to $REPRO_HISTORY")
        runs = [json.loads(line) for line in
                runs_file.read_text(encoding="utf-8").splitlines() if line.strip()]
        if not any(run.get("command") == "report" and
                   "wall_seconds" in run.get("metrics", {}) for run in runs):
            raise AssertionError(f"history ledger lacks the report record: {runs}")
        print("obs-smoke: run history ledger OK", flush=True)

        html_dir = Path(tmp) / "html"
        html_env = repro_env(
            REPRO_TRACE=str(Path(tmp) / "trace-html.jsonl"),
            REPRO_PROFILE=str(Path(tmp) / "profile-html.jsonl"),
            REPRO_HISTORY=str(history_dir),
        )
        # Fresh cache: a cold run is long enough for the sampler to
        # capture stacks, so the profile card is deterministically present.
        html_run = subprocess.run(
            repro_cmd("report", "--html", str(html_dir), "--benchmarks", benchmarks,
                      "-j", "2", "--cache-dir", str(Path(tmp) / "cache-html")),
            env=html_env, capture_output=True, text=True, timeout=timeout,
        )
        if html_run.returncode != 0:
            raise AssertionError(f"observed --html report failed: {html_run.stderr}")
        document = (html_dir / "report.html").read_text(encoding="utf-8")
        for section in ('id="trace-analytics"', 'id="profile"', 'id="trends"'):
            if section not in document:
                raise AssertionError(f"observed report.html lacks {section}")
        print("obs-smoke: observed report.html renders all telemetry cards", flush=True)


def check_layer_attribution(timeout: float) -> None:
    """A cold serial traced report of every benchmark: the stage spans and
    ``cache.put`` must account for the ``harness`` span."""
    with tempfile.TemporaryDirectory(prefix="repro-obs-layers-") as tmp:
        trace_file = Path(tmp) / "trace.jsonl"
        report = subprocess.run(
            repro_cmd("report", "--json", "--cache-dir", str(Path(tmp) / "cache")),
            env=repro_env(REPRO_TRACE=str(trace_file), REPRO_HISTORY="0"),
            capture_output=True, text=True, timeout=timeout,
        )
        if report.returncode != 0:
            raise AssertionError(f"serial traced report exited {report.returncode}: "
                                 f"{report.stderr}")
        summary = subprocess.run(
            repro_cmd("trace", str(trace_file), "--summary", "--json"),
            env=repro_env(), capture_output=True, text=True, timeout=60.0,
        )
        if summary.returncode != 0:
            raise AssertionError(f"repro trace --summary failed: {summary.stderr}")
        rows = {row["kind"]: row for row in json.loads(summary.stdout)["summary"]}
        if "harness" not in rows:
            raise AssertionError(f"serial trace has no harness span (kinds: {sorted(rows)})")
        harness = rows["harness"]["total_seconds"]
        named = sum(
            row["self_seconds"] for kind, row in rows.items()
            if kind.startswith("stage:") or kind == "cache.put"
        )
        cache_self = rows.get("cache", {}).get("self_seconds", 0.0)
        named_share, cache_share = named / harness, cache_self / harness
        if named_share < MIN_NAMED_SHARE or cache_share > MAX_CACHE_SELF_SHARE:
            raise AssertionError(
                f"stage:* + cache.put self time is {named_share:.1%} of the harness span "
                f"(>= {MIN_NAMED_SHARE:.0%} wanted), bare cache self time {cache_share:.1%} "
                f"(<= {MAX_CACHE_SELF_SHARE:.0%} wanted)"
            )
        print(
            f"obs-smoke: stage:* + cache.put hold {named_share:.1%} of the {harness:.2f}s "
            f"harness span, bare cache self time {cache_share:.1%}", flush=True,
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default="blowfish")
    parser.add_argument("--timeout", type=float, default=600.0, help="per-report budget (seconds)")
    parser.add_argument(
        "--flame-out",
        metavar="FILE.svg",
        help="also keep the rendered flamegraph here (CI artifact upload)",
    )
    args = parser.parse_args(argv)

    try:
        check_traced_report(args.benchmarks, args.timeout, flame_out=args.flame_out)
        check_layer_attribution(args.timeout)
    except AssertionError as exc:
        return fail(str(exc))
    print("obs-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
