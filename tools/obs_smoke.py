#!/usr/bin/env python3
"""Observability smoke: /metrics scrape + /status read + traced report.

The end-to-end acceptance check of the telemetry subsystem (see
docs/OBSERVABILITY.md), in three acts:

1. **Services.** Starts one cache service and one coordinator on
   127.0.0.1, both requiring a service token, drives a little real
   traffic through both (register a worker, lease and complete a task,
   heartbeat, cache miss + put + hit), then scrapes ``GET /metrics`` from
   each and validates the Prometheus text exposition: parseable format,
   correct content type, and the minimum metric set a dashboard needs
   (task throughput, queue depth, worker liveness, lease latency, cache
   hits/misses/puts).
2. **Worker liveness.** Reads the coordinator's ``GET /status``: refused
   without the token, and with it the registered worker appears in
   ``worker_detail`` with a heartbeat age and the trace id it reported.
3. **Tracing + profiling + history.** Runs one ``repro report`` with
   ``$REPRO_TRACE``, ``$REPRO_PROFILE`` and ``$REPRO_HISTORY`` set and
   one without, asserts the two stdout payloads are byte-identical
   (telemetry must be observe-only) and that the observed run is at most
   10% slower than the plain one (one retry soaks timing flakes), asserts
   the captured JSONL trace covers >= 95% of the executed task-graph
   nodes with valid parent links, and renders it through ``repro trace``
   (tree, Gantt, ``--summary`` and ``--critical-path`` — the critical
   path must cover >= 50% of the trace window).  The sampled profile must
   parse and render as a flamegraph (``repro profile --from``, written to
   ``--flame-out`` for CI artifacts), the history ledger must hold the
   run's record, and ``repro report --html`` under the same telemetry
   must emit the profile / trace-analytics / trends cards.

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
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.remote import protocol  # noqa: E402
from repro.eval.remote.cache_http import HTTPCacheBackend, make_cache_server  # noqa: E402
from repro.eval.remote.coordinator import Coordinator, start_coordinator_server  # noqa: E402
from repro.errors import RemoteError  # noqa: E402
from repro.obs.metrics import metric_value, parse_prometheus  # noqa: E402

#: Shared secret both services require for everything but /healthz and
#: /metrics.
SMOKE_TOKEN = "obs-smoke-token"

#: Every name a dashboard needs; the scrape must expose all of them.
REQUIRED_COORDINATOR_METRICS = (
    "repro_tasks_submitted_total",
    "repro_tasks_leased_total",
    "repro_tasks_completed_total",
    "repro_tasks_requeued_total",
    "repro_lease_latency_seconds_bucket",
    "repro_lease_latency_seconds_count",
    "repro_queue_depth",
    "repro_tasks_inflight",
    "repro_workers_live",
)
REQUIRED_CACHE_METRICS = (
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_puts_total",
    "repro_cache_entries",
    "repro_cache_bytes",
)


def fail(message: str) -> int:
    print(f"obs-smoke: FAIL — {message}", file=sys.stderr)
    return 1


def repro_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRACE", None)  # each act opts in explicitly
    env.update(extra)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def scrape(url: str) -> str:
    """GET *url* and validate the exposition headers + line format."""
    with urllib.request.urlopen(url, timeout=10.0) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    if not content_type.startswith("text/plain"):
        raise AssertionError(f"{url}: content type {content_type!r} is not text/plain")
    seen_help: set = set()
    for line in body.splitlines():
        if not line or line.startswith("# HELP "):
            if line.startswith("# HELP "):
                seen_help.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            name = line.split()[2]
            if name not in seen_help:
                raise AssertionError(f"{url}: TYPE for {name} before its HELP line")
            continue
        name = line.split("{")[0].split()[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        if base not in seen_help:
            raise AssertionError(f"{url}: sample {name} has no preceding HELP/TYPE")
        value = line.rsplit(None, 1)[-1]
        if value != "+Inf":
            float(value)  # every sample value must be a number
    return body


def drive_traffic(coordinator: Coordinator, coordinator_url: str, cache_url: str) -> str:
    """Exercise each instrumented path once so every counter has moved;
    returns the registered worker's id."""
    registration = protocol.http_post_json(
        f"{coordinator_url}/workers/register", {"name": "obs-smoke"}, timeout=10.0
    )
    worker_id = registration["worker_id"]
    coordinator.submit({"task_id": "obs:demo", "kind": "runtime", "workload": "blowfish"})
    lease = protocol.http_post_json(
        f"{coordinator_url}/tasks/lease", {"worker_id": worker_id, "wait": 5.0}, timeout=20.0
    )
    task = lease.get("task") or {}
    if task.get("task_id") != "obs:demo":
        raise AssertionError(f"lease returned {task!r}, expected obs:demo")
    protocol.http_post_json(
        f"{coordinator_url}/workers/heartbeat",
        {"worker_id": worker_id, "tasks": ["obs:demo"], "trace_id": "f" * 32},
        timeout=10.0,
    )
    protocol.http_post_json(
        f"{coordinator_url}/tasks/complete",
        {
            "worker_id": worker_id, "task_id": "obs:demo", "ok": True,
            "value": 1, "in_cache": False, "start": time.time(), "end": time.time(),
        },
        timeout=10.0,
    )
    backend = HTTPCacheBackend(cache_url)
    key = "ab" * 32  # keys are 64 hex chars
    if backend.get_blob(key) is not None:
        raise AssertionError("fresh cache served a blob for an unknown key")
    backend.put_blob(key, "json", b'"payload"')
    stored = backend.get_blob(key)
    if stored is None or stored[1] != b'"payload"':
        raise AssertionError("cache round trip lost the payload")
    return worker_id


def check_metrics(coordinator_url: str, cache_url: str) -> None:
    coordinator_text = scrape(f"{coordinator_url}/metrics")
    samples = parse_prometheus(coordinator_text)
    for name in REQUIRED_COORDINATOR_METRICS:
        if name not in samples:
            raise AssertionError(f"coordinator /metrics lacks {name}")
    if metric_value(samples, "repro_tasks_submitted_total") < 1:
        raise AssertionError("repro_tasks_submitted_total did not count the demo task")
    if metric_value(samples, "repro_tasks_completed_total", outcome="ok") < 1:
        raise AssertionError("repro_tasks_completed_total{outcome=ok} did not move")
    if metric_value(samples, "repro_workers_live") < 1:
        raise AssertionError("repro_workers_live does not reflect the registered worker")
    if metric_value(samples, "repro_lease_latency_seconds_count") < 1:
        raise AssertionError("lease latency histogram observed nothing")

    cache_text = scrape(f"{cache_url}/metrics")
    samples = parse_prometheus(cache_text)
    for name in REQUIRED_CACHE_METRICS:
        if name not in samples:
            raise AssertionError(f"cache /metrics lacks {name}")
    if metric_value(samples, "repro_cache_misses_total") < 1:
        raise AssertionError("repro_cache_misses_total did not count the probe miss")
    if metric_value(samples, "repro_cache_hits_total") < 1:
        raise AssertionError("repro_cache_hits_total did not count the round-trip hit")
    if metric_value(samples, "repro_cache_entries") < 1:
        raise AssertionError("repro_cache_entries gauge ignores the stored blob")
    print("obs-smoke: /metrics OK on both services", flush=True)


def check_status(coordinator_url: str, worker_id: str) -> None:
    """Worker liveness from the token-auth'd ``GET /status``."""
    previous = protocol.set_process_service_token(None)
    try:
        protocol.http_get_json(f"{coordinator_url}/status", timeout=10.0)
    except RemoteError:
        pass
    else:
        raise AssertionError("coordinator /status answered a request without the token")
    finally:
        protocol.set_process_service_token(previous)
    status = protocol.http_get_json(f"{coordinator_url}/status", timeout=10.0)
    detail = status.get("worker_detail", {}).get(worker_id)
    if detail is None:
        raise AssertionError(f"/status worker_detail lacks {worker_id}: {status}")
    age = detail.get("heartbeat_age_seconds")
    if not isinstance(age, (int, float)) or age < 0:
        raise AssertionError(f"/status heartbeat age of {worker_id} is {age!r}")
    if detail.get("trace_id") != "f" * 32:
        raise AssertionError(f"/status lost the trace id {worker_id} reported: {detail}")
    print("obs-smoke: /status worker liveness OK", flush=True)


#: Observed (trace + profile + history) cold runs may cost at most this
#: much relative to a plain cold run; one retry soaks scheduler noise.
MAX_OVERHEAD_RATIO = 1.10


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

    with tempfile.TemporaryDirectory(prefix="repro-obs-services-") as tmp:
        cache_server = make_cache_server(Path(tmp) / "store", port=0, token=SMOKE_TOKEN)
        threading.Thread(target=cache_server.serve_forever, daemon=True).start()
        coordinator = Coordinator(lease_timeout=30.0)
        coordinator_server = start_coordinator_server(coordinator, port=0, token=SMOKE_TOKEN)
        cache_url = cache_server.url
        coordinator_url = coordinator_server.url
        print(f"obs-smoke: services up (cache {cache_url}, coordinator {coordinator_url})",
              flush=True)
        previous = protocol.set_process_service_token(SMOKE_TOKEN)
        try:
            worker_id = drive_traffic(coordinator, coordinator_url, cache_url)
            check_metrics(coordinator_url, cache_url)
            check_status(coordinator_url, worker_id)
        except AssertionError as exc:
            return fail(str(exc))
        finally:
            protocol.set_process_service_token(previous)
            coordinator_server.shutdown()
            cache_server.shutdown()

    try:
        check_traced_report(args.benchmarks, args.timeout, flame_out=args.flame_out)
    except AssertionError as exc:
        return fail(str(exc))
    print("obs-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
