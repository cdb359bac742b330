"""Tests of the telemetry subsystem (:mod:`repro.obs`).

Four layers, cheapest first:

* unit tests of the metrics registry (Prometheus exposition format,
  cumulative histogram semantics, idempotent declaration) and of the span
  tracer (context nesting, wire propagation, JSONL sink, off-by-default);
* scheduler integration: a traced serial run covers every task-graph node
  (executed, cache-hit and seeded alike) with valid parent links, and a
  traced run returns exactly what an untraced run returns;
* live-socket checks: a real worker + RemoteExecutor round trip yields one
  coherent trace across the coordinator hop, and both services answer
  ``/healthz`` (enriched) and ``/metrics`` (auth-exempt) correctly;
* CLI: ``repro trace`` renders tree and Gantt views, a traced ``repro
  ingest`` is byte-identical to an untraced one, and a URL in
  ``$REPRO_TRACE`` leaves tracing off with one stderr line (the full-report byte-identity runs in
  ``tools/obs_smoke.py`` / the ``obs-smoke`` CI job).
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.cache import ArtifactCache
from repro.eval.remote import protocol
from repro.eval.remote.cache_http import make_cache_server
from repro.eval.remote.coordinator import Coordinator, start_coordinator_server
from repro.eval.remote.executor import RemoteExecutor
from repro.eval.remote.worker import run_worker
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import metric_value, parse_prometheus
from repro.obs import tracing as obs_tracing
from repro.obs.logs import get_logger
from repro.obs.render import load_spans, render_gantt, render_tree


@pytest.fixture
def traced(tmp_path):
    """Switch tracing on for one test; restore the env-driven default after."""
    sink = tmp_path / "spans.jsonl"
    tracer = obs_tracing.enable(sink, service="test")
    yield tracer, sink
    obs_tracing.reset()
    obs_tracing.set_service("cli")


@pytest.fixture
def untraced():
    """Pin tracing off (reset any state a previous test left behind)."""
    obs_tracing.reset()
    yield
    obs_tracing.reset()
    obs_tracing.set_service("cli")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_registry_declaration_is_idempotent_and_type_checked():
    registry = obs_metrics.MetricsRegistry()
    counter = registry.counter("demo_total", "A demo counter.")
    assert registry.counter("demo_total", "ignored") is counter
    with pytest.raises(ValueError, match="already declared"):
        registry.gauge("demo_total", "wrong type")


def test_counter_is_monotonic_and_labelled():
    registry = obs_metrics.MetricsRegistry()
    counter = registry.counter("events_total", "Events.")
    counter.inc(outcome="ok")
    counter.inc(2.0, outcome="ok")
    counter.inc(outcome="error")
    assert counter.value(outcome="ok") == 3.0
    assert counter.value(outcome="error") == 1.0
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_render_produces_prometheus_exposition_format():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("jobs_total", "Jobs.").inc(3, queue="high")
    registry.gauge("depth", "Depth.").set(7)
    text = registry.render()
    assert "# HELP jobs_total Jobs.\n# TYPE jobs_total counter" in text
    assert 'jobs_total{queue="high"} 3' in text
    assert "# TYPE depth gauge" in text
    assert "depth 7" in text


def test_label_values_are_escaped():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("odd_total", "Odd.").inc(path='a"b\\c\nd')
    line = [l for l in registry.render().splitlines() if l.startswith("odd_total{")][0]
    assert '\\"' in line and "\\\\" in line and "\\n" in line
    # ...and the exposition parser reverses the escaping exactly.
    ((labels, value),) = parse_prometheus(line)["odd_total"]
    assert labels == {"path": 'a"b\\c\nd'} and value == 1.0


def test_histogram_buckets_are_cumulative():
    registry = obs_metrics.MetricsRegistry()
    histogram = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    samples = parse_prometheus(registry.render())
    buckets = {labels["le"]: v for labels, v in samples["lat_seconds_bucket"]}
    assert buckets == {"0.1": 1.0, "1": 3.0, "10": 4.0, "+Inf": 5.0}
    assert metric_value(samples, "lat_seconds_count") == 5.0
    assert metric_value(samples, "lat_seconds_sum") == pytest.approx(56.05)


def test_instruments_expose_zero_before_first_use():
    """A scrape right after startup must include every declared name, so
    dashboards can compute rates from process start."""
    registry = obs_metrics.MetricsRegistry()
    registry.counter("cold_total", "Cold.")
    registry.gauge("cold_depth", "Cold.")
    registry.histogram("cold_seconds", "Cold.", buckets=(1.0,))
    samples = parse_prometheus(registry.render())
    assert metric_value(samples, "cold_total") == 0.0
    assert metric_value(samples, "cold_depth") == 0.0
    assert metric_value(samples, "cold_seconds_count") == 0.0
    assert metric_value(samples, "cold_seconds_bucket", le="+Inf") == 0.0


def test_collectors_run_before_render_and_failures_are_contained():
    registry = obs_metrics.MetricsRegistry()
    gauge = registry.gauge("fresh", "Refreshed at scrape.")
    registry.register_collector(lambda: gauge.set(42))
    registry.register_collector(lambda: 1 / 0)  # must not break the scrape
    assert "fresh 42" in registry.render()


def test_stage_observer_folds_perf_stages_into_counters():
    from repro import perf

    obs_metrics.install_stage_observer()
    try:
        seconds = obs_metrics.counter("repro_stage_seconds_total", "")
        calls = obs_metrics.counter("repro_stage_calls_total", "")
        calls_before = calls.value(stage="ingest")
        with perf.stage("ingest"):
            pass
        assert calls.value(stage="ingest") == calls_before + 1
        assert seconds.value(stage="ingest") >= 0.0
    finally:
        perf.set_stage_observer(None)


def test_perf_stages_cover_ingest_and_explore():
    from repro import perf

    assert "ingest" in perf.STAGES and "explore" in perf.STAGES


def test_stage_total_counts_nested_stages_once(monkeypatch):
    from repro import perf

    clock = iter(range(100))
    monkeypatch.setattr(perf.time, "perf_counter", lambda: float(next(clock)))
    with perf.collect() as timings:
        with perf.stage("explore"):          # 0 .. 7
            with perf.stage("dswp"):         # 1 .. 2
                pass
            with perf.stage("replay"):       # 3 .. 6
                with perf.stage("replay"):   # 4 .. 5
                    pass
        with perf.stage("interp"):           # 8 .. 9
            pass
    assert timings.seconds == {"explore": 7.0, "dswp": 1.0, "replay": 4.0, "interp": 1.0}
    assert timings.calls["replay"] == 2
    assert timings.total() == 8.0
    assert timings.table().splitlines()[-1].split() == ["total", "8.0000"]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracing_is_off_by_default(untraced, monkeypatch):
    monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
    obs_tracing.reset()
    assert not obs_tracing.enabled()
    with obs_tracing.span("noop") as span:
        assert span is obs_tracing.NULL_SPAN
    assert obs_tracing.wire_context() is None
    assert obs_tracing.trace_headers() == {}


def test_nested_spans_share_a_trace_and_link_parents(traced):
    tracer, _ = traced
    with obs_tracing.span("outer") as outer:
        with obs_tracing.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
    inner_rec, outer_rec = tracer.spans()  # inner finishes first
    assert outer_rec["name"] == "outer" and outer_rec["parent_id"] is None
    assert inner_rec["parent_id"] == outer_rec["span_id"]
    assert inner_rec["end"] >= inner_rec["start"]


def test_span_records_error_attribute_and_reraises(traced):
    tracer, _ = traced
    with pytest.raises(RuntimeError, match="boom"):
        with obs_tracing.span("failing"):
            raise RuntimeError("boom")
    [record] = tracer.spans()
    assert record["attrs"]["error"] == "RuntimeError: boom"


def test_activate_adopts_wire_context(traced):
    tracer, _ = traced
    with obs_tracing.activate("a" * 32, "b" * 16):
        with obs_tracing.span("adopted"):
            pass
        assert obs_tracing.current_trace_id() == "a" * 32
    [record] = tracer.spans()
    assert record["trace_id"] == "a" * 32 and record["parent_id"] == "b" * 16


def test_trace_headers_round_trip(traced):
    with obs_tracing.span("client") as span:
        headers = obs_tracing.trace_headers()
        assert headers[obs_tracing.TRACE_ID_HEADER] == span.trace_id
        assert headers[obs_tracing.PARENT_SPAN_HEADER] == span.span_id
        assert obs_tracing.context_from_headers(headers) == (span.trace_id, span.span_id)
    assert obs_tracing.context_from_headers({}) is None


def test_jsonl_sink_matches_the_buffer(traced):
    tracer, sink = traced
    with obs_tracing.span("a", kind="test", detail=1):
        pass
    lines = [json.loads(l) for l in sink.read_text().splitlines()]
    assert lines == tracer.spans()
    assert lines[0]["service"] == "test" and lines[0]["attrs"] == {"detail": 1}


def test_server_span_ignores_untraced_requests(traced):
    tracer, _ = traced
    with obs_tracing.server_span("cache.get", {}):  # no trace headers
        pass
    assert tracer.spans() == []
    with obs_tracing.server_span("cache.get", {obs_tracing.TRACE_ID_HEADER: "c" * 32}):
        pass
    [record] = tracer.spans()
    assert record["trace_id"] == "c" * 32


# ---------------------------------------------------------------------------
# scheduler integration (fake payloads, no compiles)
# ---------------------------------------------------------------------------


def _fake_fn(base):
    return {"value": base * 2}


def _make_graph():
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:a", kind="runtime", fn=_fake_fn, args=(1,),
                   key="a" * 64, serializer="json"))
    graph.add(Task(task_id="sweep:b", kind="runtime", fn=_fake_fn, args=(2,),
                   key="b" * 64, serializer="json"))
    graph.add(aggregate_task(
        "agg", lambda results: results["sweep:a"]["value"] + results["sweep:b"]["value"],
        ["sweep:a", "sweep:b"],
    ))
    return graph


def test_traced_serial_run_covers_every_node_and_changes_nothing(traced, tmp_path):
    tracer, _ = traced
    cache = ArtifactCache(tmp_path / "cache")
    results = TaskScheduler(_make_graph(), cache=cache).run()
    assert results["agg"] == 6  # identical to what an untraced run computes
    spans = tracer.spans()
    named = {record["name"] for record in spans}
    assert {"scheduler.run", "task:sweep:a", "task:sweep:b", "task:agg"} <= named
    trace_ids = {record["trace_id"] for record in spans}
    assert len(trace_ids) == 1
    by_id = {record["span_id"]: record for record in spans}
    for record in spans:
        if record["parent_id"] is not None:
            assert record["parent_id"] in by_id, record["name"]

    # Warm re-run: the keyed nodes are cache hits and still get (marker) spans.
    warm = TaskScheduler(_make_graph(), cache=cache).run()
    assert warm["agg"] == 6
    hits = [
        record for record in tracer.spans()
        if record["attrs"].get("cache_hit") and record["name"].startswith("task:sweep:")
    ]
    assert {record["name"] for record in hits} == {"task:sweep:a", "task:sweep:b"}


def test_untraced_run_equals_traced_run(tmp_path):
    obs_tracing.reset()
    try:
        cold = TaskScheduler(_make_graph(), cache=ArtifactCache(tmp_path / "c1")).run()
        obs_tracing.enable(tmp_path / "spans.jsonl")
        hot = TaskScheduler(_make_graph(), cache=ArtifactCache(tmp_path / "c2")).run()
        assert cold == hot
    finally:
        obs_tracing.reset()
        obs_tracing.set_service("cli")


# ---------------------------------------------------------------------------
# distributed: one coherent trace across the coordinator hop
# ---------------------------------------------------------------------------


def remote_payload(base):
    return {"value": base * 3}


protocol.register_payload_function("_obs_test_payload", remote_payload)


def test_remote_round_trip_yields_one_coherent_trace(traced, tmp_path):
    tracer, _ = traced
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:remote", kind="runtime", fn=remote_payload,
                   args=(7,), key="d" * 64, serializer="json"))
    cache = ArtifactCache(tmp_path / "cache")
    executor = RemoteExecutor(port=0, lease_timeout=10.0, worker_timeout=60.0)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(coordinator_url=executor.url, cache_spec=str(tmp_path / "cache"),
                    poll_wait=0.5, verbose=False),
        daemon=True,
    )
    worker.start()
    try:
        results = TaskScheduler(graph, cache=cache, executor=executor).run()
        assert results["sweep:remote"] == {"value": 21}
        worker.join(timeout=15)
    finally:
        executor.stop_server()

    spans = tracer.spans()
    assert len({record["trace_id"] for record in spans}) == 1
    scheduler_span = next(r for r in spans if r["name"] == "scheduler.run")
    task_span = next(r for r in spans if r["name"] == "task:sweep:remote")
    # The worker-side span re-parented under the submitting scheduler's span.
    assert task_span["parent_id"] == scheduler_span["span_id"]
    assert task_span["worker"]  # attributed to a worker identity


def test_worker_heartbeat_carries_the_current_trace_id():
    coordinator = Coordinator(lease_timeout=5.0)
    worker = coordinator.register(name="w1")["worker_id"]
    coordinator.heartbeat(worker, tasks=[], trace_id="e" * 32)
    assert coordinator.status()["worker_detail"]["w1"]["trace_id"] == "e" * 32
    coordinator.heartbeat(worker, tasks=[])  # idle again: attribution clears
    assert coordinator.status()["worker_detail"]["w1"]["trace_id"] is None


# ---------------------------------------------------------------------------
# services: enriched /healthz, auth-exempt /metrics
# ---------------------------------------------------------------------------


def _fetch(url):
    import urllib.request

    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.headers, response.read().decode("utf-8")


def test_services_expose_enriched_healthz_and_metrics(tmp_path):
    from repro import __version__

    cache_server = make_cache_server(tmp_path / "store", port=0, token="s3cret")
    threading.Thread(target=cache_server.serve_forever, daemon=True).start()
    coordinator_server = start_coordinator_server(Coordinator(), port=0, token="s3cret")
    try:
        for url, role in ((cache_server.url, "cache"), (coordinator_server.url, "coordinator")):
            # Both endpoints answer without the shared secret.
            _, health_body = _fetch(f"{url}/healthz")
            health = json.loads(health_body)
            assert health["ok"] is True
            assert health["role"] == role
            assert health["version"] == __version__
            assert health["uptime_seconds"] >= 0.0
            headers, metrics_body = _fetch(f"{url}/metrics")
            assert headers.get("Content-Type", "").startswith("text/plain")
            assert "# TYPE" in metrics_body
        samples = parse_prometheus(_fetch(f"{coordinator_server.url}/metrics")[1])
        assert metric_value(samples, "repro_workers_live") == 0.0
        samples = parse_prometheus(_fetch(f"{cache_server.url}/metrics")[1])
        assert metric_value(samples, "repro_cache_entries") == 0.0
    finally:
        coordinator_server.shutdown()
        cache_server.shutdown()


def test_services_expose_build_info_and_request_histograms(tmp_path):
    from repro import __version__

    cache_server = make_cache_server(tmp_path / "store", port=0)
    threading.Thread(target=cache_server.serve_forever, daemon=True).start()
    coordinator_server = start_coordinator_server(Coordinator(), port=0)
    try:
        for url, histogram in (
            (cache_server.url, "repro_cache_request_seconds"),
            (coordinator_server.url, "repro_coordinator_request_seconds"),
        ):
            _fetch(f"{url}/healthz")  # drive one GET through the timer
            # The handler observes the duration *after* writing the response,
            # so the sample can land a beat after the client returns: poll.
            deadline = time.time() + 5.0
            while True:
                body = _fetch(f"{url}/metrics")[1]
                samples = parse_prometheus(body)
                count = metric_value(samples, f"{histogram}_count", method="GET")
                if count is not None and count >= 1.0:
                    break
                assert time.time() < deadline, f"no GET sample in {histogram}"
                time.sleep(0.05)
            assert metric_value(samples, "repro_build_info", version=__version__) == 1.0
            build_line = next(
                line for line in body.splitlines()
                if line.startswith("repro_build_info{")
            )
            assert 'python="' in build_line and build_line.endswith(" 1")
            # Explicit buckets: the exposition must carry the fine-grained
            # low end (1ms) and the +Inf catch-all, cumulatively ordered.
            assert f'{histogram}_bucket{{method="GET",le="0.001"}}' in body
            assert f'{histogram}_bucket{{method="GET",le="+Inf"}}' in body
    finally:
        coordinator_server.shutdown()
        cache_server.shutdown()


# ---------------------------------------------------------------------------
# CLI: repro trace rendering + traced-vs-untraced byte identity
# ---------------------------------------------------------------------------


def _span(name, span_id, parent_id, start, end, worker=None, **attrs):
    return {
        "trace_id": "f" * 32, "span_id": span_id, "parent_id": parent_id,
        "name": name, "kind": "task", "service": "cli", "worker": worker,
        "start": start, "end": end, "attrs": attrs,
    }


def test_repro_trace_renders_tree_and_gantt(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    records = [
        _span("scheduler.run", "01", None, 0.0, 2.0),
        _span("task:sweep:x", "02", "01", 0.1, 1.0, worker="pid:1"),
        _span("task:sweep:y", "03", "01", 1.0, 1.9, worker="pid:2", cache_hit=True),
        "not json",  # tolerated: a torn line must not break rendering
    ]
    trace_file.write_text(
        "\n".join(r if isinstance(r, str) else json.dumps(r) for r in records) + "\n"
    )
    assert main(["trace", str(trace_file)]) == 0
    tree, _ = capsys.readouterr()
    assert "scheduler.run" in tree and "task:sweep:x" in tree and "[hit]" in tree
    assert main(["trace", str(trace_file), "--gantt"]) == 0
    gantt, _ = capsys.readouterr()
    assert "pid:1" in gantt and "█" in gantt

    spans = load_spans(trace_file)
    assert len(spans) == 3  # the torn line was dropped
    assert "task:sweep:y" in render_tree(spans)
    assert "pid:2" in render_gantt(spans)


def test_repro_trace_on_missing_or_empty_file_fails_cleanly(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
    (tmp_path / "empty.jsonl").write_text("")
    assert main(["trace", str(tmp_path / "empty.jsonl")]) == 2
    _, err = capsys.readouterr()
    assert "REPRO_TRACE" in err


def test_repro_trace_renders_orphans_and_multiple_traces(tmp_path, capsys):
    other = _span("scheduler.run", "0c", None, 0.0, 1.0)
    other["trace_id"] = "e" * 32
    records = [
        _span("scheduler.run", "0a", None, 0.0, 2.0),
        _span("task:sweep:x", "02", "0a", 0.1, 1.0, worker="pid:1"),
        # Parent "99" is not in the file (e.g. torn mid-write): the span must
        # surface as a root with the ~orphan marker, not vanish.
        _span("task:sweep:late", "0b", "99", 5.0, 6.0, worker="pid:9"),
        other,
    ]
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    assert main(["trace", str(trace_file)]) == 0
    tree, _ = capsys.readouterr()
    assert "~orphan" in tree and "task:sweep:late" in tree
    # Two distinct trace ids → two trace blocks, each with its own header.
    assert f"trace {'f' * 32}" in tree and f"trace {'e' * 32}" in tree

    assert main(["trace", str(trace_file), "--gantt"]) == 0
    gantt, _ = capsys.readouterr()
    assert "pid:9" in gantt and "█" in gantt

    # Restricting to one trace id drops the other block entirely.
    assert main(["trace", str(trace_file), "--trace-id", "e" * 32]) == 0
    only, _ = capsys.readouterr()
    assert f"trace {'e' * 32}" in only and f"trace {'f' * 32}" not in only


def test_interrupted_run_still_leaves_a_valid_trace(tmp_path):
    """Ctrl-C mid-run must flush every line: open spans land as interrupted."""
    import subprocess
    import sys as _sys

    import repro

    sink = tmp_path / "interrupted.jsonl"
    script = tmp_path / "kb.py"
    script.write_text(
        "import threading, time\n"
        "from repro.obs import tracing\n"
        "held = threading.Event()\n"
        "def hold():\n"
        "    with tracing.span('background.hold', kind='test'):\n"
        "        held.set()\n"
        "        time.sleep(60)\n"
        "threading.Thread(target=hold, daemon=True).start()\n"
        "held.wait(10)\n"
        "with tracing.span('main.work', kind='test'):\n"
        "    raise KeyboardInterrupt\n"
    )
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env[obs_tracing.TRACE_ENV] = str(sink)
    subprocess.run(
        [_sys.executable, str(script)], env=env, capture_output=True, timeout=60
    )

    lines = sink.read_text().splitlines()
    spans = [json.loads(line) for line in lines]  # every line parses
    by_name = {span["name"]: span for span in spans}
    # The span that raised carries the error; the still-open daemon-thread
    # span was force-closed by the shutdown hook and marked interrupted.
    assert "KeyboardInterrupt" in by_name["main.work"]["attrs"]["error"]
    assert by_name["background.hold"]["attrs"]["interrupted"] is True
    assert by_name["background.hold"]["end"] >= by_name["background.hold"]["start"]


def test_traced_ingest_is_byte_identical_and_captures_spans(tmp_path, capsys, monkeypatch):
    program = tmp_path / "tiny.c"
    program.write_text(
        "int main(void) { int i; for (i = 0; i < 3; i++) print_int(i); return 0; }\n"
    )
    from repro.workloads.base import WorkloadRegistry

    def run_ingest(cache_dir):
        before = set(WorkloadRegistry.names())
        try:
            code = main(["ingest", str(program), "--json", "--cache-dir", str(cache_dir)])
        finally:
            for name in set(WorkloadRegistry.names()) - before:
                WorkloadRegistry.unregister(name)
        out, _ = capsys.readouterr()
        assert code == 0
        return out

    monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
    obs_tracing.reset()
    try:
        plain = run_ingest(tmp_path / "cache-a")
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(obs_tracing.TRACE_ENV, str(sink))
        obs_tracing.reset()  # re-read the env, as a fresh process would
        traced_out = run_ingest(tmp_path / "cache-b")
        assert traced_out == plain  # byte-identical stdout
        spans = load_spans(sink)
        assert any(record["name"].startswith("task:ingest:") for record in spans)
    finally:
        monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
        obs_tracing.reset()
        obs_tracing.set_service("cli")


def test_url_trace_value_warns_once_and_leaves_report_unchanged(tmp_path, capsys, monkeypatch):
    """``$REPRO_TRACE`` takes a file path: a URL is named on stderr, not
    opened as a file, and the report on stdout is unchanged."""
    monkeypatch.chdir(tmp_path)
    args = ["report", "--json", "--benchmarks", "blowfish", "--cache-dir", str(tmp_path / "cache")]
    monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
    obs_tracing.reset()
    try:
        assert main(args) == 0
        plain, _ = capsys.readouterr()
        monkeypatch.setenv(obs_tracing.TRACE_ENV, "http://127.0.0.1:9")
        obs_tracing.reset()  # re-read the env, as a fresh process would
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == plain
        warnings = [line for line in err.splitlines() if obs_tracing.TRACE_ENV in line]
        assert len(warnings) == 1
        assert "http://127.0.0.1:9" in warnings[0] and "file path" in warnings[0]
        assert not obs_tracing.enabled()
        assert not (tmp_path / "http:").exists()
    finally:
        monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
        obs_tracing.reset()
        obs_tracing.set_service("cli")


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


def test_get_logger_is_idempotent_and_level_filtered(monkeypatch):
    import logging

    monkeypatch.setenv("REPRO_LOG_LEVEL", "WARNING")
    logger = get_logger("testsvc")
    assert logger is get_logger("testsvc")  # one handler, not one per call
    assert len(logger.handlers) == 1
    assert logger.level == logging.WARNING
    verbose = get_logger("testsvc", verbose=True)
    assert verbose.level == logging.DEBUG  # --verbose forces DEBUG


def test_env_level_defaults_to_info(monkeypatch):
    import logging

    from repro.obs.logs import env_level

    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    assert env_level() == logging.INFO
    monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
    assert env_level() == logging.DEBUG
    monkeypatch.setenv("REPRO_LOG_LEVEL", "nonsense")
    assert env_level() == logging.INFO
