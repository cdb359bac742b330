"""Tests of the telemetry subsystem (:mod:`repro.obs`).

Three layers, cheapest first:

* unit tests of the stage timers and of the span tracer (context nesting,
  cross-process context adoption, JSONL sink, off-by-default);
* scheduler integration: a traced serial run covers every task-graph node
  (executed, cache-hit and seeded alike) with valid parent links, a traced
  run returns exactly what an untraced run returns, stage and
  ``cache.put`` spans nest under their task span serially and in a pool
  worker's lane, an untraced run opens no span, and a ``jobs=2`` pool run
  yields one coherent trace across the process hop;
* CLI: ``repro trace`` renders tree and Gantt views and exports Chrome
  Trace Event JSON, its summary counts the pool's resident and stolen
  placements and, for a cold run in a fresh process, lists the
  pipeline import as a layer (under the cache span serially, under the
  scheduler before a pool forks), a traced ``repro ingest`` is byte-identical
  to an untraced one, and a URL in
  ``$REPRO_TRACE`` leaves tracing off with one stderr line (the full-report byte-identity runs in
  ``tools/obs_smoke.py`` / the ``obs-smoke`` CI job).
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.cache import ArtifactCache
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task
from repro.obs import tracing as obs_tracing
from repro.obs.render import load_spans, render_gantt, render_tree


@pytest.fixture
def traced(tmp_path):
    """Switch tracing on for one test; restore the env-driven default after."""
    sink = tmp_path / "spans.jsonl"
    tracer = obs_tracing.enable(sink, service="test")
    yield tracer, sink
    obs_tracing.reset()


@pytest.fixture
def untraced():
    """Pin tracing off (reset any state a previous test left behind)."""
    obs_tracing.reset()
    yield
    obs_tracing.reset()


# ---------------------------------------------------------------------------
# stage timers
# ---------------------------------------------------------------------------


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
        assert obs_tracing.current() == ("a" * 32, "b" * 16)
    [record] = tracer.spans()
    assert record["trace_id"] == "a" * 32 and record["parent_id"] == "b" * 16


def test_jsonl_sink_matches_the_buffer(traced):
    tracer, sink = traced
    with obs_tracing.span("a", kind="test", detail=1):
        pass
    lines = [json.loads(l) for l in sink.read_text().splitlines()]
    assert lines == tracer.spans()
    assert lines[0]["service"] == "test" and lines[0]["attrs"] == {"detail": 1}


# ---------------------------------------------------------------------------
# scheduler integration (fake payloads, no compiles)
# ---------------------------------------------------------------------------


def _fake_fn(base):
    return {"value": base * 2}


def _staged_fn(base):
    from repro import perf

    with perf.stage("replay"):
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


def test_pool_round_trip_yields_one_coherent_trace(traced, tmp_path):
    """A task run in a pool worker re-parents under the scheduler's span,
    and the spans it opens inside draw in that worker's lane."""
    tracer, sink = traced
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:pooled", kind="runtime", fn=_staged_fn,
                   args=(7,), key="d" * 64, serializer="json"))
    results = TaskScheduler(graph, cache=ArtifactCache(tmp_path / "cache"), jobs=2).run()
    assert results["sweep:pooled"] == {"value": 14}

    # The worker's span reaches the parent only through the shared sink.
    spans = load_spans(sink)
    assert len({record["trace_id"] for record in spans}) == 1
    scheduler_span = next(r for r in spans if r["name"] == "scheduler.run")
    task_span = next(r for r in spans if r["name"] == "task:sweep:pooled")
    assert task_span["parent_id"] == scheduler_span["span_id"]
    assert task_span["worker"].startswith("pid:")
    assert task_span["worker"] != f"pid:{os.getpid()}"
    inner = [r for r in spans if r["kind"] in ("cache", "cache.put", "stage:replay")]
    assert sorted(r["kind"] for r in inner) == ["cache", "cache.put", "stage:replay"]
    assert {r["worker"] for r in inner} == {task_span["worker"]}
    assert scheduler_span["worker"] is None  # the parent's own spans keep its lane


def _ancestors(record, by_id):
    names = []
    while record["parent_id"] is not None:
        record = by_id[record["parent_id"]]
        names.append(record["name"])
    return names


@pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "pool"])
def test_stage_spans_nest_under_their_task_span(traced, tmp_path, jobs):
    tracer, sink = traced
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:staged", kind="runtime", fn=_staged_fn,
                   args=(3,), key="e" * 64, serializer="json"))
    with obs_tracing.span("harness.execute", kind="harness"):
        TaskScheduler(graph, cache=ArtifactCache(tmp_path / "cache"), jobs=jobs).run()

    spans = load_spans(sink)
    assert len({record["trace_id"] for record in spans}) == 1
    by_id = {record["span_id"]: record for record in spans}
    stage = next(r for r in spans if r["kind"] == "stage:replay")
    assert stage["name"] == "replay"
    assert _ancestors(stage, by_id) == [
        "cache.get_or_compute", "task:sweep:staged", "scheduler.run", "harness.execute",
    ]
    put = next(r for r in spans if r["kind"] == "cache.put")
    assert _ancestors(put, by_id)[:2] == ["cache.get_or_compute", "task:sweep:staged"]
    task = next(r for r in spans if r["name"] == "task:sweep:staged")
    assert stage["worker"] == put["worker"] == task["worker"]
    assert task["start"] <= stage["start"] <= stage["end"] <= task["end"]


def test_untraced_run_opens_no_span(untraced, monkeypatch, tmp_path):
    from repro import perf

    monkeypatch.delenv(obs_tracing.TRACE_ENV, raising=False)
    obs_tracing.reset()
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:staged", kind="runtime", fn=_staged_fn,
                   args=(3,), key="e" * 64, serializer="json"))
    with perf.collect() as timings:
        results = TaskScheduler(graph, cache=ArtifactCache(tmp_path / "cache")).run()
    assert results["sweep:staged"] == {"value": 6}
    assert timings.calls == {"replay": 1}  # the stage timer still runs
    assert obs_tracing.tracer() is None
    assert obs_tracing.last_trace_id() is None  # set by every span opened


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


def test_trace_summary_counts_the_pool_placements(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    records = [
        _span("scheduler.run", "01", None, 0.0, 4.0),
        _span("task:compile:x", "02", "01", 0.0, 1.0, worker="pid:1",
              resident=False, stolen=False),
        _span("task:sweep:x:1", "03", "01", 1.0, 2.0, worker="pid:1",
              resident=True, stolen=False),
        _span("task:sweep:x:2", "04", "01", 1.0, 2.0, worker="pid:2",
              resident=False, stolen=True),
        _span("task:sweep:x:3", "05", "01", 2.0, 3.0, worker="pid:1",
              resident=True, stolen=False),
        _span("task:agg", "06", "01", 3.0, 4.0, worker="parent"),
    ]
    trace_file.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["trace", str(trace_file), "--summary"]) == 0
    summary, _ = capsys.readouterr()
    assert "pool placements: 2 resident, 1 stolen of 4" in summary.splitlines()

    # A serial trace has no pool task spans and prints no placement line.
    trace_file.write_text("\n".join(json.dumps(r) for r in records[:1]) + "\n")
    assert main(["trace", str(trace_file), "--summary"]) == 0
    assert "pool placements" not in capsys.readouterr()[0]


def test_trace_summary_of_a_cold_run_lists_the_pipeline_import(tmp_path, capsys):
    """A fresh process imports the pipeline inside its first compile: that
    import is a span of kind ``import``, not self time of the cache span."""
    import subprocess
    import sys as _sys

    import repro

    trace_file = tmp_path / "cold.jsonl"
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env[obs_tracing.TRACE_ENV] = str(trace_file)
    proc = subprocess.run(
        [_sys.executable, "-m", "repro.cli", "run", "blowfish", "--json",
         "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["trace", str(trace_file), "--summary"]) == 0
    summary, _ = capsys.readouterr()
    kinds = [line.split()[0] for line in summary.splitlines()[2:] if line.strip()]
    assert "import" in kinds
    (imported,) = [s for s in load_spans(trace_file) if s["kind"] == "import"]
    (cache,) = [s for s in load_spans(trace_file) if s["kind"] == "cache"]
    assert imported["parent_id"] == cache["span_id"]


def test_pool_start_imports_the_stages_inside_an_import_span(tmp_path):
    """Before it forks its first slot, a cold ``-j 2`` run imports the
    stages in the parent: that is a span of kind ``import`` under the
    scheduler, not scheduler self time."""
    import subprocess
    import sys as _sys

    import repro

    trace_file = tmp_path / "pool.jsonl"
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env[obs_tracing.TRACE_ENV] = str(trace_file)
    proc = subprocess.run(
        [_sys.executable, "-m", "repro.cli", "report", "--json", "-j", "2",
         "--benchmarks", "blowfish", "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = load_spans(trace_file)
    (scheduler,) = [s for s in spans if s["kind"] == "scheduler"]
    imports = [s for s in spans if s["kind"] == "import" and s["worker"] is None]
    assert [s["parent_id"] for s in imports] == [scheduler["span_id"]]


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


def test_repro_trace_chrome_export_round_trip(tmp_path, capsys):
    other = _span("task:sweep:z", "0c", None, 0.5, 0.75, worker="pid:2")
    other["trace_id"] = "e" * 32
    records = [
        _span("scheduler.run", "0a", None, 0.0, 2.0),
        _span("task:sweep:x", "02", "0a", 0.1, 1.0, worker="pid:1"),
        _span("task:sweep:y", "03", "0a", 1.0, 1.5, worker="parent", cache_hit=True),
        other,
    ]
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    out = tmp_path / "chrome.json"
    assert main(["trace", str(trace_file), "--chrome", str(out)]) == 0
    stdout, err = capsys.readouterr()
    assert stdout == "" and str(out) in err
    document = json.loads(out.read_text())
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == [
        "scheduler.run", "task:sweep:x", "task:sweep:z", "task:sweep:y",
    ]
    assert all(isinstance(e["ts"], int) and e["dur"] >= 0 for e in complete)
    assert complete[1]["ts"] == 100_000 and complete[1]["dur"] == 900_000
    lanes = {e["args"]["name"]: e["tid"] for e in events if e["name"] == "thread_name"}
    assert sorted(lanes) == ["cli", "parent", "pid:1", "pid:2"]
    assert len(set(lanes.values())) == 4  # one tid per worker
    assert {lanes["pid:1"]} == {e["tid"] for e in complete if e["name"] == "task:sweep:x"}

    assert main(["trace", str(trace_file), "--trace-id", "e" * 32, "--chrome", str(out)]) == 0
    only = json.loads(out.read_text())["traceEvents"]
    assert [e["name"] for e in only if e["ph"] == "X"] == ["task:sweep:z"]
    assert [e["args"]["name"] for e in only if e["name"] == "thread_name"] == ["pid:2"]


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
