"""Performance-observatory tests: profiler, trace analytics, run history.

Covers the three PR-9 subsystems end to end but in-process:

* ``repro.obs.profile`` — sampling correctness, deterministic counters,
  env gating, fork safety of the module globals, merge/collapse helpers;
* ``repro.obs.analyze`` — per-kind summary (self time, percentiles),
  critical path and scheduler-overhead accounting over synthetic spans;
* ``repro.obs.history`` — the persistent ledger, the rolling-median
  regression gate, and the ``repro history`` CLI surface;
* the observe-only invariant: profiled runs compute identical results;
* the viz layers (`flame`, `trend`) and the report-HTML telemetry cards.
"""

import json
import time

import pytest

from repro.cli import main
from repro.eval.cache import ArtifactCache
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task
from repro.obs import analyze as obs_analyze
from repro.obs import history as obs_history
from repro.obs import history_query
from repro.obs import profile as obs_profile
from repro.viz.flame import flamegraph
from repro.viz.trend import sparkline_svg, trend_chart


@pytest.fixture(autouse=True)
def _fresh_profile_state():
    obs_profile.reset()
    yield
    obs_profile.reset()


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------


def _busy(seconds):
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += 1
    return total


def test_sampler_captures_stacks_and_counters():
    profiler = obs_profile.SamplingProfiler(hz=200, service="test")
    profiler.start()
    _busy(0.25)
    profiler.count("task.demo")
    profiler.count("task.demo", 2.0)
    profiler.stop()
    record = profiler.snapshot()
    assert record["kind"] == "profile" and record["service"] == "test"
    assert record["samples"] > 0
    assert record["duration_seconds"] > 0.2
    assert any("_busy" in stack for stack in record["stacks"])
    assert record["counters"] == {"task.demo": 3.0}


def test_profile_dump_load_merge_roundtrip(tmp_path):
    sink = tmp_path / "profile.jsonl"
    for service in ("cli", "pool"):
        profiler = obs_profile.SamplingProfiler(hz=500, service=service)
        profiler.start()
        _busy(0.1)
        profiler.count("task.compile")
        profiler.stop()
        profiler.dump(sink)
    sink_lines = sink.read_text().splitlines()
    assert len(sink_lines) == 2 and all(json.loads(line) for line in sink_lines)
    records = obs_profile.load_profiles(sink)
    assert [record["service"] for record in records] == ["cli", "pool"]
    merged = obs_profile.merge_stacks(records)
    assert sum(merged.values()) == sum(record["samples"] for record in records)
    assert obs_profile.merge_counters(records) == {"task.compile": 2.0}
    collapsed = obs_profile.collapsed_lines(merged)
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in collapsed.splitlines())
    top = obs_profile.top_self(merged, limit=3)
    assert top and top[0]["samples"] >= top[-1]["samples"]
    assert sum(entry["fraction"] for entry in obs_profile.top_self(merged)) <= 1.01


def test_maybe_start_is_env_gated_and_idempotent(tmp_path, monkeypatch):
    monkeypatch.delenv(obs_profile.PROFILE_ENV, raising=False)
    assert obs_profile.maybe_start() is None
    assert not obs_profile.enabled()
    obs_profile.count("task.ignored")  # free no-op when off

    obs_profile.reset()
    sink = tmp_path / "p.jsonl"
    monkeypatch.setenv(obs_profile.PROFILE_ENV, str(sink))
    monkeypatch.setenv(obs_profile.PROFILE_HZ_ENV, "250")
    first = obs_profile.maybe_start(service="cli")
    assert first is not None and first.hz == 250 and first.running
    assert obs_profile.maybe_start(service="pool") is first
    assert first.service == "pool"  # re-entry refines the label only
    obs_profile.count("task.demo")
    obs_profile.shutdown()
    assert not first.running
    [record] = obs_profile.load_profiles(sink)
    assert record["counters"] == {"task.demo": 1.0}
    # shutdown() resets: a second shutdown must not append a second record.
    obs_profile.shutdown()
    assert len(sink.read_text().splitlines()) == 1


def test_forked_child_state_is_not_reused(tmp_path, monkeypatch):
    # Simulate the fork: the module globals hold the parent's profiler but
    # the owner pid no longer matches → maybe_start builds a fresh one.
    monkeypatch.setenv(obs_profile.PROFILE_ENV, str(tmp_path / "p.jsonl"))
    parent = obs_profile.maybe_start(service="cli")
    assert parent is not None
    monkeypatch.setattr(obs_profile, "_owner_pid", obs_profile._owner_pid + 1)
    child = obs_profile.maybe_start(service="pool")
    assert child is not parent and child.service == "pool"
    # An inherited shutdown hook in a process that isn't the owner is a no-op.
    monkeypatch.setattr(obs_profile, "_owner_pid", obs_profile._owner_pid + 1)
    obs_profile.shutdown()
    assert not (tmp_path / "p.jsonl").exists()


def _payload(base):
    return base * 2


def test_profiled_run_computes_identical_results(tmp_path, monkeypatch):
    def make_graph():
        graph = TaskGraph()
        graph.add(Task(task_id="t:a", kind="runtime", fn=_payload, args=(2,)))
        graph.add(Task(task_id="t:b", kind="runtime", fn=_payload, args=(3,)))
        graph.add(aggregate_task(
            "agg", lambda values: sum(values.values()), ["t:a", "t:b"]
        ))
        return graph

    monkeypatch.delenv(obs_profile.PROFILE_ENV, raising=False)
    plain = TaskScheduler(make_graph(), cache=ArtifactCache(tmp_path / "c1")).run()
    obs_profile.reset()
    monkeypatch.setenv(obs_profile.PROFILE_ENV, str(tmp_path / "p.jsonl"))
    obs_profile.maybe_start(service="cli")
    profiled = TaskScheduler(make_graph(), cache=ArtifactCache(tmp_path / "c2")).run()
    obs_profile.shutdown()
    assert plain == profiled


def test_profiled_pool_forks_from_a_single_thread(tmp_path, monkeypatch):
    """The sampler starts no thread, so under $REPRO_PROFILE each -j N slot
    still forks from a process running only the threads it had before."""
    import os
    import threading

    before = threading.active_count()
    at_fork = []
    real_fork = os.fork

    def counting_fork():
        at_fork.append(threading.active_count())
        return real_fork()

    sink = tmp_path / "p.jsonl"
    monkeypatch.setenv(obs_profile.PROFILE_ENV, str(sink))
    monkeypatch.setattr(os, "fork", counting_fork)
    assert obs_profile.maybe_start(service="cli").running
    graph = TaskGraph()
    for i in range(4):
        graph.add(Task(task_id=f"t:{i}", kind="runtime", fn=_payload, args=(i,)))
    results = TaskScheduler(graph, cache=ArtifactCache(tmp_path / "c"), jobs=2).run()
    obs_profile.shutdown()
    assert [results[f"t:{i}"] for i in range(4)] == [0, 2, 4, 6]
    assert at_fork == [before, before]
    # The parent and both slots each left one profile record.
    assert sorted(r["service"] for r in obs_profile.load_profiles(sink)) == ["cli", "pool", "pool"]


# ---------------------------------------------------------------------------
# trace analytics
# ---------------------------------------------------------------------------


def _span(name, kind, span_id, parent_id, start, end, worker=None, trace="f" * 32):
    return {
        "trace_id": trace, "span_id": span_id, "parent_id": parent_id,
        "name": name, "kind": kind, "service": "cli", "worker": worker,
        "start": start, "end": end, "attrs": {},
    }


@pytest.fixture
def synthetic_trace():
    # scheduler.run [0, 10]; two tasks, one with a nested cache span.
    return [
        _span("scheduler.run", "scheduler", "01", None, 0.0, 10.0),
        _span("task:compile:a", "compile", "02", "01", 0.5, 6.5, worker="pid:1"),
        _span("cache.get_or_compute", "cache", "03", "02", 1.0, 2.0, worker="pid:1"),
        _span("task:sweep:b", "runtime", "04", "01", 6.5, 9.0, worker="pid:2"),
    ]


def test_summarize_reports_self_time_and_percentiles(synthetic_trace):
    rows = {row["kind"]: row for row in obs_analyze.summarize(synthetic_trace)}
    assert rows["compile"]["count"] == 1
    assert rows["compile"]["total_seconds"] == pytest.approx(6.0)
    # The nested cache second is the child's, not the compile span's self time.
    assert rows["compile"]["self_seconds"] == pytest.approx(5.0)
    assert rows["scheduler"]["self_seconds"] == pytest.approx(10.0 - 8.5)
    assert rows["runtime"]["p50_seconds"] == pytest.approx(2.5)
    # Sorted by total descending: the scheduler span dominates.
    assert obs_analyze.summarize(synthetic_trace)[0]["kind"] == "scheduler"


def test_critical_path_descends_to_latest_ending_child(synthetic_trace):
    path = obs_analyze.critical_path(synthetic_trace)
    assert [hop["name"] for hop in path["hops"]] == ["scheduler.run", "task:sweep:b"]
    assert path["window_seconds"] == pytest.approx(10.0)
    assert path["coverage"] == pytest.approx(1.0)
    rendered = obs_analyze.render_critical_path(synthetic_trace)
    assert "critical path:" in rendered and "coverage 100%" in rendered


def test_scheduler_overhead_accounts_uncovered_time(synthetic_trace):
    overhead = obs_analyze.scheduler_overhead(synthetic_trace)
    assert overhead["runs"] == 1
    assert overhead["total_seconds"] == pytest.approx(10.0)
    # Tasks cover [0.5, 6.5] and [6.5, 9.0] → 1.5s of the 10s is overhead.
    assert overhead["overhead_seconds"] == pytest.approx(1.5)
    assert overhead["overhead_fraction"] == pytest.approx(0.15)
    summary_text = obs_analyze.render_summary(synthetic_trace)
    assert "scheduler overhead" in summary_text


def test_scheduler_overhead_counts_only_the_schedulers_descendants():
    """An enclosing harness span covers the scheduler but is not its work."""
    spans = [
        _span("harness.execute", "harness", "10", None, 0.0, 12.0),
        _span("scheduler.run", "scheduler", "11", "10", 1.0, 11.0),
        _span("task:compile:a", "compile", "12", "11", 1.0, 4.0, worker="parent"),
        _span("stage:interp", "stage:interp", "13", "12", 2.0, 3.0, worker="parent"),
        # 1.5 s gap between the tasks, and 1 s after the last one.
        _span("task:sweep:b", "runtime", "14", "11", 5.5, 10.0, worker="pid:2"),
        # A sibling of the scheduler, overlapping its gap: not its work.
        _span("cache.put", "cache.put", "15", "10", 4.0, 5.5),
    ]
    overhead = obs_analyze.scheduler_overhead(spans)
    assert overhead["runs"] == 1
    assert overhead["total_seconds"] == pytest.approx(10.0)
    assert overhead["covered_seconds"] == pytest.approx(7.5)
    assert overhead["overhead_seconds"] == pytest.approx(2.5)
    assert "scheduler overhead: 2.50s" in obs_analyze.render_summary(spans)


def test_critical_path_picks_the_widest_trace():
    spans = [
        _span("small.root", "harness", "0a", None, 0.0, 1.0, trace="a" * 32),
        _span("wide.root", "harness", "0b", None, 0.0, 5.0, trace="b" * 32),
    ]
    assert obs_analyze.critical_path(spans)["trace_id"] == "b" * 32
    assert obs_analyze.critical_path(spans, trace_id="a" * 32)["path_seconds"] == (
        pytest.approx(1.0)
    )


def test_trace_cli_summary_and_critical_path(tmp_path, capsys, synthetic_trace):
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text(
        "\n".join(json.dumps(span) for span in synthetic_trace) + "\n"
    )
    assert main(["trace", str(trace_file), "--summary"]) == 0
    out, _ = capsys.readouterr()
    assert "kind" in out and "compile" in out and "scheduler overhead" in out
    assert main(["trace", str(trace_file), "--critical-path"]) == 0
    out, _ = capsys.readouterr()
    assert "critical path:" in out and "task:sweep:b" in out
    assert main(["trace", str(trace_file), "--summary", "--critical-path",
                 "--json"]) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert {"summary", "scheduler_overhead", "critical_path"} <= payload.keys()


# ---------------------------------------------------------------------------
# run history + regression gate
# ---------------------------------------------------------------------------


def _seed(directory, wall, command="report"):
    record = obs_history.record_run(
        command, {"wall_seconds": wall, "cache_hit_rate": 0.5},
        attrs={"benchmarks": "blowfish"}, directory=str(directory),
    )
    assert record is not None
    return record


def test_record_run_appends_schema_stamped_jsonl(tmp_path):
    record = _seed(tmp_path, 1.25)
    assert record["schema"] == obs_history.SCHEMA
    assert record["env"]["python"] and record["env"]["cpu_count"]
    runs = history_query.load_runs(tmp_path / obs_history.HISTORY_FILE)
    assert len(runs) == 1 and runs[0]["metrics"]["wall_seconds"] == 1.25
    series = history_query.metric_series(runs, command="report")
    assert series["wall_seconds"] == [1.25]
    assert history_query.metric_series(runs, command="explore") == {}


def test_history_env_disables_and_redirects(tmp_path, monkeypatch):
    monkeypatch.setenv(obs_history.HISTORY_ENV, "0")
    assert obs_history.history_path() is None
    assert obs_history.record_run("report", {"wall_seconds": 1.0}) is None
    monkeypatch.setenv(obs_history.HISTORY_ENV, str(tmp_path / "ledger"))
    assert obs_history.history_path() == tmp_path / "ledger" / obs_history.HISTORY_FILE
    assert obs_history.explicit_path() is not None
    monkeypatch.delenv(obs_history.HISTORY_ENV)
    assert obs_history.explicit_path() is None  # default-on ≠ explicit opt-in


def test_serial_and_parallel_report_records_name_the_same_stages(tmp_path, monkeypatch, capsys):
    """A ``-j 2`` report's stages run in pool slots, which send their stage
    timings back with each result, so its history record names the stages
    the serial record does."""
    ledger = tmp_path / "ledger"
    monkeypatch.setenv(obs_history.HISTORY_ENV, str(ledger))
    for jobs, cache in (("1", "serial"), ("2", "parallel")):
        argv = ["report", "--json", "--benchmarks", "blowfish", "-j", jobs]
        assert main(argv + ["--cache-dir", str(tmp_path / cache)]) == 0
    capsys.readouterr()
    serial, parallel = history_query.load_runs(ledger / obs_history.HISTORY_FILE)
    assert parallel["attrs"]["workers"] == 2

    def stages(record):
        return sorted(k for k in record["metrics"] if k.startswith("stage_"))

    assert {"stage_interp_seconds", "stage_replay_seconds"} <= set(stages(serial))
    assert stages(parallel) == stages(serial)


LOOSE_COMMIT = "1234567" + "a" * 33
PACKED_COMMIT = "abcdef0" + "b" * 33
DETACHED_COMMIT = "fedcba9" + "c" * 33


def _fake_git(root, head, refs=(), packed=()):
    """A ``.git`` directory under *root* with *head* as its HEAD, loose
    refs (name, commit) and a packed-refs file of (name, commit)."""
    git = root / ".git"
    git.mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    for name, commit in refs:
        (git / name).parent.mkdir(parents=True, exist_ok=True)
        (git / name).write_text(commit + "\n")
    if packed:
        lines = ["# pack-refs with: peeled fully-peeled sorted"]
        for name, commit in packed:
            lines += [f"{commit} {name}", "^" + "d" * 40]
        (git / "packed-refs").write_text("\n".join(lines) + "\n")
    return root


def test_git_revision_reads_head_from_the_files(tmp_path, monkeypatch):
    loose = _fake_git(
        tmp_path / "loose", "ref: refs/heads/main", refs=[("refs/heads/main", LOOSE_COMMIT)]
    )
    packed = _fake_git(
        tmp_path / "packed",
        "ref: refs/heads/main",
        packed=[("refs/heads/feature", DETACHED_COMMIT), ("refs/heads/main", PACKED_COMMIT)],
    )
    detached = _fake_git(tmp_path / "detached", DETACHED_COMMIT)
    nested = loose / "src" / "deep"
    nested.mkdir(parents=True)
    assert obs_history.read_git_head(str(nested)) == "1234567"  # walks up to .git
    assert obs_history.read_git_head(str(packed)) == "abcdef0"
    assert obs_history.read_git_head(str(detached)) == "fedcba9"
    # A ref in neither place, or a HEAD that is not a commit, resolves to None.
    missing = _fake_git(tmp_path / "missing", "ref: refs/heads/gone")
    assert obs_history.read_git_head(str(missing)) is None
    garbage = _fake_git(tmp_path / "garbage", "not a commit")
    assert obs_history.read_git_head(str(garbage)) is None
    # A linked worktree: .git is a file naming its git dir, whose refs are
    # in the common dir.
    worktree = loose / ".git" / "worktrees" / "topic"
    worktree.mkdir(parents=True)
    (worktree / "HEAD").write_text("ref: refs/heads/topic\n")
    (worktree / "commondir").write_text("../..\n")
    (loose / ".git" / "refs" / "heads" / "topic").write_text(PACKED_COMMIT + "\n")
    checkout = tmp_path / "topic"
    checkout.mkdir()
    (checkout / ".git").write_text(f"gitdir: {worktree}\n")
    assert obs_history.read_git_head(str(checkout)) == "abcdef0"
    # git_revision resolves the working directory's HEAD once per process.
    monkeypatch.chdir(nested)
    monkeypatch.setattr(obs_history, "_git_rev_cache", False)
    assert obs_history.git_revision() == "1234567"
    monkeypatch.chdir(packed)
    assert obs_history.git_revision() == "1234567"
    assert obs_history.environment()["git_rev"] == "1234567"


def test_regression_gate_fires_only_past_threshold_and_floor(tmp_path):
    for wall in (10.0, 10.2, 9.9, 10.1):
        _seed(tmp_path, wall)
    runs = history_query.load_runs(tmp_path / obs_history.HISTORY_FILE)
    assert history_query.check_regressions(runs) == []

    _seed(tmp_path, 20.0)
    runs = history_query.load_runs(tmp_path / obs_history.HISTORY_FILE)
    [regression] = history_query.check_regressions(runs)
    assert regression["metric"] == "wall_seconds"
    assert regression["ratio"] == pytest.approx(20.0 / 10.05, rel=1e-3)
    assert "REGRESSIONS" in history_query.render_regressions([regression])

    # Tiny absolute deltas stay under the jitter floor even at a high ratio.
    fast = tmp_path / "fast"
    for wall in (0.010, 0.010, 0.011, 0.010, 0.030):
        _seed(fast, wall)
    runs = history_query.load_runs(fast / obs_history.HISTORY_FILE)
    assert history_query.check_regressions(runs) == []


def test_regression_gate_needs_min_history(tmp_path):
    for wall in (1.0, 5.0):  # only one prior value: no baseline yet
        _seed(tmp_path, wall)
    runs = history_query.load_runs(tmp_path / obs_history.HISTORY_FILE)
    assert history_query.check_regressions(runs) == []


def test_history_cli_show_trend_check(tmp_path, capsys):
    ledger = tmp_path / "ledger"
    for wall in (10.0, 10.3, 9.8, 10.1):
        _seed(ledger, wall)
    assert main(["history", "show", "--history", str(ledger)]) == 0
    out, _ = capsys.readouterr()
    assert "report" in out and "wall_seconds=" in out
    assert main(["history", "trend", "--history", str(ledger)]) == 0
    out, _ = capsys.readouterr()
    assert "wall_seconds" in out and "med=" in out
    assert main(["history", "check", "--history", str(ledger)]) == 0
    out, _ = capsys.readouterr()
    assert "ok: no regressions" in out

    _seed(ledger, 30.0)
    assert main(["history", "check", "--history", str(ledger), "--json"]) == 1
    out, _ = capsys.readouterr()
    assert json.loads(out)["regressions"][0]["metric"] == "wall_seconds"
    # A tighter threshold is an argument, not a code change.
    assert main(["history", "check", "--history", str(ledger),
                 "--threshold", "4.0"]) == 0
    capsys.readouterr()

    svg_dir = tmp_path / "svg"
    assert main(["history", "trend", "--history", str(ledger),
                 "--svg-dir", str(svg_dir)]) == 0
    capsys.readouterr()
    svgs = list(svg_dir.glob("*.svg"))
    assert svgs and all("<svg" in svg.read_text() for svg in svgs)


def test_history_cli_empty_ledger_is_a_clean_error(tmp_path, capsys):
    assert main(["history", "show", "--history", str(tmp_path / "none")]) == 2
    _, err = capsys.readouterr()
    assert "no run history" in err
    # check on an empty ledger is a pass (nothing to regress), not an error.
    assert main(["history", "check", "--history", str(tmp_path / "none")]) == 0
    capsys.readouterr()


def test_sparkline_shape():
    assert history_query.sparkline([]) == ""
    line = history_query.sparkline([1.0, 2.0, 3.0])
    assert len(line) == 3 and line[0] == "▁" and line[-1] == "█"
    assert history_query.sparkline([2.0, 2.0]) == "▁▁"  # flat series stays low


# ---------------------------------------------------------------------------
# viz: flamegraph + trend charts
# ---------------------------------------------------------------------------


def test_flamegraph_is_deterministic_and_labelled():
    stacks = {
        "m:main;m:compile;m:lex": 30,
        "m:main;m:compile;m:parse": 50,
        "m:main;m:report": 20,
    }
    svg = flamegraph(stacks)
    assert svg == flamegraph(dict(reversed(list(stacks.items()))))
    assert svg.count("<svg") == 1 and "vz-ring" in svg
    assert "m:compile — 80 samples (80.0%)" in svg
    assert "CPU profile (sampled)" in svg


def test_flamegraph_empty_and_narrow_frames():
    assert "no samples" in flamegraph({})
    # A frame below one pixel is dropped, not rendered at negative width.
    wide = {"m:a;m:hot": 100000, "m:a;m:cold": 1}
    svg = flamegraph(wide)
    assert "m:hot" in svg and "m:cold" not in svg


def test_trend_chart_and_sparkline_svg():
    chart = trend_chart("wall_seconds", [1.0, 1.2, 0.9], command="report")
    assert "history · report: wall_seconds" in chart and "<svg" in chart
    assert chart == trend_chart("wall_seconds", [1.0, 1.2, 0.9], command="report")
    spark = sparkline_svg([1.0, 2.0, 1.5])
    assert "<svg" in spark and "polyline" in spark
    assert "polyline" not in sparkline_svg([1.0])  # needs two points for a line


# ---------------------------------------------------------------------------
# report HTML: telemetry cards
# ---------------------------------------------------------------------------


def test_report_html_renders_telemetry_cards(synthetic_trace):
    from repro.viz.report_html import build_report_html

    analytics = {
        "summary": obs_analyze.summarize(synthetic_trace),
        "critical_path": obs_analyze.critical_path(synthetic_trace),
        "overhead": obs_analyze.scheduler_overhead(synthetic_trace),
    }
    profile = {
        "svg": flamegraph({"m:main;m:compile": 10}),
        "samples": 10, "hz": 97,
        "top": obs_profile.top_self({"m:main;m:compile": 10}),
    }
    trends = [{"metric": "wall_seconds", "values": [1.0, 1.1],
               "svg": trend_chart("wall_seconds", [1.0, 1.1], command="report")}]
    document = build_report_html({}, {}, {}, analytics=analytics,
                                 profile=profile, trends=trends)
    for marker in ('id="trace-analytics"', 'id="profile"', 'id="trends"',
                   "Critical path", "task:sweep:b", "Scheduler overhead"):
        assert marker in document
    # The self-contained contract still holds: no scripts, no external assets.
    for forbidden in ("<script", "<link", "src=", "@import"):
        assert forbidden not in document

    bare = build_report_html({}, {}, {})
    for marker in ('id="trace-analytics"', 'id="profile"', 'id="trends"'):
        assert marker not in bare
