"""Smoke tests of the ``repro`` CLI.

In-process tests call :func:`repro.cli.main` directly (fast, easy to assert
on); one subprocess test per entry point (``python -m repro.cli`` and
``python -m repro``) proves the executable wiring works end to end.  All
tests pin ``--cache-dir`` to a temp directory and use the cheapest workload
(blowfish) so the whole module runs in a few seconds.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv, tmp_path, capsys):
    code = main(list(argv) + ["--cache-dir", str(tmp_path / "cache")])
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# in-process
# ---------------------------------------------------------------------------


def test_list(tmp_path, capsys):
    code, out, _ = run_cli(["list"], tmp_path, capsys)
    assert code == 0
    for name in ("adpcm", "aes", "blowfish", "gsm", "jpeg", "mips", "mpeg2", "sha"):
        assert name in out


def test_run_text_report(tmp_path, capsys):
    code, out, _ = run_cli(["run", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "benchmark             : blowfish" in out
    assert "speedup vs pure SW" in out


def test_run_json(tmp_path, capsys):
    code, out, _ = run_cli(["run", "blowfish", "--json"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["benchmark"] == "blowfish"
    assert payload["outputs_match"] is True
    assert payload["queues"] >= 1
    assert payload["speedup_vs_sw"] > 1.0


def test_run_unknown_workload_fails_cleanly(tmp_path, capsys):
    code, out, err = run_cli(["run", "nosuchkernel"], tmp_path, capsys)
    assert code == 2
    assert "unknown workload" in err
    assert "blowfish" in err  # suggests the known names


def test_run_sw_fraction(tmp_path, capsys):
    code, out, _ = run_cli(["run", "blowfish", "--sw-fraction", "0.5", "--json"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sw_fraction"] == 0.5
    assert payload["cycles"] > 0


def test_table_6_1(tmp_path, capsys):
    code, out, _ = run_cli(["table", "6.1", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "Table 6.1" in out
    assert "blowfish" in out


def test_figure_split_sweep(tmp_path, capsys):
    code, out, _ = run_cli(["sweep", "split", "--workload", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "blowfish performance vs targeted partition split point" in out


def test_split_artefacts_reject_conflicting_benchmarks(tmp_path, capsys):
    # Figure 6.3 is defined over mips; restricting to another workload must
    # fail loudly instead of silently producing the mips figure.
    code, _, err = run_cli(["figure", "6.3", "--benchmarks", "gsm"], tmp_path, capsys)
    assert code == 2
    assert "mips" in err
    code, _, err = run_cli(["sweep", "split", "--workload", "sha", "--benchmarks", "gsm"], tmp_path, capsys)
    assert code == 2
    assert "sha" in err
    # A consistent restriction is fine.
    code, out, _ = run_cli(["figure", "6.4", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "blowfish" in out


def test_invalid_sw_fraction_fails_cleanly(tmp_path, capsys):
    code, _, err = run_cli(["run", "blowfish", "--sw-fraction", "1.5"], tmp_path, capsys)
    assert code == 2
    assert "sw_fraction" in err
    assert "Traceback" not in err


def test_report_json(tmp_path, capsys):
    code, out, _ = run_cli(["report", "--json", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["benchmarks"] == ["blowfish"]
    assert "config" in payload
    artefacts = payload["artefacts"]
    # Tables, non-split figures and the summary are always present; the
    # split-sweep figures are skipped because their workloads (mips for 6.3)
    # are outside the restricted benchmark set.
    for key in ("table_6.1", "table_6.2", "figure_6.1", "figure_6.2", "figure_6.5", "figure_6.6", "summary"):
        assert key in artefacts
    assert "figure_6.3" not in artefacts
    assert artefacts["summary"]["mean_speedup_vs_sw"] > 1.0


def test_report_markdown(tmp_path, capsys):
    code, out, _ = run_cli(["report", "--markdown", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "### Table 6.1" in out
    assert "| benchmark |" in out


def test_cache_stats_and_clear(tmp_path, capsys):
    run_cli(["run", "blowfish"], tmp_path, capsys)
    code, out, _ = run_cli(["cache", "stats", "--json"], tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["entries"] == 1
    code, out, _ = run_cli(["cache", "clear"], tmp_path, capsys)
    assert code == 0
    assert "removed 1 cache entries" in out


def test_second_invocation_hits_the_cache(tmp_path, capsys):
    run_cli(["run", "blowfish", "--json"], tmp_path, capsys)
    # Same cache dir, fresh harness: must succeed purely from disk.
    code, out, _ = run_cli(["run", "blowfish", "--json"], tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["outputs_match"] is True
    code, out, _ = run_cli(["cache", "stats", "--json"], tmp_path, capsys)
    assert json.loads(out)["entries"] == 1  # no duplicate entry was written


def test_graph_lists_sweep_points_without_executing(tmp_path, capsys):
    code, out, _ = run_cli(["graph", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    assert "compile:blowfish" in out
    assert "sweep:latency:blowfish:128" in out
    assert "sweep:split:blowfish:0.75" in out
    assert "figure:6.6" in out
    # Pure inspection: nothing was compiled or cached.
    assert not (tmp_path / "cache").exists()


def test_graph_json_counts(tmp_path, capsys):
    code, out, _ = run_cli(["graph", "--json", "--benchmarks", "blowfish"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    counts = payload["counts"]
    # One compile plus one node per sweep point (4 latencies, 3 depths,
    # 6 split points for the blowfish split figure).
    assert counts["compile"] == 1
    assert counts["runtime"] == 7
    assert counts["split"] == 6
    assert all(t["deps"] == ["compile:blowfish"] for t in payload["tasks"] if t["kind"] != "compile" and t["kind"] != "aggregate")


def test_cache_prune(tmp_path, capsys):
    run_cli(["run", "blowfish"], tmp_path, capsys)
    code, out, _ = run_cli(["cache", "prune", "--max-bytes", "0", "--json"], tmp_path, capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["removed_entries"] == 1
    assert summary["remaining_entries"] == 0
    code, _, err = run_cli(["cache", "prune"], tmp_path, capsys)
    assert code == 2
    assert "--max-bytes" in err
    code, _, err = run_cli(["cache", "prune", "--max-bytes", "1.5X"], tmp_path, capsys)
    assert code == 2
    assert "invalid size" in err


@pytest.mark.parametrize("size", ["inf", "1e400", "1e400G"])
def test_cache_prune_rejects_an_unbounded_size(size, tmp_path, capsys):
    code, _, err = run_cli(["cache", "prune", "--max-bytes", size], tmp_path, capsys)
    assert code == 2
    assert f"error: invalid size '{size}'" in err


def test_jobs_alias_for_parallel(tmp_path, capsys):
    code, out, _ = run_cli(
        ["table", "6.1", "--benchmarks", "blowfish", "--jobs", "2"], tmp_path, capsys
    )
    assert code == 0
    assert "Table 6.1" in out


@pytest.mark.parametrize("url", ["http://h:1", "https://cache.example/store"])
def test_cache_dir_rejects_a_url(tmp_path, capsys, monkeypatch, url):
    """The cache takes a directory: a URL must not become a directory 'http:'."""
    monkeypatch.chdir(tmp_path)
    code = main(["run", "blowfish", "--cache-dir", url])
    _, err = capsys.readouterr()
    assert code == 2
    assert "takes a directory, not a URL" in err and "Traceback" not in err
    monkeypatch.setenv("REPRO_CACHE_DIR", url)
    code = main(["cache", "stats"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "takes a directory, not a URL" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_explore_json_is_deterministic_and_warm(tmp_path, capsys):
    argv = ["explore", "blowfish", "--strategy", "annealing", "--budget", "4",
            "--seed", "7", "--json"]
    code, cold_out, cold_err = run_cli(argv, tmp_path, capsys)
    assert code == 0
    payload = json.loads(cold_out)
    assert payload["workload"] == "blowfish"
    assert payload["strategy"] == "annealing"
    assert payload["frontier"] and payload["best"]["params"]
    assert len(payload["evaluations"]) <= 4
    assert "explored blowfish" in cold_err  # effort stays on stderr
    # Same cache dir: byte-identical stdout, nothing re-executed.
    code, warm_out, warm_err = run_cli(argv, tmp_path, capsys)
    assert code == 0
    assert warm_out == cold_out
    assert "0 executed" in warm_err


def test_explore_text_output_and_benchmark_guard(tmp_path, capsys):
    code, out, _ = run_cli(
        ["explore", "blowfish", "--strategy", "exhaustive", "--budget", "3"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "Pareto frontier" in out and "best found:" in out
    code, _, err = run_cli(
        ["explore", "mips", "--benchmarks", "blowfish", "--budget", "2"], tmp_path, capsys
    )
    assert code == 2
    assert "not in --benchmarks" in err


def test_explore_rejects_unknown_workload_and_bad_budget(tmp_path, capsys):
    code, _, err = run_cli(["explore", "ghost"], tmp_path, capsys)
    assert code == 2 and "Traceback" not in err
    code, _, err = run_cli(["explore", "blowfish", "--budget", "0"], tmp_path, capsys)
    assert code == 2
    assert "budget" in err


def test_report_compare_detects_changes_and_all_clear(tmp_path, capsys):
    code, baseline_json, _ = run_cli(
        ["report", "--json", "--benchmarks", "blowfish"], tmp_path, capsys
    )
    assert code == 0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(baseline_json, encoding="utf-8")
    # Same configuration: every artefact matches.
    code, out, _ = run_cli(
        ["report", "--compare", str(baseline_path), "--benchmarks", "blowfish"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "all" in out and "match the baseline" in out
    # Tamper with one cell: the diff names the artefact, row and column.
    doctored = json.loads(baseline_json)
    doctored["artefacts"]["table_6.1"]["rows"][0]["queues"] += 1
    baseline_path.write_text(json.dumps(doctored), encoding="utf-8")
    code, out, _ = run_cli(
        ["report", "--compare", str(baseline_path), "--benchmarks", "blowfish"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "table_6.1 (changed)" in out
    assert "queues" in out and "blowfish" in out
    # JSON mode emits the structured diff.
    code, out, _ = run_cli(
        ["report", "--compare", str(baseline_path), "--json", "--benchmarks", "blowfish"],
        tmp_path, capsys,
    )
    assert code == 0
    diff = json.loads(out)
    assert diff["changed"] == ["table_6.1"]
    assert diff["cells"][0]["column"] == "queues"
    assert diff["cells"][0]["delta"] == -1


def test_report_compare_rejects_bad_baselines(tmp_path, capsys):
    code, _, err = run_cli(
        ["report", "--compare", str(tmp_path / "missing.json")], tmp_path, capsys
    )
    assert code == 2
    assert "cannot read baseline" in err and "Traceback" not in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["report", "--compare", str(bad)], tmp_path, capsys)
    assert code == 2
    assert "not valid JSON" in err
    code, _, err = run_cli(
        ["report", "--compare", str(bad), "--html", str(tmp_path / "out")], tmp_path, capsys
    )
    assert code == 2
    assert "--html" in err


def test_parser_covers_all_documented_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[0].choices)
    assert {"list", "run", "sweep", "table", "figure", "report", "graph", "cache",
            "explore"} <= subcommands


def test_chrome_export_moved_from_report_to_trace(capsys):
    """The chrome://tracing document comes from the span file
    (``repro trace SPANS.jsonl --chrome OUT.json``), not from ``report``."""
    with pytest.raises(SystemExit) as exc:
        main(["report", "--trace", "t.json"])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    args = build_parser().parse_args(["trace", "spans.jsonl", "--chrome", "out.json"])
    assert args.chrome == "out.json"


def test_cli_and_report_artefact_registries_stay_in_sync():
    """`repro table/figure` (cli.TABLES/FIGURES) and `repro report/graph`
    (experiments.ARTEFACT_DECLARERS) must cover exactly the same artefacts —
    adding one without the other would silently drop it from the report."""
    from repro import cli
    from repro.eval import experiments

    expected = (
        {f"table_{table_id}" for table_id in cli.TABLES}
        | {f"figure_{figure_id}" for figure_id in cli.FIGURES}
        | {"summary", "exploration"}
    )
    assert set(experiments.ARTEFACT_DECLARERS) == expected


def test_cli_strategy_choices_match_the_registry():
    """`repro explore --strategy` lists the registry's names without
    importing it (the parser is built on every start-up)."""
    from repro import cli
    from repro.explore.strategies import STRATEGIES

    assert cli.STRATEGY_NAMES == tuple(sorted(STRATEGIES))


# ---------------------------------------------------------------------------
# subprocess entry points
# ---------------------------------------------------------------------------


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("module", ["repro.cli", "repro"])
def test_subprocess_entry_points(module, tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            module,
            "run",
            "blowfish",
            "--json",
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["benchmark"] == "blowfish"
    assert payload["outputs_match"] is True


def test_subprocess_report_json(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "report",
            "--json",
            "--benchmarks",
            "blowfish",
            "--parallel",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["benchmarks"] == ["blowfish"]
    assert "summary" in payload["artefacts"]
