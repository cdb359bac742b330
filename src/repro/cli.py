"""``repro`` — the unified command-line interface of the Twill reproduction.

Every experiment of thesis Chapter 6 is reachable from one executable, backed
by the same :mod:`repro.eval` code path the examples and the pytest-benchmark
suite use, so numbers never diverge between entry points:

* ``repro list`` — the registered workloads;
* ``repro run <workload>`` — compile + simulate one workload and print its
  report (``--json`` for machine-readable output);
* ``repro sweep {latency,depth,split}`` — the sensitivity sweeps behind
  Figures 6.3-6.6;
* ``repro table {6.1,6.2}`` / ``repro figure {6.1..6.6}`` — one thesis
  artefact; ``repro figure 6.x --svg FILE`` renders it as a standalone SVG
  chart (``-`` for stdout) through :mod:`repro.viz`;
* ``repro report`` — every table and figure plus the §6.7 headline summary
  and the embedded design-space-exploration section (``--json`` /
  ``--markdown`` for machine- or doc-friendly output), computed as one task
  graph; ``--html DIR`` writes a single self-contained ``report.html`` with
  every figure as inline SVG (see docs/REPORTING.md); ``--compare
  BASELINE.json`` diffs the run figure-by-figure against a saved ``--json``
  payload;
* ``repro explore <workload|all> --strategy S --budget N --seed K`` — the
  full design-space exploration engine: budgeted search (exhaustive,
  random, greedy, annealing) over split/pipeline/queue/HLS candidates with
  exact Pareto frontiers, cached and resumable (docs/EXPLORATION.md);
* ``repro ingest FILE.c [--run|--sweep|--explore]`` — register a raw C file
  as a first-class workload: preprocess, parse with error recovery
  (``file:line:col`` diagnostics), capture reference outputs, register —
  then optionally compile/sweep/explore it like a builtin
  (docs/INGESTION.md);
* ``repro difftest <workload|all>`` — differential testing: the interpreter
  and the timing simulator must agree on the program's output stream under
  the software-only, hybrid and hardware-heavy configurations; ``all``
  auto-ingests the ``tests/corpus/`` regression programs first;
* ``repro graph`` — print that task graph (every compile, sweep-point and
  aggregate node with its dependencies) without executing it;
* ``repro cache {stats,clear,prune}`` — inspect, empty, or LRU-bound the
  on-disk artifact cache (``prune --max-bytes``);
* ``repro trace TRACE.jsonl`` — render the structured span trace captured
  by running any command with ``REPRO_TRACE=TRACE.jsonl`` set: a
  parent/child span tree per trace id (task, cache and pipeline-stage
  spans), ``--gantt`` for a per-worker timeline, ``--summary`` for per-kind
  statistics with scheduler-overhead accounting, ``--critical-path`` for
  the longest dependency chain, or ``--chrome OUT.json`` to export the
  spans as a chrome://tracing / Perfetto document (see
  ``docs/OBSERVABILITY.md``);
* ``repro profile <workload>`` — per-stage wall-clock times; with
  ``--flame FILE.svg`` / ``--collapsed FILE.txt`` also attaches a sampling
  profiler and renders the call stacks; ``repro profile --from
  PROFILE.jsonl`` analyses profiles captured from any command via
  ``REPRO_PROFILE=PROFILE.jsonl`` (pool workers write one record per
  process, merged on load);
* ``repro history {show,trend,check}`` — the persistent run ledger
  (``.repro_history/runs.jsonl``, appended by report/explore/bench runs):
  recent records, per-metric trends (``--svg-dir`` renders line charts),
  and rolling-median regression detection (``check`` exits non-zero when
  the latest run is slower than ``--threshold`` times baseline).

All experiment commands accept ``--benchmarks`` (restrict the workload set),
``--parallel N`` / ``--jobs N`` (execute ready task-graph nodes over N
worker processes), ``--cache-dir`` (a directory) and ``--no-cache``.
Results are disk-cached under ``.repro_cache/`` (see ``docs/CACHING.md``),
so a second invocation of any command is near-instant.

Installed as a ``console_scripts`` entry point by ``setup.py``; also runnable
as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import history as obs_history

if TYPE_CHECKING:
    from repro.eval.harness import EvaluationHarness

# Each command imports the subsystems it runs, so that `repro list` and a
# warm `repro report` load no compiler stage (docs/PERFORMANCE.md,
# "Start-up").  Only the parser's own defaults are bound here.

#: Experiment generators of :mod:`repro.eval.experiments` by artefact id,
#: in thesis order.
TABLES = {"6.1": "table_6_1", "6.2": "table_6_2"}
FIGURES = {f"6.{n}": f"figure_6_{n}" for n in range(1, 7)}

#: The ``explore --strategy`` choices: the names of
#: :data:`repro.explore.strategies.STRATEGIES` (pinned by tests/test_cli.py).
STRATEGY_NAMES = ("annealing", "exhaustive", "greedy", "random")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _make_harness(args: argparse.Namespace, benchmarks: Optional[List[str]] = None) -> EvaluationHarness:
    """Build the harness described by the common CLI options."""
    from repro.config import CompilerConfig
    from repro.eval.harness import EvaluationHarness

    names = benchmarks if benchmarks is not None else _requested_benchmarks(args)
    return EvaluationHarness(
        config=CompilerConfig(),
        benchmarks=names,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (e.g. ``512M``)."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3}
    raw = text.strip().lower().rstrip("b")
    factor = 1
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except (ValueError, OverflowError):
        raise ReproError(f"invalid size '{text}' (expected e.g. 104857600, 100M, 1.5G)") from None
    if value < 0:
        raise ReproError(f"size must be non-negative, got '{text}'")
    return value


def _requested_benchmarks(args: argparse.Namespace) -> Optional[List[str]]:
    """The --benchmarks list, or None when unrestricted."""
    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        return names or None
    return None


def _check_split_workload(workload: str, args: argparse.Namespace) -> None:
    """Split artefacts are defined over one specific workload; reject a
    --benchmarks restriction that excludes it rather than silently ignoring it."""
    requested = _requested_benchmarks(args)
    if requested is not None and workload not in requested:
        raise ReproError(
            f"this split sweep is defined over workload '{workload}', which is "
            f"not in --benchmarks {','.join(requested)}"
        )


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured markdown rendering of a rows list."""

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(lines)


def _render_markdown(data: Dict) -> str:
    """One experiment result as markdown: its rows as a table, or the
    preformatted text fenced when there are no rows."""
    rows = data.get("rows")
    if rows:
        headers = list(rows[0].keys())
        return _markdown_table(headers, [[r[h] for h in headers] for r in rows])
    return "```\n" + data.get("table", "") + "\n```"


def _emit(data: Dict, args: argparse.Namespace) -> None:
    """Print one experiment result in the requested format."""
    if getattr(args, "json", False):
        payload = {k: v for k, v in data.items() if k != "table"}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif getattr(args, "markdown", False):
        print(_render_markdown(data))
    else:
        print(data["table"])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _profile_sink() -> str:
    """``$REPRO_PROFILE``: the file this run's sampling profile goes to ('' = off)."""
    return (os.environ.get("REPRO_PROFILE") or "").strip()


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    for workload in all_workloads():
        chstone = f" (CHStone {workload.chstone_name})" if workload.chstone_name else ""
        print(f"{workload.name:10s} {workload.description}{chstone}")
    return 0


def _profile_views(args: argparse.Namespace, stacks: Dict[str, int]) -> None:
    """Write the ``--flame`` / ``--collapsed`` views of one stack set."""
    from repro.obs import profile as obs_profile

    if args.flame:
        from repro.viz.flame import flamegraph

        markup = flamegraph(stacks)
        if args.flame == "-":
            print(markup, end="")
        else:
            path = Path(args.flame)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(markup, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    if args.collapsed:
        text = obs_profile.collapsed_lines(stacks)
        if args.collapsed == "-":
            print(text)
        else:
            Path(args.collapsed).write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.collapsed}", file=sys.stderr)


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: per-stage timings, sampled flamegraphs, profile files.

    Two modes.  With a workload, compile it end to end fresh (no artifact
    cache: the point is to time the stages, and a cache hit times nothing)
    and print the per-stage wall-clock table — adding ``--flame``/
    ``--collapsed`` samples the compile while it runs.  With ``--from
    PROFILE.jsonl``, skip compiling and render the records a
    ``$REPRO_PROFILE`` run left behind, merged across its processes.
    """
    from repro.obs import profile as obs_profile

    if args.from_file:
        try:
            records = obs_profile.load_profiles(Path(args.from_file))
        except OSError as exc:
            raise ReproError(f"cannot read profile file '{args.from_file}': {exc}") from exc
        if not records:
            raise ReproError(
                f"'{args.from_file}' contains no profile records — capture one with "
                "REPRO_PROFILE=profile.jsonl repro report ..."
            )
        stacks = obs_profile.merge_stacks(records)
        counters = obs_profile.merge_counters(records)
        samples = sum(int(r.get("samples", 0)) for r in records)
        if args.json:
            payload = {
                "source": str(args.from_file),
                "processes": len(records),
                "samples": samples,
                "counters": counters,
                "top": obs_profile.top_self(stacks),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif not (args.flame or args.collapsed):
            print(f"{len(records)} profile records, {samples} samples")
            for entry in obs_profile.top_self(stacks):
                print(f"{entry['fraction'] * 100.0:5.1f}%  {entry['samples']:6d}  {entry['frame']}")
            if counters:
                print("counters:")
                for name, value in counters.items():
                    print(f"  {name} = {value:g}")
        _profile_views(args, stacks)
        return 0

    if not args.workload:
        raise ReproError("profile needs a workload (see 'repro list') or --from PROFILE.jsonl")
    from repro import perf
    from repro.config import CompilerConfig
    from repro.core.compiler import TwillCompiler
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    compiler = TwillCompiler(CompilerConfig())
    sampler = None
    if args.flame or args.collapsed:
        sampler = obs_profile.SamplingProfiler(hz=args.hz or obs_profile.DEFAULT_HZ, service="cli")
        sampler.start()
    with perf.collect() as timings:
        result = compiler.compile_and_simulate(workload.source, name=workload.name)
    record = None
    if sampler is not None:
        sampler.stop()
        record = sampler.snapshot()
    if args.json:
        payload = {
            "workload": workload.name,
            "total_seconds": round(timings.total(), 6),
            "stages": timings.as_dict(),
            "twill_cycles": result.system.twill.cycles,
        }
        if record is not None:
            payload["samples"] = record["samples"]
            payload["sample_hz"] = record["hz"]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"workload : {workload.name}")
        print(f"cycles   : {result.system.twill.cycles:,.0f}")
        print(timings.table())
    if record is not None:
        _profile_views(args, record["stacks"])
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload

    get_workload(args.workload)  # fail fast before building a harness
    harness = _make_harness(args, benchmarks=[args.workload])
    run = harness.run(args.workload)
    result = run.result
    if args.sw_fraction is not None:
        data = harness.twill_cycles_with_split(args.workload, args.sw_fraction)
        data = {"benchmark": args.workload, "sw_fraction": args.sw_fraction, **data}
        print(json.dumps(data, indent=2, sort_keys=True) if args.json else "\n".join(f"{k:14s}: {v}" for k, v in data.items()))
        return 0
    if args.json:
        payload = {"outputs_match": run.functional_outputs_match(), **result.summary_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.report())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    if args.kind == "latency":
        harness = _make_harness(args)
        _emit(experiments.figure_6_5(harness, parallel=args.parallel), args)
    elif args.kind == "depth":
        harness = _make_harness(args)
        _emit(experiments.figure_6_6(harness, parallel=args.parallel), args)
    else:  # split
        workload = args.workload or "mips"
        _check_split_workload(workload, args)
        harness = _make_harness(args, benchmarks=[workload])
        _emit(experiments.split_sweep(workload, harness, parallel=args.parallel), args)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    harness = _make_harness(args)
    _emit(getattr(experiments, TABLES[args.id])(harness, parallel=args.parallel), args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    split_workload = experiments.SPLIT_FIGURE_WORKLOADS.get(args.id)
    if split_workload:
        _check_split_workload(split_workload, args)
    harness = _make_harness(args, benchmarks=[split_workload] if split_workload else None)
    if args.svg:
        markup = experiments.figure_svg(args.id, harness, parallel=args.parallel)
        if args.svg == "-":
            print(markup, end="")
        else:
            path = Path(args.svg)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(markup, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
        return 0
    _emit(getattr(experiments, FIGURES[args.id])(harness, parallel=args.parallel), args)
    return 0


def _record_run_history(
    command: str,
    args: argparse.Namespace,
    harness,
    wall_seconds: float,
    stage_timings=None,
    extra_metrics: Optional[Dict[str, float]] = None,
    extra_attrs: Optional[Dict] = None,
) -> None:
    """Append one run record to the persistent history (observe-only).

    Never prints and never raises — stdout byte-identity and run success
    are pinned by the same tests that pin tracing.
    """
    from repro.obs import tracing as obs_tracing

    metrics: Dict[str, float] = {"wall_seconds": round(wall_seconds, 6)}
    stats = getattr(harness, "last_stats", None) or {}
    if stats:
        total = int(stats.get("total", 0))
        hits = int(stats.get("cache_hits", 0))
        executed = sum((stats.get("executed") or {}).values())
        metrics["tasks_total"] = float(total)
        metrics["tasks_executed"] = float(executed)
        metrics["cache_hits"] = float(hits)
        if total:
            metrics["cache_hit_rate"] = round(hits / total, 4)
    if stage_timings is not None:
        for name, entry in stage_timings.as_dict().items():
            metrics[f"stage_{name}_seconds"] = entry["seconds"]
    if extra_metrics:
        metrics.update(extra_metrics)
    attrs = {
        "benchmarks": ",".join(getattr(harness, "benchmark_names", []) or []),
        "workers": args.parallel or 0,
    }
    # Link the ledger row to its telemetry: a regression flagged by
    # `repro history check` then points straight at the trace/profile that
    # explains it (`repro history show` surfaces these).
    trace_id = obs_tracing.last_trace_id()
    if trace_id:
        attrs["trace_id"] = trace_id
    trace_sink = obs_tracing.sink_spec()
    if trace_sink:
        attrs["trace_sink"] = trace_sink
    profile_path = _profile_sink()
    if profile_path:
        attrs["profile"] = profile_path
    if extra_attrs:
        attrs.update(extra_attrs)
    obs_history.record_run(command, metrics, attrs=attrs)


def _write_report_html(
    args: argparse.Namespace, harness, artefacts, figures, stage_timings=None
) -> int:
    """Assemble and write the self-contained ``report.html``."""
    from repro.obs import tracing as obs_tracing
    from repro.viz.charts import Span
    from repro.viz.report_html import build_benchmark_page, build_report_html

    metadata = {
        "config_hash": harness.config.content_hash(),
        "benchmarks": harness.benchmark_names,
        "cache": harness.cache.spec if harness.cache is not None else "",
        "scheduler": harness.last_stats,
    }
    if stage_timings is not None and stage_timings.seconds:
        # Wall-clock per pipeline stage, as observed in this process (pool
        # workers time their own stages; cache hits time nothing).
        metadata["stage_timings"] = stage_timings.as_dict()
    obs_spans = None
    analytics = None
    if obs_tracing.enabled():
        # Observe-only: the telemetry sections appear only when $REPRO_TRACE
        # was set, so an untraced report document stays byte-identical.
        records = obs_tracing.tracer().spans()
        obs_spans = [
            Span(
                name=record["name"],
                kind=record["kind"],
                worker=record.get("worker") or record.get("service") or "main",
                start=record["start"],
                end=record["end"],
            )
            for record in records
            if record["end"] > record["start"]
        ] or None
        if records:
            from repro.obs import analyze as obs_analyze

            analytics = {
                "summary": obs_analyze.summarize(records),
                "critical_path": obs_analyze.critical_path(records),
                "overhead": obs_analyze.scheduler_overhead(records),
            }
    profile_card = None
    active_profiler = None
    if _profile_sink():
        from repro.obs import profile as obs_profile

        active_profiler = obs_profile.profiler()
    if active_profiler is not None:
        # Same opt-in logic: only a $REPRO_PROFILE run gets the card.
        from repro.viz.flame import flamegraph

        record = active_profiler.snapshot()
        if record["stacks"]:
            profile_card = {
                "svg": flamegraph(record["stacks"]),
                "samples": record["samples"],
                "hz": record["hz"],
                "top": obs_profile.top_self(record["stacks"], limit=10),
            }
    trends = None
    history_file = obs_history.explicit_path()
    if history_file is not None and history_file.exists():
        # Trends render only with an explicit $REPRO_HISTORY: the default
        # history grows a record per run, which would break the warm-run
        # byte-identity guarantee the HTML report carries.
        from repro.viz.trend import sparkline_svg, trend_chart

        runs = obs_history.load_runs(history_file)
        series = obs_history.metric_series(runs, command="report")
        ordered = [m for m in ("wall_seconds", "cache_hit_rate") if m in series]
        ordered += sorted(m for m in series if m.startswith("stage_") and m.endswith("_seconds"))
        trend_rows = []
        for metric in ordered[:6]:
            values = series[metric]
            svg = (
                trend_chart(metric, values, command="report")
                if len(values) >= 2
                else sparkline_svg(values)
            )
            trend_rows.append({"metric": metric, "values": values, "svg": svg})
        trends = trend_rows or None
    document = build_report_html(
        artefacts,
        figures,
        metadata,
        obs_spans=obs_spans,
        analytics=analytics,
        profile=profile_card,
        trends=trends,
        benchmark_pages=harness.benchmark_names,
    )
    out_dir = Path(args.html)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.html"
    path.write_text(document, encoding="utf-8")
    for benchmark in harness.benchmark_names:
        page = build_benchmark_page(benchmark, artefacts, metadata)
        (out_dir / f"benchmark-{benchmark}.html").write_text(page, encoding="utf-8")
    print(
        f"wrote {path} ({len(figures)} figures, "
        f"{len(harness.benchmark_names)} drill-down pages)",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.eval import experiments

    if args.html and (args.json or args.markdown):
        # One output contract per invocation: --html writes a document and
        # keeps stdout empty, so combining it with a stdout format would
        # silently starve whatever consumes stdout.
        raise ReproError("--html cannot be combined with --json/--markdown; run them separately")
    if args.html and args.compare:
        raise ReproError(
            "--compare emits a diff on stdout and cannot be combined with --html; "
            "run them separately"
        )
    baseline = None
    if args.compare:
        # Fail on a bad baseline *before* spending minutes regenerating.
        baseline_path = Path(args.compare)
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"cannot read baseline '{args.compare}': {exc}") from exc
        except ValueError:
            raise ReproError(
                f"baseline '{args.compare}' is not valid JSON (save one with "
                "'repro report --json > baseline.json')"
            ) from None
    harness = _make_harness(args)
    # One merged task graph: every compile, every (workload, sweep-point)
    # node and (with --html) every figure render schedules as an independent
    # job under --parallel/--jobs.
    run_started = time.perf_counter()
    with perf.collect() as stage_timings:
        if args.html:
            artefacts, figures = experiments.run_report_figures(harness, parallel=args.parallel)
        else:
            artefacts = experiments.run_report(harness, parallel=args.parallel)
    _record_run_history(
        "report",
        args,
        harness,
        time.perf_counter() - run_started,
        stage_timings,
        extra_attrs={"html": bool(args.html)},
    )
    if args.html:
        return _write_report_html(args, harness, artefacts, figures, stage_timings)

    if baseline is not None:
        current = {
            key: {k: v for k, v in data.items() if k != "table"}
            for key, data in artefacts.items()
        }
        from repro.eval.compare import compare_reports

        diff = compare_reports(current, baseline)
        if args.json:
            print(json.dumps({k: v for k, v in diff.items() if k != "table"},
                             indent=2, sort_keys=True))
        else:
            print(diff["table"])
        return 0

    if args.json:
        payload = {
            "benchmarks": harness.benchmark_names,
            "config": harness.config.to_dict(),
            "artefacts": {
                key: {k: v for k, v in data.items() if k != "table"}
                for key, data in artefacts.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    for key, data in artefacts.items():
        if args.markdown:
            title = data["table"].splitlines()[0]
            print(f"### {title}\n")
            print(_render_markdown(data))
        else:
            print(data["table"])
        print()
    return 0


def _explore_text(result) -> str:
    """One workload's exploration outcome as aligned text tables."""
    from repro.core.report import format_result_table

    dims = [dim.name for dim in result.space.dimensions]
    rows = [
        [row["params"][dim] for dim in dims]
        + [row["cycles"], row["area_luts"], row["power_mw"], row.get("speedup_vs_sw", 0.0)]
        for row in result.frontier.to_rows()
    ]
    table = format_result_table(
        dims + ["cycles", "area (LUTs)", "power (mW)", "speedup vs SW"],
        rows,
        title=(
            f"{result.workload}: Pareto frontier — {len(rows)} of "
            f"{len(result.evaluations)} evaluated candidates "
            f"({result.strategy}, budget {result.budget}, seed {result.seed})"
        ),
    )
    best = result.best_row()
    best_params = ", ".join(f"{k}={v}" for k, v in best["params"].items())
    return (
        table
        + f"\nbest found: {best_params} -> {best['cycles']:.0f} cycles, "
        f"{best['area_luts']:,} LUTs, {best['power_mw']:.0f} mW "
        f"({best['speedup_vs_sw']:.2f}x vs SW)"
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    """``repro explore``: search the partition/configuration design space."""
    from repro.explore.driver import ExplorationDriver
    from repro.workloads import all_workloads, get_workload

    if args.workload == "all":
        names = _requested_benchmarks(args) or [w.name for w in all_workloads()]
    else:
        get_workload(args.workload)  # fail fast before building a harness
        requested = _requested_benchmarks(args)
        if requested is not None and args.workload not in requested:
            raise ReproError(
                f"workload '{args.workload}' is not in --benchmarks {','.join(requested)}"
            )
        names = [args.workload]
    harness = _make_harness(args, benchmarks=names)
    results = {}
    totals = {"evaluated": 0, "executed": 0, "cache_hits": 0}
    run_started = time.perf_counter()
    for name in names:
        driver = ExplorationDriver(
            harness,
            name,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            jobs=args.parallel,
        )
        results[name] = driver.run()
        stats = driver.stats
        for key in totals:
            totals[key] += int(stats.get(key, 0))
        # Effort goes to stderr: stdout stays byte-identical cold vs warm.
        print(
            f"explored {name}: {stats['evaluated']} candidates "
            f"({stats['executed']} executed, {stats['cache_hits']} cache hits), "
            f"frontier size {len(results[name].frontier)}",
            file=sys.stderr,
        )
    _record_run_history(
        "explore",
        args,
        harness,
        time.perf_counter() - run_started,
        extra_metrics={
            "candidates_evaluated": float(totals["evaluated"]),
            "candidates_executed": float(totals["executed"]),
            "candidate_cache_hits": float(totals["cache_hits"]),
        },
        extra_attrs={"strategy": args.strategy, "budget": args.budget, "seed": args.seed},
    )
    if args.json:
        if args.workload != "all":
            # Explicit single-workload request: the bare result document.
            # 'all' always gets the wrapped shape, even over one benchmark,
            # so consumers never have to sniff which schema they received.
            payload = results[names[0]].to_json_dict()
        else:
            payload = {
                "strategy": args.strategy,
                "budget": args.budget,
                "seed": args.seed,
                "workloads": {name: results[name].to_json_dict() for name in names},
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for index, name in enumerate(names):
        if index:
            print()
        if args.markdown:
            result = results[name]
            flat = [
                {**row["params"],
                 **{k: row[k] for k in ("cycles", "area_luts", "power_mw") if k in row},
                 "speedup_vs_sw": row.get("speedup_vs_sw", 0.0)}
                for row in result.frontier.to_rows()
            ]
            print(f"### {name}: Pareto frontier ({result.strategy}, "
                  f"budget {result.budget}, seed {result.seed})\n")
            print(_render_markdown({"rows": flat}))
        else:
            print(_explore_text(results[name]))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: register a raw .c file as a first-class workload."""
    from repro.eval import experiments
    from repro.eval.taskgraph import TaskGraph
    from repro.ingest import default_workload_name, ingest_file

    name = args.name or default_workload_name(args.file)
    harness = _make_harness(args, benchmarks=[name])
    report, _ = ingest_file(args.file, name=name, harness=harness)

    if not report.ok:
        if args.json:
            # The bare report document: deterministic, byte-identical cold/warm.
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.format_text())
        return 1

    payload: Dict = {"report": report.to_dict()}
    extra_text: List[str] = []

    if args.run:
        graph = TaskGraph()
        task_id = harness.declare_compile(graph, name)
        results = harness.execute(graph, parallel=args.parallel)
        result = results[task_id]
        run = harness._runs[name]
        payload["run"] = {"outputs_match": run.functional_outputs_match(), **result.summary_dict()}
        # Volatile by design (cold vs warm runs differ); only under --run.
        payload["task_stats"] = harness.last_stats
        extra_text.append(result.report())
    elif args.sweep:
        if args.sweep == "latency":
            data = experiments.figure_6_5(harness, parallel=args.parallel)
        elif args.sweep == "depth":
            data = experiments.figure_6_6(harness, parallel=args.parallel)
        else:
            data = experiments.split_sweep(name, harness, parallel=args.parallel)
        payload["sweep"] = {k: v for k, v in data.items() if k != "table"}
        extra_text.append(data["table"])
    elif args.explore:
        from repro.explore.driver import ExplorationDriver

        driver = ExplorationDriver(
            harness, name, strategy="random", budget=args.budget, seed=0, jobs=args.parallel
        )
        result = driver.run()
        payload["explore"] = result.to_json_dict()
        extra_text.append(_explore_text(result))

    if args.json:
        if len(payload) == 1:
            # Plain ingest: the bare report document (CI diffs these bytes).
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format_text())
        for block in extra_text:
            print()
            print(block)
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    """``repro difftest``: assert interp/sim output agreement per workload."""
    from repro.core.report import format_result_table
    from repro.ingest import load_corpus
    from repro.ingest.difftest import CONFIGS, difftest_workload
    from repro.workloads import all_workloads, get_workload

    harness = _make_harness(args, benchmarks=[])
    corpus_dir = args.corpus
    if corpus_dir is None and os.path.isdir("tests/corpus"):
        corpus_dir = "tests/corpus"
    if corpus_dir and corpus_dir != "none" and os.path.isdir(corpus_dir):
        reports = load_corpus(corpus_dir, harness=harness)
        print(f"loaded {len(reports)} corpus workload(s) from {corpus_dir}", file=sys.stderr)

    if args.target == "all":
        names = [w.name for w in all_workloads()]
    else:
        get_workload(args.target)  # fail fast with the registry's error
        names = [args.target]

    outcomes = [difftest_workload(harness, name) for name in names]
    ok = all(o.ok for o in outcomes)

    if args.json:
        print(
            json.dumps(
                {"ok": ok, "workloads": [o.to_dict() for o in outcomes]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        labels = [label for label, _ in CONFIGS]
        rows = [
            [o.workload, o.origin, o.events, o.outputs]
            + ["pass" if o.configs.get(label) else "FAIL" for label in labels]
            for o in outcomes
        ]
        print(
            format_result_table(
                ["workload", "origin", "events", "outputs"] + labels,
                rows,
                title=f"differential test: interpreter vs timing replay ({len(outcomes)} workloads)",
            )
        )
        for outcome in outcomes:
            for failure in outcome.failures:
                print(f"FAIL {outcome.workload}: {failure}")
    return 0 if ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.eval.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir or None)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"cache root     : {stats['root']}")
            print(f"entries        : {stats['entries']}")
            print(f"total size     : {stats['total_bytes'] / (1024 * 1024):.1f} MiB")
            print(f"schema version : {stats['schema_version']}")
    elif args.action == "prune":
        if args.max_bytes is None:
            raise ReproError("cache prune requires --max-bytes (e.g. --max-bytes 100M)")
        summary = cache.prune(_parse_size(args.max_bytes))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"pruned {summary['removed_entries']} entries "
                f"({summary['freed_bytes'] / (1024 * 1024):.1f} MiB) from {summary['root']}; "
                f"{summary['remaining_entries']} entries "
                f"({summary['remaining_bytes'] / (1024 * 1024):.1f} MiB) remain"
            )
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    """Print the full report task graph without executing any of it."""
    from repro.eval import experiments
    from repro.eval.taskgraph import TaskGraph
    from repro.workloads import get_workload

    harness = _make_harness(args)
    graph = TaskGraph()
    artefacts = experiments.declare_report(graph, harness)
    order = graph.topological_order()
    counts: Dict[str, int] = {}
    for task in order:
        counts[task.kind] = counts.get(task.kind, 0) + 1
    if args.json:
        payload = {
            "benchmarks": harness.benchmark_names,
            "artefacts": artefacts,
            "tasks": [
                {
                    "id": task.task_id,
                    "kind": task.kind,
                    "key": task.key,
                    "deps": list(task.deps),
                    **(
                        {"source_digest": get_workload(task.workload).source_digest()}
                        if task.kind == "compile"
                        else {}
                    ),
                }
                for task in order
            ],
            "counts": counts,
            "edges": graph.edge_count(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for task in order:
        key = (task.key or "")[:12]
        deps = ", ".join(task.deps) if task.deps else "-"
        if task.kind == "compile":
            deps = f"src={get_workload(task.workload).source_digest()[:12]}"
        print(f"{task.kind:10s} {key:12s} {task.task_id}  <- {deps}")
    sweep_points = counts.get("runtime", 0) + counts.get("split", 0)
    print(
        f"\n{len(order)} tasks ({counts.get('compile', 0)} compile, {sweep_points} sweep points, "
        f"{counts.get('explore', 0)} explore points, "
        f"{counts.get('aggregate', 0)} aggregates), {graph.edge_count()} dependency edges"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render a JSONL span file as a tree or Gantt view,
    analyse it, or export it as a chrome://tracing document."""
    from repro.obs import render as obs_render

    try:
        spans = obs_render.load_spans(args.file)
    except OSError as exc:
        raise ReproError(f"cannot read trace file '{args.file}': {exc}") from exc
    if not spans:
        raise ReproError(
            f"'{args.file}' contains no spans — capture one with "
            "REPRO_TRACE=trace.jsonl repro report ..."
        )
    if args.chrome:
        document = obs_render.render_chrome(spans, trace_id=args.trace_id)
        try:
            Path(args.chrome).write_text(json.dumps(document, indent=1), encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot write '{args.chrome}': {exc}") from exc
        print(f"wrote {args.chrome} (open in chrome://tracing or Perfetto)", file=sys.stderr)
        return 0
    if args.summary or args.critical_path:
        from repro.obs import analyze as obs_analyze

        if args.json:
            payload: Dict[str, Any] = {}
            if args.summary:
                payload["summary"] = obs_analyze.summarize(spans)
                payload["scheduler_overhead"] = obs_analyze.scheduler_overhead(spans)
            if args.critical_path:
                payload["critical_path"] = obs_analyze.critical_path(
                    spans, trace_id=args.trace_id
                )
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        parts = []
        if args.summary:
            parts.append(obs_analyze.render_summary(spans))
        if args.critical_path:
            parts.append(obs_analyze.render_critical_path(spans, trace_id=args.trace_id))
        print("\n\n".join(parts))
        return 0
    if args.gantt:
        print(obs_render.render_gantt(spans, trace_id=args.trace_id))
    else:
        print(obs_render.render_tree(spans, trace_id=args.trace_id))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """``repro history``: inspect the persistent run ledger, flag regressions."""
    path = obs_history.history_path(args.history)
    if path is None:
        raise ReproError("run history is disabled (REPRO_HISTORY=0)")
    runs = obs_history.load_runs(path)
    if args.action == "check":
        regressions = obs_history.check_regressions(
            runs,
            window=args.window,
            threshold=args.threshold,
            command=args.command,
        )
        if args.json:
            print(json.dumps({"regressions": regressions}, indent=2, sort_keys=True))
        else:
            print(obs_history.render_regressions(regressions))
        return 1 if regressions else 0
    if not runs:
        raise ReproError(
            f"no run history at {path} — run 'repro report' or pass --history DIR"
        )
    if args.action == "show":
        if args.json:
            shown = runs[-args.limit :] if args.limit else runs
            print(json.dumps({"runs": shown}, indent=2, sort_keys=True))
        else:
            print(obs_history.render_show(runs, limit=args.limit))
        return 0
    # trend
    if args.json:
        series = obs_history.metric_series(runs, command=args.command)
        print(json.dumps({"series": series}, indent=2, sort_keys=True))
    else:
        print(obs_history.render_trend(runs, command=args.command))
    if args.svg_dir:
        from repro.viz.trend import trend_chart

        out_dir = Path(args.svg_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        series = obs_history.metric_series(runs, command=args.command)
        written = 0
        for metric, values in sorted(series.items()):
            if len(values) < 2:
                continue
            svg = trend_chart(metric, values, command=args.command or "all")
            name = f"{args.command or 'all'}_{metric}.svg"
            (out_dir / name).write_text(svg)
            written += 1
        print(f"wrote {written} trend SVG(s) to {out_dir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--benchmarks",
        metavar="A,B,...",
        help="comma-separated workload subset (default: all eight kernels)",
    )
    common.add_argument(
        "--parallel",
        "--jobs",
        "-j",
        dest="parallel",
        type=int,
        metavar="N",
        help="execute up to N ready task-graph nodes concurrently (process pool)",
    )
    common.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact cache directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    common.add_argument("--no-cache", action="store_true", help="disable the on-disk artifact cache")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--markdown", action="store_true", help="emit GitHub-flavoured markdown tables")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Twill thesis evaluation: compile, simulate and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[common], help="list the registered workloads").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", parents=[common], help="compile + simulate one workload")
    p_run.add_argument("workload", help="workload name (see 'repro list')")
    p_run.add_argument(
        "--sw-fraction",
        type=float,
        metavar="F",
        help="re-partition with this targeted software share instead of the default report",
    )
    p_run.set_defaults(func=_cmd_run)

    p_profile = sub.add_parser(
        "profile",
        parents=[common],
        help="compile + simulate one workload and print per-stage wall-clock times",
    )
    p_profile.add_argument(
        "workload", nargs="?", help="workload name (see 'repro list'); omit with --from"
    )
    p_profile.add_argument(
        "--from",
        dest="from_file",
        metavar="PROFILE.jsonl",
        help=(
            "analyse an existing sampled-profile file (written by running any "
            "command with REPRO_PROFILE=PROFILE.jsonl) instead of compiling"
        ),
    )
    p_profile.add_argument(
        "--flame",
        metavar="FILE.svg",
        help="render the sampled call stacks as a flamegraph SVG ('-' for stdout)",
    )
    p_profile.add_argument(
        "--collapsed",
        metavar="FILE.txt",
        help="write collapsed-stack lines ('frame;frame count') for external tools",
    )
    p_profile.add_argument(
        "--hz",
        type=int,
        metavar="N",
        help="sampling frequency for --flame/--collapsed (default: 97)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_sweep = sub.add_parser("sweep", parents=[common], help="queue latency/depth and split-point sweeps")
    p_sweep.add_argument("kind", choices=["latency", "depth", "split"])
    p_sweep.add_argument("--workload", help="workload for the split sweep (default: mips)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = sub.add_parser("table", parents=[common], help="regenerate one thesis table")
    p_table.add_argument("id", choices=sorted(TABLES))
    p_table.set_defaults(func=_cmd_table)

    p_figure = sub.add_parser("figure", parents=[common], help="regenerate one thesis figure")
    p_figure.add_argument("id", choices=sorted(FIGURES))
    p_figure.add_argument(
        "--svg",
        metavar="FILE",
        help="render the figure as a standalone SVG chart to FILE ('-' for stdout)",
    )
    p_figure.set_defaults(func=_cmd_figure)

    p_report = sub.add_parser("report", parents=[common], help="every table + figure + §6.7 summary")
    p_report.add_argument(
        "--html",
        metavar="DIR",
        help=(
            "write a single self-contained report.html (all figures as inline "
            "SVG + tables + run metadata) into DIR instead of printing tables"
        ),
    )
    p_report.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help=(
            "diff this run figure-by-figure against a saved "
            "'repro report --json' payload (per-cell delta table + "
            "changed-artefact flags)"
        ),
    )
    p_report.set_defaults(func=_cmd_report)

    p_explore = sub.add_parser(
        "explore",
        parents=[common],
        help="design-space exploration: search partition/config candidates for Pareto-optimal trade-offs",
    )
    p_explore.add_argument(
        "workload", help="workload name (see 'repro list'), or 'all' for the whole benchmark set"
    )
    p_explore.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="annealing",
        help="search strategy (default: annealing)",
    )
    p_explore.add_argument(
        "--budget",
        type=int,
        default=32,
        metavar="N",
        help="maximum number of unique candidates to evaluate (default: 32)",
    )
    p_explore.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="K",
        help="RNG seed; same seed + budget reproduces the search exactly (default: 0)",
    )
    p_explore.set_defaults(func=_cmd_explore)

    p_ingest = sub.add_parser(
        "ingest",
        parents=[common],
        help="ingest a raw .c file as a first-class workload (docs/INGESTION.md)",
    )
    p_ingest.add_argument("file", metavar="FILE.c", help="C source file to ingest")
    p_ingest.add_argument(
        "--name",
        help="workload name to register under (default: derived from the file name)",
    )
    ingest_action = p_ingest.add_mutually_exclusive_group()
    ingest_action.add_argument(
        "--run",
        action="store_true",
        help="also compile + simulate the ingested workload through the task graph",
    )
    ingest_action.add_argument(
        "--sweep",
        choices=["latency", "depth", "split"],
        help="also run the named sensitivity sweep on the ingested workload",
    )
    ingest_action.add_argument(
        "--explore",
        action="store_true",
        help="also run a small random design-space exploration on the ingested workload",
    )
    p_ingest.add_argument(
        "--budget",
        type=int,
        default=8,
        metavar="N",
        help="exploration budget for --explore (default: 8)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_difftest = sub.add_parser(
        "difftest",
        parents=[common],
        help="differential test: interpreter vs timing-simulator output agreement",
    )
    p_difftest.add_argument(
        "target", help="workload name, or 'all' for every registered + corpus workload"
    )
    p_difftest.add_argument(
        "--corpus",
        metavar="DIR",
        help="corpus directory to ingest first (default: tests/corpus if present; 'none' to skip)",
    )
    p_difftest.set_defaults(func=_cmd_difftest)

    p_graph = sub.add_parser(
        "graph", parents=[common], help="print the report task graph without executing it"
    )
    p_graph.set_defaults(func=_cmd_graph)

    p_cache = sub.add_parser(
        "cache",
        parents=[common],
        help="inspect, clear, or LRU-prune the artifact cache",
    )
    p_cache.add_argument("action", choices=["stats", "clear", "prune"])
    p_cache.add_argument(
        "--max-bytes",
        metavar="SIZE",
        help="prune target size for 'prune' (accepts K/M/G suffixes, e.g. 100M)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser(
        "trace",
        parents=[common],
        help="render a JSONL span trace captured via $REPRO_TRACE",
    )
    p_trace.add_argument(
        "file", metavar="TRACE.jsonl", help="span file written by a traced run"
    )
    p_trace.add_argument(
        "--gantt",
        action="store_true",
        help="per-worker Gantt view instead of the default span tree",
    )
    p_trace.add_argument(
        "--trace-id", metavar="ID", help="show only the trace with this id"
    )
    p_trace.add_argument(
        "--summary",
        action="store_true",
        help="per-kind span statistics (count, total, self time, p50/p95) + scheduler overhead",
    )
    p_trace.add_argument(
        "--critical-path",
        action="store_true",
        help="longest dependency chain through the trace with per-hop attribution",
    )
    p_trace.add_argument(
        "--chrome",
        metavar="OUT.json",
        help="export the spans as Chrome Trace Event JSON (one lane per worker)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_history = sub.add_parser(
        "history",
        parents=[common],
        help="inspect the persistent run history and flag performance regressions",
    )
    p_history.add_argument("action", choices=["show", "trend", "check"])
    p_history.add_argument(
        "--history",
        metavar="DIR",
        help=f"history directory (default: $REPRO_HISTORY or ./{obs_history.HISTORY_DIR})",
    )
    p_history.add_argument(
        "--command",
        metavar="NAME",
        help="restrict to records of one command (report, explore, bench_report, ...)",
    )
    p_history.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="most-recent records to show (default: 20)",
    )
    p_history.add_argument(
        "--svg-dir",
        metavar="DIR",
        help="with 'trend': also write one line-chart SVG per metric into DIR",
    )
    p_history.add_argument(
        "--window",
        type=int,
        default=obs_history.DEFAULT_WINDOW,
        metavar="N",
        help=(
            "with 'check': rolling-median baseline window "
            f"(default: {obs_history.DEFAULT_WINDOW})"
        ),
    )
    p_history.add_argument(
        "--threshold",
        type=float,
        default=obs_history.DEFAULT_THRESHOLD,
        metavar="X",
        help=(
            "with 'check': flag metrics slower than X times the baseline "
            f"(default: {obs_history.DEFAULT_THRESHOLD})"
        ),
    )
    p_history.set_defaults(func=_cmd_history)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if _profile_sink():
        from repro.obs import profile as obs_profile

        obs_profile.maybe_start(service="cli")
    try:
        return args.func(args)
    except ReproError as exc:
        # Bad input (unknown workload, --sw-fraction out of [0, 1], ...)
        # surfaces as the pipeline's own exception types; report them without
        # a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The scheduler has already terminated its pool and swept in-flight
        # lock files; 130 = SIGINT.
        # Flush open spans so an interrupted $REPRO_TRACE file stays parseable.
        from repro.obs import tracing as obs_tracing

        obs_tracing.shutdown()
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
