"""``repro profile / trace / history``: look at where the time went.

Per-stage timings and sampled flamegraphs (:mod:`repro.obs.profile`), the
span files ``$REPRO_TRACE`` writes (:mod:`repro.obs.render`,
:mod:`repro.obs.analyze`), and the run ledger with its regression check
(:mod:`repro.obs.history_query`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.errors import ReproError


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
    try:
        with perf.collect() as timings:
            result = compiler.compile_and_simulate(workload.source, name=workload.name)
    finally:
        # An armed ITIMER_PROF outliving its handler kills the process.
        if sampler is not None:
            sampler.stop()
    record = sampler.snapshot() if sampler is not None else None
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
    from repro.obs import history_query
    from repro.obs.history import history_path

    path = history_path(args.history)
    if path is None:
        raise ReproError("run history is disabled (REPRO_HISTORY=0)")
    runs = history_query.load_runs(path)
    if args.action == "check":
        regressions = history_query.check_regressions(
            runs,
            window=args.window,
            threshold=args.threshold,
            command=args.record_command,
        )
        if args.json:
            print(json.dumps({"regressions": regressions}, indent=2, sort_keys=True))
        else:
            print(history_query.render_regressions(regressions))
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
            print(history_query.render_show(runs, limit=args.limit))
        return 0
    # trend
    if args.json:
        series = history_query.metric_series(runs, command=args.record_command)
        print(json.dumps({"series": series}, indent=2, sort_keys=True))
    else:
        print(history_query.render_trend(runs, command=args.record_command))
    if args.svg_dir:
        from repro.viz.trend import trend_chart

        out_dir = Path(args.svg_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        series = history_query.metric_series(runs, command=args.record_command)
        written = 0
        for metric, values in sorted(series.items()):
            if len(values) < 2:
                continue
            svg = trend_chart(metric, values, command=args.record_command or "all")
            name = f"{args.record_command or 'all'}_{metric}.svg"
            (out_dir / name).write_text(svg)
            written += 1
        print(f"wrote {written} trend SVG(s) to {out_dir}", file=sys.stderr)
    return 0
