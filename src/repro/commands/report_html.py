"""``repro report --html``: write the self-contained ``report.html``.

Run metadata, the optional telemetry sections (``$REPRO_TRACE``,
``$REPRO_PROFILE``, an explicit ``$REPRO_HISTORY``) and one drill-down page
per benchmark, assembled by :mod:`repro.viz.report_html`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli import profile_sink
from repro.obs import history as obs_history


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
    if profile_sink():
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
        from repro.obs.history_query import load_runs, metric_series
        from repro.viz.trend import sparkline_svg, trend_chart

        runs = load_runs(history_file)
        series = metric_series(runs, command="report")
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
