"""Self-contained HTML report assembler (``repro report --html``).

:func:`build_report_html` takes the artefact dictionaries produced by
:mod:`repro.eval.experiments`, the already-rendered figure SVGs, and the
run's metadata, and emits one ``report.html`` with **no external assets**:
styles are embedded, figures are inline SVG, and the only fonts named are
the viewer's system stack.  The document carries:

* the §6.7 headline numbers as stat tiles (measured beside the paper's);
* every rendered figure with its caption — including the design-space
  exploration pair (frontier scatter + search-progress line);
* the exploration section's best-found-configuration table;
* Tables 6.1 and 6.2 plus the summary as real HTML tables;
* run metadata — configuration hash, benchmark set, and the scheduler's
  cache-hit statistics (a warm run shows zero executed render tasks);
* optionally, when the run was observed (``$REPRO_TRACE`` /
  ``$REPRO_PROFILE`` / ``$REPRO_HISTORY``), the per-worker span timeline,
  a trace-analytics card (per-kind statistics + critical path + scheduler
  overhead), a sampled CPU-profile flamegraph, and run-history trend
  charts;
* the raw artefact data as an embedded JSON island (``<script
  type="application/json">`` — data, never executed), so scripted
  consumers parse the numbers without scraping table markup;
* links to the per-benchmark drill-down pages
  (:func:`build_benchmark_page`) written beside it.

"Self-contained" means **no external assets and no executable
scripts** — the JSON islands are inert data (browsers do not run
``application/json``), and ``tools/check_report_html.py`` enforces that
no other ``<script`` form ever appears.  Everything except the
(explicitly opt-in) telemetry cards is a pure function of the artefact
data: no clocks, no hostnames, no versions — so repeated warm runs, and
serial vs parallel runs, produce byte-identical documents.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.core.report import format_cell
from repro.viz import theme
from repro.viz.charts import Span, timeline_chart
from repro.viz.figures import FIGURE_SPECS

#: Figure order in the document: the FIGURE_SPECS registry's own order
#: (thesis figures first, composites after) — one canonical list, so a
#: figure added to the registry can never be silently dropped here.
FIGURE_ORDER = tuple(FIGURE_SPECS)

#: §6.7 headline metrics shown as stat tiles: (key, label, paper key).
_SUMMARY_TILES = (
    ("mean_speedup_vs_sw", "Twill speedup vs pure SW", "paper_speedup_vs_sw"),
    ("mean_speedup_vs_hw", "Twill speedup vs pure HW", "paper_speedup_vs_hw"),
    ("mean_hw_area_reduction", "HW-thread area reduction", "paper_hw_area_reduction"),
    ("mean_total_area_increase", "Total area increase", "paper_total_area_increase"),
)

#: Tables embedded as HTML, in order: (artefact key, fallback heading).
_TABLE_ARTEFACTS = (
    ("table_6.1", "Table 6.1"),
    ("table_6.2", "Table 6.2"),
    ("summary", "Results overview (§6.7)"),
)


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def embed_json(payload: Any, element_id: str) -> str:
    """*payload* as an inert ``<script type="application/json">`` island.

    Browsers never execute ``application/json`` content, so the report's
    no-active-content guarantee holds; ``</`` is escaped so the payload
    can never close the element early, and keys are sorted so the island
    is as deterministic as the rest of the document.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return (
        f'<script type="application/json" id="{_esc(element_id)}">'
        + text.replace("</", "<\\/")
        + "</script>"
    )


def benchmark_rows(
    artefacts: Dict[str, Dict], benchmark: str
) -> Dict[str, List[Dict[str, Any]]]:
    """``artefact key -> rows`` restricted to *benchmark*.

    Most artefacts carry a ``benchmark`` column per row; the split-figure
    artefacts (6.3/6.4) are single-benchmark and carry the name at the
    top level instead.  Artefacts with no matching rows are omitted.
    """
    out: Dict[str, List[Dict[str, Any]]] = {}
    for key, data in artefacts.items():
        if not isinstance(data, dict):
            continue
        rows = data.get("rows")
        if not rows:
            continue
        if isinstance(data.get("benchmark"), str):
            if data["benchmark"] == benchmark:
                out[key] = [dict(row) for row in rows]
            continue
        matched = [dict(row) for row in rows if row.get("benchmark") == benchmark]
        if matched:
            out[key] = matched
    return out


def _css() -> str:
    """The document stylesheet (light + dark), from the shared theme."""
    light, dark = 0, 1
    return f"""
:root {{ color-scheme: light dark; }}
body {{
  margin: 0; padding: 32px 20px 48px;
  background: {theme.PAGE[light]}; color: {theme.INK_PRIMARY[light]};
  font-family: {theme.FONT_STACK}; font-size: 15px; line-height: 1.5;
}}
main {{ max-width: 880px; margin: 0 auto; }}
h1 {{ font-size: 26px; margin: 0 0 4px; }}
h2 {{ font-size: 18px; margin: 36px 0 6px; }}
p.caption, p.subtitle {{ color: {theme.INK_SECONDARY[light]}; margin: 0 0 12px; }}
section.card {{
  background: {theme.SURFACE[light]}; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 10px; padding: 16px 18px; margin: 14px 0;
}}
section.card svg {{ max-width: 100%; height: auto; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin: 18px 0; }}
.tile {{
  flex: 1 1 180px; background: {theme.SURFACE[light]};
  border: 1px solid rgba(11,11,11,0.10); border-radius: 10px; padding: 12px 16px;
}}
.tile .label {{ font-size: 13px; color: {theme.INK_SECONDARY[light]}; }}
.tile .value {{ font-size: 30px; font-weight: 600; }}
.tile .paper {{ font-size: 12px; color: {theme.INK_MUTED[light]}; }}
table.data {{ border-collapse: collapse; width: 100%; font-size: 13px; }}
table.data th, table.data td {{
  padding: 5px 10px; border-bottom: 1px solid {theme.GRIDLINE[light]}; text-align: left;
}}
table.data th {{ color: {theme.INK_SECONDARY[light]}; font-weight: 600; }}
table.data td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
table.meta {{ font-size: 13px; border-collapse: collapse; }}
table.meta th {{ text-align: left; padding: 2px 14px 2px 0; color: {theme.INK_SECONDARY[light]};
  font-weight: 600; vertical-align: top; white-space: nowrap; }}
table.meta td {{ padding: 2px 0; font-variant-numeric: tabular-nums; overflow-wrap: anywhere; }}
footer {{ margin-top: 36px; font-size: 12px; color: {theme.INK_MUTED[light]}; }}
code {{ font-size: 13px; }}
@media (prefers-color-scheme: dark) {{
  body {{ background: {theme.PAGE[dark]}; color: {theme.INK_PRIMARY[dark]}; }}
  p.caption, p.subtitle, .tile .label, table.data th, table.meta th
    {{ color: {theme.INK_SECONDARY[dark]}; }}
  section.card, .tile {{ background: {theme.SURFACE[dark]}; border-color: rgba(255,255,255,0.10); }}
  table.data th, table.data td {{ border-bottom-color: {theme.GRIDLINE[dark]}; }}
  .tile .paper, footer {{ color: {theme.INK_MUTED[dark]}; }}
}}
"""


def html_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Rows-of-dicts → an HTML table (all columns, numerics right-aligned)."""
    if not rows:
        return "<p>(no rows)</p>"
    headers = list(rows[0].keys())
    out: List[str] = ['<table class="data">', "<thead><tr>"]
    for header in headers:
        out.append(f"<th>{_esc(header)}</th>")
    out.append("</tr></thead>")
    out.append("<tbody>")
    for row in rows:
        out.append("<tr>")
        for header in headers:
            value = row.get(header, "")
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            cell = _esc(format_cell(value))
            out.append(f'<td class="num">{cell}</td>' if numeric else f"<td>{cell}</td>")
        out.append("</tr>")
    out.append("</tbody></table>")
    return "\n".join(out)


def _metadata_rows(metadata: Dict[str, Any]) -> List[str]:
    """The run-metadata table body, in a fixed, documented order."""
    out: List[str] = []

    def row(label: str, value: str) -> None:
        out.append(f"<tr><th>{_esc(label)}</th><td>{value}</td></tr>")

    if "config_hash" in metadata:
        row("configuration hash", f"<code>{_esc(metadata['config_hash'])}</code>")
    if "benchmarks" in metadata:
        row("benchmark set", _esc(", ".join(metadata["benchmarks"])))
    if metadata.get("cache"):
        row("artifact cache", f"<code>{_esc(metadata['cache'])}</code>")
    stats = metadata.get("scheduler") or {}
    if stats:
        executed = stats.get("executed") or {}
        executed_total = sum(executed.values())
        row(
            "task graph",
            _esc(
                f"{stats.get('total', 0)} tasks: {stats.get('cache_hits', 0)} cache hits, "
                f"{stats.get('seeded', 0)} seeded, {executed_total} executed"
            ),
        )
        renders = executed.get("render", 0)
        hits = stats.get("cache_hit_kinds", {}).get("render", 0)
        row("figure renders", _esc(f"{renders} rendered, {hits} from cache"))
    timings = metadata.get("stage_timings") or {}
    if timings:
        parts = [
            f"{name} {entry['seconds']:.3f}s/{entry['calls']}"
            for name, entry in timings.items()
        ]
        row("stage timings (s/calls)", _esc(", ".join(parts)))
    return out


def _stat_tiles(summary: Dict[str, Any]) -> str:
    tiles: List[str] = ['<div class="tiles">']
    for key, label, paper_key in _SUMMARY_TILES:
        if key not in summary:
            continue
        tiles.append(
            '<div class="tile">'
            f'<div class="label">{_esc(label)}</div>'
            f'<div class="value">{summary[key]:.2f}&times;</div>'
            f'<div class="paper">paper: {summary.get(paper_key, 0):.2f}&times;</div>'
            "</div>"
        )
    tiles.append("</div>")
    return "\n".join(tiles)


def _analytics_section(analytics: Dict[str, Any]) -> List[str]:
    """The trace-analytics card: per-kind summary, critical path, overhead."""
    parts: List[str] = ['<section class="card" id="trace-analytics">']
    parts.append("<h2>Trace analytics</h2>")
    parts.append(
        '<p class="caption">Computed from the <code>$REPRO_TRACE</code> spans '
        "above: where the wall-clock time of this run went.</p>"
    )
    summary = analytics.get("summary") or []
    if summary:
        rows = [
            {
                "kind": row["kind"],
                "count": row["count"],
                "total (s)": round(row["total_seconds"], 3),
                "self (s)": round(row["self_seconds"], 3),
                "p50 (s)": round(row["p50_seconds"], 3),
                "p95 (s)": round(row["p95_seconds"], 3),
            }
            for row in summary
        ]
        parts.append(html_table(rows))
    path = analytics.get("critical_path") or {}
    hops = path.get("hops") or []
    if hops:
        coverage = path.get("coverage", 0.0)
        parts.append(
            f"<h2>Critical path — {len(hops)} hops, "
            f"{path.get('path_seconds', 0.0):.3f}s of "
            f"{path.get('window_seconds', 0.0):.3f}s window "
            f"({coverage * 100.0:.0f}% coverage)</h2>"
        )
        parts.append("<ol>")
        for hop in hops:
            parts.append(
                f"<li><code>{_esc(hop['name'])}</code> "
                f"[{_esc(hop['kind'])}] {hop['duration_seconds']:.3f}s "
                f"(self {hop['self_seconds']:.3f}s, lane {_esc(hop['lane'])})</li>"
            )
        parts.append("</ol>")
    overhead = analytics.get("overhead") or {}
    if overhead.get("runs"):
        parts.append(
            '<p class="caption">Scheduler overhead: '
            f"{overhead.get('overhead_seconds', 0.0):.3f}s of "
            f"{overhead.get('total_seconds', 0.0):.3f}s scheduling "
            f"({overhead.get('overhead_fraction', 0.0) * 100.0:.1f}% not covered "
            "by task or stage spans).</p>"
        )
    parts.append("</section>")
    return parts


def _profile_section(profile: Dict[str, Any]) -> List[str]:
    """The CPU-profile card: flamegraph plus the hottest leaf frames."""
    parts: List[str] = ['<section class="card" id="profile">']
    parts.append("<h2>CPU profile</h2>")
    parts.append(
        '<p class="caption">Sampled call stacks from this run '
        f"(<code>$REPRO_PROFILE</code>, {profile.get('samples', 0)} samples at "
        f"{profile.get('hz', 0)}&nbsp;Hz); widths are inclusive sample counts.</p>"
    )
    parts.append(str(profile.get("svg", "")).rstrip("\n"))
    top = profile.get("top") or []
    if top:
        rows = [
            {
                "frame": entry["frame"],
                "samples": entry["samples"],
                "share": f"{entry['fraction'] * 100.0:.1f}%",
            }
            for entry in top
        ]
        parts.append(html_table(rows))
    parts.append("</section>")
    return parts


def _trends_section(trends: Sequence[Dict[str, Any]]) -> List[str]:
    """The run-history card: one trend chart (or sparkline) per metric."""
    parts: List[str] = ['<section class="card" id="trends">']
    parts.append("<h2>Run history trends</h2>")
    parts.append(
        '<p class="caption">Prior <code>repro report</code> runs from the '
        "<code>$REPRO_HISTORY</code> ledger; see <code>repro history "
        "{trend,check}</code> for the full series and regression gating.</p>"
    )
    for entry in trends:
        parts.append(str(entry.get("svg", "")).rstrip("\n"))
    parts.append("</section>")
    return parts


def build_benchmark_page(
    benchmark: str,
    artefacts: Dict[str, Dict],
    metadata: Dict[str, Any],
) -> str:
    """One benchmark's drill-down document (``benchmark-<name>.html``).

    Written beside ``report.html`` by ``repro report --html``: every
    artefact row that mentions *benchmark*, grouped under the parent
    artefact's own heading, plus the same rows as an embedded JSON island
    (``id="benchmark-data"``) for scripted consumers.  Same contract as
    the main report: deterministic, no external assets, no executable
    scripts.
    """
    rows_by_artefact = benchmark_rows(artefacts, benchmark)
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>',
        f"<title>{_esc(benchmark)} — benchmark drill-down</title>",
        f"<style>{_css()}</style>",
        "</head>",
        "<body>",
        "<main>",
        f"<h1>{_esc(benchmark)} — benchmark drill-down</h1>",
        '<p class="subtitle">Every evaluation metric for this benchmark, '
        'pulled from the same artefacts as the '
        '<a href="report.html">full report</a>.</p>',
    ]
    if not rows_by_artefact:
        parts.append(f"<p>(no artefact rows mention {_esc(benchmark)})</p>")
    for key, rows in rows_by_artefact.items():
        heading = (artefacts[key].get("table") or key).splitlines()[0]
        parts.append(f'<section class="card" id="{_esc(key)}">')
        parts.append(f"<h2>{_esc(heading)}</h2>")
        parts.append(html_table(rows))
        parts.append("</section>")
    parts.append(
        embed_json(
            {
                "benchmark": benchmark,
                "config_hash": metadata.get("config_hash"),
                "artefacts": rows_by_artefact,
            },
            "benchmark-data",
        )
    )
    parts.append(
        "<footer>Generated by <code>repro report --html</code>. "
        "Self-contained: no external assets, no executable scripts.</footer>"
    )
    parts.append("</main>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"


def build_report_html(
    artefacts: Dict[str, Dict],
    figures: Dict[str, str],
    metadata: Dict[str, Any],
    obs_spans: Optional[Sequence[Span]] = None,
    analytics: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    trends: Optional[Sequence[Dict[str, Any]]] = None,
    benchmark_pages: Optional[Sequence[str]] = None,
) -> str:
    """Assemble the complete, self-contained report document."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>',
        "<title>Twill reproduction — evaluation report</title>",
        f"<style>{_css()}</style>",
        "</head>",
        "<body>",
        "<main>",
        "<h1>Twill reproduction — evaluation report</h1>",
        '<p class="subtitle">Every table and figure of thesis Chapter 6, '
        "regenerated from the checked-in compiler and simulator.</p>",
    ]

    summary = artefacts.get("summary")
    if summary:
        parts.append(_stat_tiles(summary))

    if benchmark_pages:
        links = " &middot; ".join(
            f'<a href="benchmark-{_esc(name)}.html">{_esc(name)}</a>'
            for name in benchmark_pages
        )
        parts.append('<section class="card" id="benchmarks">')
        parts.append("<h2>Per-benchmark drill-down</h2>")
        parts.append(
            '<p class="caption">One page per benchmark with every metric row '
            "that mentions it, plus the raw rows as embedded JSON: "
            f"{links}</p>"
        )
        parts.append("</section>")

    parts.append('<section class="card" id="metadata">')
    parts.append("<h2>Run metadata</h2>")
    parts.append('<table class="meta"><tbody>')
    parts.extend(_metadata_rows(metadata))
    parts.append("</tbody></table>")
    parts.append("</section>")

    for figure_id in FIGURE_ORDER:
        markup = figures.get(figure_id)
        if not markup:
            continue
        spec = FIGURE_SPECS[figure_id]
        parts.append(f'<section class="card" id="figure-{_esc(figure_id)}">')
        parts.append(f"<h2>{_esc(spec.title)}</h2>")
        parts.append(f'<p class="caption">{_esc(spec.caption)}</p>')
        parts.append(markup.rstrip("\n"))
        parts.append("</section>")

    exploration = artefacts.get("exploration")
    if exploration and exploration.get("best_rows"):
        parts.append('<section class="card" id="exploration">')
        parts.append("<h2>Design-space exploration — best configurations found</h2>")
        sizes = exploration.get("frontier_sizes") or {}
        evaluated = exploration.get("evaluations_per_workload", 0)
        frontier_note = ", ".join(
            f"{workload}: {size} Pareto-optimal of {evaluated}" for workload, size in sizes.items()
        )
        parts.append(
            '<p class="caption">The report\'s embedded exhaustive search over '
            "split target &times; queue depth; the frontier scatter and search "
            f"curve above plot the same data ({_esc(frontier_note)}). "
            "Run <code>repro explore</code> for budgeted strategies over the "
            "full space.</p>"
        )
        parts.append(html_table(exploration["best_rows"]))
        parts.append("</section>")

    for artefact_key, fallback in _TABLE_ARTEFACTS:
        data = artefacts.get(artefact_key)
        if not data:
            continue
        heading = (data.get("table") or fallback).splitlines()[0]
        parts.append(f'<section class="card" id="{_esc(artefact_key)}">')
        parts.append(f"<h2>{_esc(heading)}</h2>")
        if data.get("rows"):
            parts.append(html_table(data["rows"]))
        else:
            # The summary has no rows list; show its scalar metrics.
            rows = [
                {"metric": key, "value": value}
                for key, value in data.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ]
            parts.append(html_table(rows))
        parts.append("</section>")

    if obs_spans:
        parts.append('<section class="card" id="obs-timeline">')
        parts.append("<h2>Telemetry span timeline</h2>")
        parts.append(
            '<p class="caption">Structured spans recorded by '
            "<code>$REPRO_TRACE</code> (see docs/OBSERVABILITY.md); one lane "
            "per worker or service, with harness, scheduler, cache and stage spans.</p>"
        )
        parts.append(timeline_chart(list(obs_spans)).rstrip("\n"))
        parts.append("</section>")

    if analytics and (analytics.get("summary") or analytics.get("critical_path")):
        parts.extend(_analytics_section(analytics))

    if profile and profile.get("svg"):
        parts.extend(_profile_section(profile))

    if trends:
        parts.extend(_trends_section(trends))

    if artefacts:
        # The numbers behind every table and figure, as inert data — a
        # scripted consumer gets the same payload `repro report --json`
        # prints, without re-running the evaluation or scraping markup.
        parts.append(
            embed_json(
                {
                    "config_hash": metadata.get("config_hash"),
                    "benchmarks": list(metadata.get("benchmarks") or []),
                    "artefacts": {
                        key: {k: v for k, v in data.items() if k != "table"}
                        for key, data in artefacts.items()
                    },
                },
                "report-data",
            )
        )

    parts.append("<footer>Generated by <code>repro report --html</code>. "
                 "Self-contained: no external assets, no executable scripts.</footer>")
    parts.append("</main>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"
