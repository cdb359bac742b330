"""Tests of the rendering subsystem (``repro.viz``) and its task-graph wiring.

Three layers, cheapest first:

* pure unit tests of the SVG primitives, scales and chart forms on synthetic
  data — including a golden-file comparison pinning the engine's exact
  output bytes;
* figure-spec and HTML-assembly tests on synthetic result dicts (no
  compiles), asserting the report is self-contained;
* end-to-end determinism over the cheapest workload: byte-identical SVG and
  ``report.html`` across two warm runs, across serial vs ``--parallel``
  renders and without a cache, with a warm run computing no simulation.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.eval import renders
from repro.eval.harness import EvaluationHarness
from repro.viz import theme
from repro.viz.charts import ScatterPoint, Series, Span, grouped_bars, line_chart, scatter_chart, stacked_bars, timeline_chart
from repro.viz.figures import FIGURE_SPECS, render_figure
from repro.viz.report_html import build_report_html, html_table
from repro.viz.scales import BandScale, LinearScale, PointScale, nice_ticks
from repro.viz.svg import Element, fmt_num, render, text_width

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# SVG primitives and scales
# ---------------------------------------------------------------------------


def test_fmt_num_is_compact_and_deterministic():
    assert fmt_num(3) == "3"
    assert fmt_num(3.0) == "3"
    assert fmt_num(3.10) == "3.1"
    assert fmt_num(3.14159) == "3.14"
    assert fmt_num(-0.004) == "0"  # rounded -0 normalises
    assert fmt_num(True) == "1"


def test_element_rendering_escapes_and_orders_attributes():
    root = Element("g", {"class": "a", "x": 1.5})
    root.elem("text", {"x": 2}, text='<&> "quoted"')
    markup = render(root)
    assert '<g class="a" x="1.5">' in markup
    assert "&lt;&amp;&gt;" in markup
    assert render(root) == markup  # stable


def test_nice_ticks_bracket_the_domain():
    ticks = nice_ticks(0.0, 23.0)
    assert ticks[0] <= 0.0 and ticks[-1] >= 23.0
    assert ticks == sorted(ticks)
    # 1-2-5 stepped: the step is one of the nice multiples.
    step = round(ticks[1] - ticks[0], 9)
    assert step in (1.0, 2.0, 2.5, 5.0, 10.0)
    assert nice_ticks(0.0, 1.05)[0] == 0.0


def test_scales_map_endpoints():
    linear = LinearScale((0.0, 10.0), (100.0, 0.0))
    assert linear(0.0) == 100.0 and linear(10.0) == 0.0
    bands = BandScale(("a", "b"), (0.0, 100.0))
    assert 0.0 < bands.position(0) < bands.position(1) < 100.0
    assert bands.bandwidth > 0
    points = PointScale(("a", "b", "c"), (0.0, 90.0))
    assert points(0) < points(1) < points(2)


# ---------------------------------------------------------------------------
# chart forms (synthetic data)
# ---------------------------------------------------------------------------


def test_grouped_bars_matches_golden_file():
    markup = grouped_bars(
        ["alpha", "beta", "gamma"],
        [Series("measured", (1.0, 2.5, 0.75), 0), Series("paper", (1.2, 2.0, 1.0), 1)],
        title="Golden grouped bars",
        y_label="value",
        baseline=(1.0, "baseline"),
    )
    golden = (GOLDEN_DIR / "grouped_bars.svg").read_text(encoding="utf-8")
    assert markup == golden  # byte-identical run-to-run, release-to-release


def test_grouped_bars_carries_legend_tooltips_and_baseline():
    markup = grouped_bars(
        ["a"],
        [Series("x", (2.0,), 0), Series("y", (1.0,), 1)],
        title="t",
        y_label="v",
        baseline=(1.0, "ref"),
    )
    assert markup.count("<title>") == 2  # one native tooltip per bar
    assert "x" in markup and "y" in markup  # legend (>= 2 series)
    assert 'class="vz-ref"' in markup  # reference rule
    assert "vz-s0" in markup and "vz-s1" in markup


def test_stacked_bars_reference_legend_and_gaps():
    markup = stacked_bars(
        ["a", "b"],
        [Series("lower", (10.0, 20.0), 0), Series("upper", (5.0, 8.0), 2)],
        title="t",
        y_label="LUTs",
        reference=((18.0, 30.0), "total"),
    )
    assert "vz-s-1" not in markup  # placeholder swatch was rewritten
    assert markup.count('class="vz-ref"') >= 3  # legend key + one dash per bar
    assert "total" in markup


def test_line_chart_direct_labels_only_up_to_four_series():
    few = line_chart(
        ["2", "8"],
        [Series("one", (1.0, 0.9), 0), Series("two", (1.0, 0.8), 1)],
        title="t", y_label="y", x_axis_label="x",
    )
    assert 'class="vz-dlab"' in few  # end labels supplement the legend
    many = line_chart(
        ["2", "8"],
        [Series(f"s{i}", (1.0, 0.9), i) for i in range(8)],
        title="t", y_label="y", x_axis_label="x",
    )
    assert 'class="vz-dlab"' not in many  # legend alone carries identity
    assert many.count("<polyline") == 8


def test_scatter_chart_links_and_labels():
    markup = scatter_chart(
        [ScatterPoint(10.0, 1.0, 1, tooltip="a"), ScatterPoint(5.0, 2.0, 0, label="bench")],
        legend=[("twill", 0), ("legup", 1)],
        links=[(0, 1)],
        title="t", y_label="speed", x_axis_label="area",
    )
    assert 'class="vz-link"' in markup
    assert "bench" in markup and markup.count("<circle") == 2


def test_timeline_chart_lanes_and_kinds():
    markup = timeline_chart(
        [
            Span("compile:a", "compile", "pid:1", 0.0, 2.0),
            Span("sweep:x", "runtime", "pid:2", 1.0, 1.5),
            Span("render:6.1", "aggregate", "pid:1", 2.0, 2.2),
        ]
    )
    assert "pid:1" in markup and "pid:2" in markup
    assert ">compile<" in markup and ">aggregate<" in markup  # kind legend
    assert timeline_chart([]) == ""


# ---------------------------------------------------------------------------
# figure specs and HTML assembly (synthetic result dicts)
# ---------------------------------------------------------------------------


def _figure_6_1_data():
    return {
        "rows": [
            {"benchmark": "blowfish", "pure_sw": 1.0, "pure_hw": 0.6, "twill": 0.8},
            {"benchmark": "mips", "pure_sw": 1.0, "pure_hw": 0.5, "twill": 0.7},
        ]
    }


def test_render_figure_from_result_dict():
    markup = render_figure("6.1", _figure_6_1_data())
    assert markup.startswith("<svg")
    assert "blowfish" in markup and "mips" in markup
    assert render_figure("6.1", _figure_6_1_data()) == markup


def test_render_figure_unknown_id_fails_cleanly():
    with pytest.raises(ReproError, match="unknown figure"):
        render_figure("9.9", {"rows": []})


def test_figure_specs_cover_the_render_registry():
    assert set(FIGURE_SPECS) == set(renders.RENDER_FIGURE_IDS)
    assert set(renders.FIGURE_DATA_AGGREGATORS) == set(renders.RENDER_FIGURE_IDS)


def test_html_table_formats_and_aligns():
    markup = html_table([{"benchmark": "mips", "luts": 12345, "speedup": 3.14159, "note": "x"}])
    assert "<th>benchmark</th>" in markup
    assert '<td class="num">12,345</td>' in markup
    assert '<td class="num">3.14</td>' in markup
    assert "<td>x</td>" in markup


def test_report_html_is_self_contained():
    artefacts = {
        "summary": {
            "mean_speedup_vs_sw": 20.0, "paper_speedup_vs_sw": 22.2,
            "mean_speedup_vs_hw": 1.5, "paper_speedup_vs_hw": 1.63,
            "table": "Results overview (§6.7): measured vs paper",
        },
        "table_6.1": {"rows": [{"benchmark": "mips", "queues": 3}], "table": "Table 6.1 — x"},
    }
    figures = {"6.1": render_figure("6.1", _figure_6_1_data())}
    metadata = {
        "config_hash": "f" * 64,
        "benchmarks": ["blowfish", "mips"],
        "cache": ".repro_cache",
        "scheduler": {"total": 9, "cache_hits": 8, "seeded": 0,
                      "executed": {"aggregate": 1},
                      "cache_hit_kinds": {"compile": 2, "runtime": 6}},
    }
    document = build_report_html(artefacts, figures, metadata)
    assert 'id="figure-6.1"' in document and 'id="table_6.1"' in document
    assert "<th>simulations</th><td>0 computed, 8 from cache</td>" in document
    # Self-contained: no executable scripts, no external stylesheets, no
    # fetched assets.  The only <script allowed is the inert data island.
    assert "<script" not in document.replace('<script type="application/json"', "")
    assert "<link" not in document
    assert "src=" not in document
    assert "@import" not in document
    # The raw artefact numbers ride along as machine-readable JSON.
    assert 'id="report-data"' in document
    island = document.split('id="report-data">', 1)[1].split("</script>", 1)[0]
    payload = json.loads(island.replace("<\\/", "</"))
    assert payload["artefacts"]["table_6.1"]["rows"][0]["benchmark"] == "mips"
    # Deterministic: same inputs, same bytes.
    assert build_report_html(artefacts, figures, metadata) == document


def test_report_html_embeds_timeline_only_when_traced():
    figures = {"6.1": render_figure("6.1", _figure_6_1_data())}
    spans = [
        Span("compile:a", "compile", "pid:9", 0.0, 1.0),
        Span("replay", "stage:replay", "pid:9", 0.5, 0.9),
    ]
    with_trace = build_report_html({}, figures, {}, obs_spans=spans)
    without = build_report_html({}, figures, {})
    assert 'id="obs-timeline"' in with_trace and "pid:9" in with_trace
    assert ">other<" in with_trace  # stage spans share one legend entry
    assert 'id="obs-timeline"' not in without


def test_series_palette_has_eight_validated_slots():
    # Slot order is the CVD-safety mechanism; both modes cover 8 benchmarks.
    assert len(theme.SERIES_LIGHT) == len(theme.SERIES_DARK) == 8
    assert len(set(theme.SERIES_LIGHT)) == 8


# ---------------------------------------------------------------------------
# end-to-end determinism and caching (cheapest workload)
# ---------------------------------------------------------------------------


def test_figure_svg_renders_through_the_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = EvaluationHarness(benchmarks=["blowfish"], cache_dir=cache_dir)
    markup = renders.figure_svg("6.4", cold)
    assert markup.startswith("<svg") and "blowfish" in markup
    assert cold.last_stats["executed"]["compile"] == 1
    # Fresh harness, same cache: byte-identical, and only the parent-side
    # aggregates (the figure's rows and its drawing) run again.
    warm = EvaluationHarness(benchmarks=["blowfish"], cache_dir=cache_dir)
    assert renders.figure_svg("6.4", warm) == markup
    assert set(warm.last_stats["executed"]) == {"aggregate"}


def test_report_figures_serial_vs_parallel_byte_identical(tmp_path):
    serial = EvaluationHarness(benchmarks=["blowfish"], cache_dir=str(tmp_path / "c1"))
    artefacts_serial, figures_serial = renders.run_report_figures(serial)
    parallel = EvaluationHarness(benchmarks=["blowfish"], cache_dir=str(tmp_path / "c2"))
    artefacts_parallel, figures_parallel = renders.run_report_figures(parallel, parallel=2)
    assert figures_serial == figures_parallel
    assert artefacts_serial == artefacts_parallel
    assert serial.last_stats == parallel.last_stats  # scheduling-invariant
    # The mips split figure is excluded by the benchmark restriction.
    assert "6.3" not in figures_serial
    assert set(figures_serial) == {
        "6.1", "6.2", "6.4", "6.5", "6.6", "area", "pareto", "explore", "explore-progress",
    }


def test_no_cache_runs_still_render(tmp_path):
    harness = EvaluationHarness(benchmarks=["blowfish"], use_cache=False)
    markup = renders.figure_svg("6.4", harness)
    assert markup.startswith("<svg") and "blowfish" in markup


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


def run_cli(argv, tmp_path, capsys):
    code = main(list(argv) + ["--cache-dir", str(tmp_path / "cache")])
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_figure_svg_writes_standalone_file(tmp_path, capsys):
    target = tmp_path / "figure_6_4.svg"
    code, out, err = run_cli(["figure", "6.4", "--svg", str(target)], tmp_path, capsys)
    assert code == 0
    assert str(target) in err and out == ""
    markup = target.read_text(encoding="utf-8")
    assert markup.startswith("<svg") and "blowfish" in markup
    # '-' streams the markup to stdout instead.
    code, out, _ = run_cli(["figure", "6.4", "--svg", "-"], tmp_path, capsys)
    assert code == 0 and out == markup


def _svgs(path):
    """Every SVG a figure file or report document carries, in order."""
    text = path.read_text(encoding="utf-8")
    return ["<svg" + part.split("</svg>", 1)[0] for part in text.split("<svg")[1:]]


@pytest.mark.parametrize(
    "argv, output",
    [
        (["report", "--benchmarks", "blowfish", "--html", "out"], "out/report.html"),
        (["figure", "6.4", "--svg", "fig.svg"], "fig.svg"),
    ],
    ids=["report-html", "figure-svg"],
)
def test_cli_no_cache_parallel_renders_without_any_cache(
    argv, output, tmp_path, capsys, monkeypatch
):
    # Without $REPRO_CACHE_DIR a cache opened from nothing falls back to
    # ./.repro_cache, so a --no-cache run must never open one.  No history
    # ledger: its trends chart would grow between the two runs.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("REPRO_HISTORY", "0")
    cached, uncached = tmp_path / "cached", tmp_path / "uncached"
    cached.mkdir()
    uncached.mkdir()
    monkeypatch.chdir(cached)
    assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
    monkeypatch.chdir(uncached)
    assert main(argv + ["--no-cache", "-j", "2"]) == 0
    capsys.readouterr()
    assert _svgs(uncached / output) == _svgs(cached / output)
    assert _svgs(uncached / output)
    if argv[0] == "report":
        page = "out/benchmark-blowfish.html"
        assert (uncached / page).read_bytes() == (cached / page).read_bytes()
    assert not (uncached / ".repro_cache").exists()


def test_cli_report_html_end_to_end(tmp_path, capsys, monkeypatch):
    # The trends card renders whenever $REPRO_HISTORY names a ledger (as
    # every test's own does) and grows with every run; warm byte-identity
    # is a property of the report without it.
    monkeypatch.setenv("REPRO_HISTORY", "0")
    args = ["report", "--benchmarks", "blowfish", "--html", str(tmp_path / "out")]
    code, out, err = run_cli(args, tmp_path, capsys)
    assert code == 0
    assert "report.html" in err and out == ""  # tables stay off stdout
    report = (tmp_path / "out" / "report.html").read_text(encoding="utf-8")
    for figure_id in ("6.1", "6.2", "6.4", "6.5", "6.6", "area", "pareto"):
        assert f'id="figure-{figure_id}"' in report
    assert 'id="figure-6.3"' not in report  # mips not in the benchmark set
    assert 'id="table_6.1"' in report and 'id="table_6.2"' in report
    assert "<script" not in report.replace('<script type="application/json"', "")
    assert "<link" not in report and "src=" not in report
    # The per-benchmark drill-down page sits beside the report, is linked
    # from it, and embeds its own raw-JSON island.
    assert 'href="benchmark-blowfish.html"' in report
    page = (tmp_path / "out" / "benchmark-blowfish.html").read_text(encoding="utf-8")
    assert 'id="benchmark-data"' in page and 'id="table_6.1"' in page
    assert "<script" not in page.replace('<script type="application/json"', "")
    # Two warm repeats into separate directories: byte-identical documents.
    # (The cold document legitimately differs in its cache-hit metadata.)
    for directory in ("out2", "out3"):
        code, _, _ = run_cli(
            ["report", "--benchmarks", "blowfish", "--html", str(tmp_path / directory)],
            tmp_path, capsys,
        )
        assert code == 0
    warm_one = (tmp_path / "out2" / "report.html").read_text(encoding="utf-8")
    warm_two = (tmp_path / "out3" / "report.html").read_text(encoding="utf-8")
    assert warm_one == warm_two
    assert "<th>simulations</th><td>0 computed," in warm_one  # nothing simulated
    # The figures themselves are identical cold vs warm (only metadata moves).
    assert warm_one.count("<svg") == report.count("<svg")


def test_cli_report_html_with_trace_embeds_timeline(tmp_path, capsys, monkeypatch):
    from repro.obs import tracing as obs_tracing

    trace_path = tmp_path / "trace.jsonl"
    monkeypatch.setenv(obs_tracing.TRACE_ENV, str(trace_path))
    obs_tracing.reset()
    try:
        code, _, _ = run_cli(
            ["report", "--benchmarks", "blowfish", "--html", str(tmp_path / "out")],
            tmp_path, capsys,
        )
    finally:
        monkeypatch.delenv(obs_tracing.TRACE_ENV)
        obs_tracing.reset()
    assert code == 0
    report = (tmp_path / "out" / "report.html").read_text(encoding="utf-8")
    assert 'id="obs-timeline"' in report and 'id="trace-analytics"' in report
    assert "stage:replay" in report  # the analytics card names the stage spans


def test_report_html_rejects_stdout_format_flags(tmp_path, capsys):
    code, _, err = run_cli(
        ["report", "--html", str(tmp_path / "out"), "--json"], tmp_path, capsys
    )
    assert code == 2 and "--html" in err and "Traceback" not in err


def test_figure_order_is_the_spec_registry():
    from repro.viz.report_html import FIGURE_ORDER

    assert FIGURE_ORDER == tuple(FIGURE_SPECS)
    assert FIGURE_ORDER == renders.RENDER_FIGURE_IDS


def test_parser_wires_new_flags():
    parser = build_parser()
    args = parser.parse_args(["figure", "6.2", "--svg", "out.svg"])
    assert args.svg == "out.svg"
    args = parser.parse_args(["report", "--html", "out"])
    assert args.html == "out"
