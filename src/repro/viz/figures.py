"""Declarative figure specs: thesis result dicts → ``repro.viz`` charts.

Each :class:`FigureSpec` names one renderable figure — the six thesis
figures (6.1-6.6), two composites (``area``: Twill's LUT composition from
the Table 6.2 rows; ``pareto``: the area/performance trade-off) and the
design-space-exploration pair (``explore``: the candidate scatter with its
Pareto frontier; ``explore-progress``: the search curve) — and
holds a pure ``build`` function mapping the corresponding
:mod:`repro.eval.experiments` result dictionary onto a chart.  The specs
read only the ``rows`` lists of those dicts, so a figure is a pure function
of the same structured data the tables and the JSON report are built from:
identical data renders to identical bytes, so serial, parallel, cold and
warm runs draw the same figures.

Series → palette-slot assignment is fixed per entity (Twill blue, LegUp
orange, pure software aqua; benchmarks take slots 0-7 in row order in the
sweep figures) so identity never changes colour between figures, between
runs, or when the benchmark set is restricted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ReproError
from repro.viz import theme
from repro.viz.charts import ScatterPoint, Series, grouped_bars, line_chart, scatter_chart, stacked_bars


@dataclass(frozen=True)
class FigureSpec:
    """One renderable figure: identity, prose, and its pure chart builder."""

    figure_id: str
    title: str
    caption: str
    build: Callable[[Dict], str]


# ---------------------------------------------------------------------------
# builders (each takes the experiment result dict, returns SVG markup)
# ---------------------------------------------------------------------------


def _benchmarks(data: Dict) -> List[str]:
    return [row["benchmark"] for row in data["rows"]]


def _build_figure_6_1(data: Dict) -> str:
    rows = data["rows"]
    return grouped_bars(
        _benchmarks(data),
        [
            Series("LegUp pure HW", tuple(r["pure_hw"] for r in rows), theme.SLOT_LEGUP),
            Series("Twill", tuple(r["twill"] for r in rows), theme.SLOT_TWILL),
        ],
        title="Figure 6.1 — Power normalised to the pure MicroBlaze implementation",
        y_label="normalised power",
        baseline=(1.0, "pure SW = 1.0"),
    )


def _build_figure_6_2(data: Dict) -> str:
    rows = data["rows"]
    return grouped_bars(
        _benchmarks(data),
        [
            Series("LegUp pure HW", tuple(r["pure_hw_speedup"] for r in rows), theme.SLOT_LEGUP),
            Series("Twill", tuple(r["twill_speedup"] for r in rows), theme.SLOT_TWILL),
        ],
        title="Figure 6.2 — Speedup normalised to the pure software implementation",
        y_label="speedup vs pure SW (x)",
        value_format="{:.2f}x",
        baseline=(1.0, "pure SW = 1.0"),
    )


def _build_split_sweep(data: Dict, figure_id: str) -> str:
    rows = data["rows"]
    benchmark = data["benchmark"]
    labels = [f"{r['sw_fraction']:g}" for r in rows]
    return line_chart(
        labels,
        [Series(benchmark, tuple(r["speedup_vs_sw"] for r in rows), theme.SLOT_TWILL)],
        title=(
            f"Figure {figure_id} — {benchmark} performance vs targeted partition split"
        ),
        y_label="speedup vs pure SW (x)",
        x_axis_label="targeted software share",
        value_format="{:.2f}x",
    )


def _sweep_columns(rows: List[Dict], prefix: str) -> List[int]:
    """The swept values present in the row keys (``latency_8`` → 8), sorted."""
    values = {
        int(key[len(prefix):])
        for key in rows[0]
        if key.startswith(prefix) and key[len(prefix):].isdigit()
    }
    return sorted(values)


def _build_runtime_sweep(data: Dict, prefix: str, title: str, x_axis_label: str) -> str:
    rows = data["rows"]
    swept = _sweep_columns(rows, prefix)
    series = [
        Series(
            row["benchmark"],
            tuple(row[f"{prefix}{value}"] for value in swept),
            slot % len(theme.SERIES_LIGHT),
        )
        for slot, row in enumerate(rows)
    ]
    return line_chart(
        [str(value) for value in swept],
        series,
        title=title,
        y_label="normalised speedup",
        x_axis_label=x_axis_label,
        y_max=1.12,
    )


def _build_figure_6_5(data: Dict) -> str:
    return _build_runtime_sweep(
        data,
        "latency_",
        "Figure 6.5 — Speedup vs queue latency, normalised to 2-cycle queues",
        "queue latency (cycles)",
    )


def _build_figure_6_6(data: Dict) -> str:
    return _build_runtime_sweep(
        data,
        "depth_",
        "Figure 6.6 — Speedup vs queue depth, normalised to 8-entry queues",
        "queue depth (entries)",
    )


def _build_area(data: Dict) -> str:
    rows = data["rows"]
    hw_threads = [float(r["twill_hwthreads_luts"]) for r in rows]
    runtime = [max(float(r["twill_luts"]) - float(r["twill_hwthreads_luts"]), 0.0) for r in rows]
    microblaze = [
        max(float(r["twill_plus_microblaze_luts"]) - float(r["twill_luts"]), 0.0) for r in rows
    ]
    return stacked_bars(
        _benchmarks(data),
        [
            Series("HW threads", tuple(hw_threads), theme.SLOT_TWILL),
            Series("Twill runtime", tuple(runtime), 6),
            Series("MicroBlaze", tuple(microblaze), theme.SLOT_SOFTWARE),
        ],
        title="Twill FPGA area composition (LUTs), with the LegUp total for scale",
        y_label="LUTs",
        reference=(tuple(float(r["legup_luts"]) for r in rows), "LegUp pure HW total"),
    )


def _build_explore_frontier(data: Dict) -> str:
    """Exploration scatter: every evaluated candidate, frontier chained.

    One palette slot per explored workload (workload order fixes identity);
    Pareto-optimal candidates are direct-labelled with their split target
    and connected left-to-right, dominated candidates stay unlabelled.
    """
    rows = data["rows"]
    names: List[str] = list(data["workloads"])
    points: List[ScatterPoint] = []
    links: List = []
    frontier_indices: Dict[str, List[int]] = {name: [] for name in names}
    for row in rows:
        name = row["benchmark"]
        slot = names.index(name) % len(theme.SERIES_LIGHT)
        params = ", ".join(
            f"{key}={row[key]}" for key in sorted(row)
            if key not in ("benchmark", "cycles", "area_luts", "power_mw",
                           "speedup_vs_sw", "pareto")
        )
        pareto = bool(row.get("pareto"))
        if pareto:
            frontier_indices[name].append(len(points))
        points.append(
            ScatterPoint(
                x=float(row["area_luts"]),
                y=float(row["speedup_vs_sw"]),
                slot=slot,
                label=f"sw={row['sw_fraction']:g}" if pareto and "sw_fraction" in row else "",
                tooltip=(
                    f"{name} · {params}: {row['area_luts']:,.0f} LUTs, "
                    f"{row['speedup_vs_sw']:.2f}x, {row['power_mw']:.0f} mW"
                    + (" · Pareto-optimal" if pareto else "")
                ),
            )
        )
    for name in names:
        chain = sorted(frontier_indices[name], key=lambda i: (points[i].x, points[i].y))
        links.extend(zip(chain, chain[1:]))
    return scatter_chart(
        points,
        legend=[(name, names.index(name) % len(theme.SERIES_LIGHT)) for name in names],
        links=links,
        title="Exploration — every evaluated candidate, Pareto frontier linked",
        y_label="speedup vs pure SW (x)",
        x_axis_label="FPGA area (LUTs)",
    )


def _build_explore_progress(data: Dict) -> str:
    """Search-progress line: best objective product vs evaluations spent."""
    progress: Dict[str, List[float]] = data["progress"]
    names = list(data["workloads"])
    count = max((len(curve) for curve in progress.values()), default=0)
    series = [
        Series(name, tuple(progress[name]), names.index(name) % len(theme.SERIES_LIGHT))
        for name in names
    ]
    return line_chart(
        [str(i) for i in range(1, count + 1)],
        series,
        title="Exploration — best objective product found vs candidates evaluated",
        y_label="best area x cycles x power (rel. to first)",
        x_axis_label="candidates evaluated",
    )


def _build_pareto(data: Dict) -> str:
    rows = data["rows"]
    points: List[ScatterPoint] = []
    links = []
    for row in rows:
        legup_index = len(points)
        points.append(
            ScatterPoint(
                x=float(row["legup_luts"]),
                y=float(row["legup_speedup"]),
                slot=theme.SLOT_LEGUP,
                tooltip=(
                    f"{row['benchmark']} · LegUp pure HW: {row['legup_luts']:,.0f} LUTs, "
                    f"{row['legup_speedup']:.2f}x"
                ),
            )
        )
        points.append(
            ScatterPoint(
                x=float(row["twill_luts"]),
                y=float(row["twill_speedup"]),
                slot=theme.SLOT_TWILL,
                label=row["benchmark"],
                tooltip=(
                    f"{row['benchmark']} · Twill + MicroBlaze: {row['twill_luts']:,.0f} LUTs, "
                    f"{row['twill_speedup']:.2f}x"
                ),
            )
        )
        links.append((legup_index, legup_index + 1))
    return scatter_chart(
        points,
        legend=[("Twill + MicroBlaze", theme.SLOT_TWILL), ("LegUp pure HW", theme.SLOT_LEGUP)],
        links=links,
        title="Area vs performance: each benchmark's LegUp and Twill design points",
        y_label="speedup vs pure SW (x)",
        x_axis_label="FPGA area (LUTs)",
    )


#: Every renderable figure, in report order.
FIGURE_SPECS: Dict[str, FigureSpec] = {
    "6.1": FigureSpec(
        "6.1",
        "Figure 6.1 — Power",
        "Estimated power of each implementation, normalised to the pure "
        "MicroBlaze (software) system; lower is better.",
        _build_figure_6_1,
    ),
    "6.2": FigureSpec(
        "6.2",
        "Figure 6.2 — Performance",
        "End-to-end speedup over the pure software implementation for the "
        "LegUp pure-hardware and Twill hybrid systems.",
        _build_figure_6_2,
    ),
    "6.3": FigureSpec(
        "6.3",
        "Figure 6.3 — MIPS split sweep",
        "MIPS performance as the targeted share of work placed on the "
        "processor partition varies.",
        lambda data: _build_split_sweep(data, "6.3"),
    ),
    "6.4": FigureSpec(
        "6.4",
        "Figure 6.4 — Blowfish split sweep",
        "Blowfish performance as the targeted share of work placed on the "
        "processor partition varies.",
        lambda data: _build_split_sweep(data, "6.4"),
    ),
    "6.5": FigureSpec(
        "6.5",
        "Figure 6.5 — Queue latency sensitivity",
        "Twill speedup under increasing inter-thread queue latency, "
        "normalised to the 2-cycle baseline.",
        _build_figure_6_5,
    ),
    "6.6": FigureSpec(
        "6.6",
        "Figure 6.6 — Queue depth sensitivity",
        "Twill speedup with shorter and longer queues, normalised to the "
        "8-entry configuration the thesis evaluates.",
        _build_figure_6_6,
    ),
    "area": FigureSpec(
        "area",
        "FPGA area composition",
        "Where Twill's LUTs go — hardware threads, the Twill runtime "
        "(queues, semaphores, interconnect) and the MicroBlaze — with the "
        "LegUp pure-hardware total marked for scale (Table 6.2 data).",
        _build_area,
    ),
    "pareto": FigureSpec(
        "pareto",
        "Area / performance trade-off",
        "Each benchmark's two design points: LegUp pure hardware and the "
        "Twill hybrid (including the MicroBlaze), connected per benchmark. "
        "Up and to the left is better.",
        _build_pareto,
    ),
    "explore": FigureSpec(
        "explore",
        "Exploration — Pareto frontier",
        "Every configuration candidate the report's design-space exploration "
        "evaluated (split target x queue depth per workload); candidates on "
        "the exact area/cycles/power Pareto frontier are labelled and "
        "chained. Up and to the left is better.",
        _build_explore_frontier,
    ),
    "explore-progress": FigureSpec(
        "explore-progress",
        "Exploration — search progress",
        "How quickly the search closed in on its best configuration: the "
        "best area x cycles x power product found so far, relative to the "
        "first candidate, per candidate evaluated.",
        _build_explore_progress,
    ),
}


def render_figure(figure_id: str, data: Dict) -> str:
    """Render one figure's SVG from its experiment result dict."""
    spec = FIGURE_SPECS.get(figure_id)
    if spec is None:
        known = ", ".join(sorted(FIGURE_SPECS))
        raise ReproError(f"unknown figure '{figure_id}' (known: {known})")
    return spec.build(data)
