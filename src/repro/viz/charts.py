"""Chart forms for ``repro.viz``: bars, line sweeps, scatter, timeline.

Every function here takes plain data (categories, :class:`Series`, points)
and returns serialised SVG markup, built exclusively from
:mod:`repro.viz.svg` primitives and :mod:`repro.viz.scales`.  The shared
visual grammar (one axis, thin marks with rounded data-ends, 2px surface
gaps and marker rings, hairline recessive grid, a legend whenever two or
more series are on screen, native ``<title>`` tooltips on every mark) lives
in the helpers at the top so the chart functions stay declarative.

All layout is computed from deterministic character-count estimates — no
font metrics, no environment queries — so the same inputs always produce
byte-identical markup (see ``tests/test_viz.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.viz import theme
from repro.viz.scales import BandScale, LinearScale, PointScale, nice_ticks, value_domain
from repro.viz.svg import Element, fmt_num, polyline_points, render, svg_root, text_width


@dataclass(frozen=True)
class Series:
    """One named series: a value per category and a fixed palette slot."""

    label: str
    values: Tuple[float, ...]
    slot: int


@dataclass(frozen=True)
class ScatterPoint:
    """One scatter mark, optionally direct-labelled."""

    x: float
    y: float
    slot: int
    label: str = ""
    tooltip: str = ""


@dataclass(frozen=True)
class Span:
    """One span on the timeline: a half-open interval on a lane."""

    name: str
    kind: str
    worker: str
    start: float
    end: float


#: Task kind → palette slot for the execution timeline; every other kind
#: (harness, scheduler, cache, stage spans) shares slot 7, labelled "other".
TIMELINE_KIND_SLOTS: Dict[str, int] = {
    "compile": 0,
    "runtime": 1,
    "explore": 3,
    "aggregate": 4,
}


# ---------------------------------------------------------------------------
# shared frame: surface, title, legend, axes
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    """The assembled chart scaffold the chart bodies draw into."""

    root: Element
    plot: Element
    left: float
    top: float
    right: float
    bottom: float
    extra: Dict[str, float] = field(default_factory=dict)


def _tick_label(value: float) -> str:
    """Clean tick text: thousands-comma'd integers, trimmed short floats."""
    if abs(value - round(value)) < 1e-9:
        return f"{int(round(value)):,}"
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _legend_items(series: Sequence[Series]) -> List[Tuple[str, int]]:
    return [(s.label, s.slot) for s in series]


def _frame(
    width: int,
    height: int,
    title: str,
    legend: Sequence[Tuple[str, int]],
    y_ticks: Sequence[float],
    y_label: str = "",
    legend_kind: str = "swatch",
) -> Tuple[_Frame, LinearScale]:
    """Surface + title + legend + y grid; returns the frame and the y scale.

    A legend is drawn only for two or more entries (a single series is named
    by the title); marks and axes are added by the caller inside
    ``frame.plot``.
    """
    root = svg_root(width, height, theme.stylesheet(), title)
    root.elem("rect", {"class": "vz-surface", "x": 0, "y": 0, "width": width, "height": height})
    root.elem("text", {"class": "vz-title", "x": 14, "y": 20}, text=title)

    show_legend = len(legend) >= 2
    top = 58.0 if show_legend else 36.0
    tick_labels = [_tick_label(t) for t in y_ticks]
    label_width = max([text_width(t) for t in tick_labels], default=0.0)
    left = 24.0 + label_width + (16.0 if y_label else 0.0)
    right = width - 16.0
    bottom = height - 44.0

    if show_legend:
        x = left
        y = 38.0
        for label, slot in legend:
            if legend_kind == "line":
                root.elem(
                    "line",
                    {"class": f"vz-ln{slot} vz-line", "x1": x, "y1": y - 4, "x2": x + 14, "y2": y - 4},
                )
            else:
                root.elem(
                    "rect",
                    {"class": f"vz-s{slot}", "x": x, "y": y - 10, "width": 12, "height": 12, "rx": 3},
                )
            x += 18.0
            root.elem("text", {"class": "vz-lab", "x": x, "y": y}, text=label)
            x += text_width(label) + 18.0

    scale = LinearScale((y_ticks[0], y_ticks[-1]), (bottom, top))
    for tick, label in zip(y_ticks, tick_labels):
        y = scale(tick)
        root.elem("line", {"class": "vz-grid", "x1": left, "y1": y, "x2": right, "y2": y})
        root.elem(
            "text",
            {"class": "vz-lab vz-num", "x": left - 8, "y": y + 4, "text-anchor": "end"},
            text=label,
        )
    if y_label:
        root.elem(
            "text",
            {
                "class": "vz-axlab",
                "x": 14,
                "y": (top + bottom) / 2,
                "transform": f"rotate(-90 14 {fmt_num((top + bottom) / 2)})",
                "text-anchor": "middle",
            },
            text=y_label,
        )
    root.elem("line", {"class": "vz-axis", "x1": left, "y1": bottom, "x2": right, "y2": bottom})
    plot = root.elem("g", {})
    return _Frame(root=root, plot=plot, left=left, top=top, right=right, bottom=bottom), scale


def _x_category_labels(frame: _Frame, labels: Sequence[str], centers: Sequence[float]) -> None:
    for label, x in zip(labels, centers):
        frame.root.elem(
            "text",
            {"class": "vz-lab", "x": x, "y": frame.bottom + 16, "text-anchor": "middle"},
            text=label,
        )


def _x_axis_label(frame: _Frame, label: str) -> None:
    if label:
        frame.root.elem(
            "text",
            {
                "class": "vz-axlab",
                "x": (frame.left + frame.right) / 2,
                "y": frame.bottom + 33,
                "text-anchor": "middle",
            },
            text=label,
        )


def _reference_line(frame: _Frame, scale: LinearScale, value: float, label: str) -> None:
    """A labelled horizontal reference rule (e.g. the pure-software baseline)."""
    y = scale(value)
    frame.plot.elem("line", {"class": "vz-ref", "x1": frame.left, "y1": y, "x2": frame.right, "y2": y})
    frame.plot.elem(
        "text",
        {"class": "vz-lab", "x": frame.right, "y": y - 4, "text-anchor": "end"},
        text=label,
    )


def _bar(
    parent: Element,
    x: float,
    y_top: float,
    width: float,
    y_base: float,
    slot: int,
    tooltip: str,
    rounded: bool = True,
) -> None:
    """One bar/segment: 4px rounded data-end, square at the baseline."""
    radius = min(float(theme.BAR_CORNER_RADIUS), width / 2.0, max(y_base - y_top, 0.0))
    if rounded and radius > 0.0:
        x1 = x + width
        d = (
            f"M{fmt_num(x)},{fmt_num(y_base)}"
            f" L{fmt_num(x)},{fmt_num(y_top + radius)}"
            f" Q{fmt_num(x)},{fmt_num(y_top)} {fmt_num(x + radius)},{fmt_num(y_top)}"
            f" L{fmt_num(x1 - radius)},{fmt_num(y_top)}"
            f" Q{fmt_num(x1)},{fmt_num(y_top)} {fmt_num(x1)},{fmt_num(y_top + radius)}"
            f" L{fmt_num(x1)},{fmt_num(y_base)} Z"
        )
        mark = parent.elem("path", {"class": f"vz-s{slot}", "d": d})
    else:
        mark = parent.elem(
            "rect",
            {
                "class": f"vz-s{slot}",
                "x": x,
                "y": y_top,
                "width": width,
                "height": max(y_base - y_top, 0.0),
            },
        )
    if tooltip:
        mark.elem("title", text=tooltip)


# ---------------------------------------------------------------------------
# chart forms
# ---------------------------------------------------------------------------


def grouped_bars(
    categories: Sequence[str],
    series: Sequence[Series],
    *,
    title: str,
    y_label: str,
    value_format: str = "{:.2f}",
    baseline: Optional[Tuple[float, str]] = None,
    width: int = 680,
    height: int = 320,
) -> str:
    """Grouped bar chart: one band per category, one thin bar per series."""
    all_values = [v for s in series for v in s.values]
    if baseline is not None:
        all_values.append(baseline[0])
    ticks = nice_ticks(*value_domain(all_values))
    frame, scale = _frame(width, height, title, _legend_items(series), ticks, y_label)
    bands = BandScale(tuple(categories), (frame.left, frame.right))
    n = max(len(series), 1)
    gap = float(theme.SURFACE_GAP)
    bar_width = min(float(theme.BAR_MAX_THICKNESS), (bands.bandwidth - gap * (n - 1)) / n)
    group_width = bar_width * n + gap * (n - 1)
    for index, category in enumerate(categories):
        x = bands.position(index) + (bands.bandwidth - group_width) / 2.0
        for s in series:
            value = s.values[index]
            tooltip = f"{category} · {s.label}: {value_format.format(value)}"
            _bar(frame.plot, x, scale(value), bar_width, frame.bottom, s.slot, tooltip)
            x += bar_width + gap
    if baseline is not None:
        _reference_line(frame, scale, baseline[0], baseline[1])
    _x_category_labels(frame, categories, [bands.center(i) for i in range(len(categories))])
    return render(frame.root)


def stacked_bars(
    categories: Sequence[str],
    series: Sequence[Series],
    *,
    title: str,
    y_label: str,
    value_format: str = "{:,.0f}",
    reference: Optional[Tuple[Tuple[float, ...], str]] = None,
    width: int = 680,
    height: int = 320,
) -> str:
    """Stacked bar chart: series stack bottom-up with 2px surface gaps.

    *reference* is an optional per-category value drawn as a short dash over
    each bar (e.g. the LegUp pure-hardware total beside Twill's composition)
    plus its legend label.
    """
    totals = [sum(s.values[i] for s in series) for i in range(len(categories))]
    domain_values = list(totals)
    legend = _legend_items(series)
    if reference is not None:
        domain_values.extend(reference[0])
        legend = legend + [(reference[1], -1)]
    ticks = nice_ticks(*value_domain(domain_values))
    frame, scale = _frame(width, height, title, legend, ticks, y_label)
    bands = BandScale(tuple(categories), (frame.left, frame.right))
    bar_width = min(float(theme.BAR_MAX_THICKNESS) * 1.5, bands.bandwidth)
    gap = float(theme.SURFACE_GAP)
    for index, category in enumerate(categories):
        x = bands.center(index) - bar_width / 2.0
        cumulative = 0.0
        boundaries = [frame.bottom]
        for s in series:
            cumulative += s.values[index]
            boundaries.append(scale(cumulative))
        top_segment = len(series) - 1
        for position, s in enumerate(series):
            value = s.values[index]
            if value <= 0:
                continue
            y_base = boundaries[position] - (gap if position > 0 else 0.0)
            y_top = boundaries[position + 1]
            if y_base <= y_top:
                continue  # the gap consumed a sliver-thin segment
            tooltip = f"{category} · {s.label}: {value_format.format(value)}"
            _bar(frame.plot, x, y_top, bar_width, y_base, s.slot, tooltip,
                 rounded=position == top_segment)
        if reference is not None:
            y = scale(reference[0][index])
            dash = frame.plot.elem(
                "line",
                {"class": "vz-ref", "x1": x - 4, "y1": y, "x2": x + bar_width + 4, "y2": y},
            )
            dash.elem("title", text=f"{category} · {reference[1]}: {value_format.format(reference[0][index])}")
    _x_category_labels(frame, categories, [bands.center(i) for i in range(len(categories))])
    # The reference dash's legend entry: a short rule instead of a swatch.
    if reference is not None:
        _fix_reference_legend(frame.root)
    return render(frame.root)


def _fix_reference_legend(root: Element) -> None:
    """Swap the placeholder slot -1 legend swatch for a reference-rule key."""
    for child in root.children:
        if isinstance(child, Element) and child.attrs.get("class") == "vz-s-1":
            child.tag = "line"
            x = float(child.attrs["x"])
            y = float(child.attrs["y"])
            child.attrs = {
                "class": "vz-ref",
                "x1": x,
                "y1": y + 6,
                "x2": x + 12,
                "y2": y + 6,
            }


def line_chart(
    x_labels: Sequence[str],
    series: Sequence[Series],
    *,
    title: str,
    y_label: str,
    x_axis_label: str,
    value_format: str = "{:.2f}",
    y_max: Optional[float] = None,
    width: int = 680,
    height: int = 320,
) -> str:
    """Line sweep over discrete swept values (point x scale, 2px lines).

    Up to four series carry direct end labels; beyond that the legend alone
    carries identity (end labels would collide as lines converge).
    """
    all_values = [v for s in series for v in s.values]
    domain = value_domain(all_values)
    if y_max is not None:
        domain = (0.0, y_max)
    ticks = nice_ticks(*domain)
    direct_labels = len(series) <= 4
    right_pad = 10.0 + (
        max([text_width(s.label) for s in series], default=0.0) if direct_labels and len(series) >= 2 else 0.0
    )
    frame, scale = _frame(width, height, title, _legend_items(series), ticks, y_label,
                          legend_kind="line")
    frame.right -= right_pad  # leave air for end labels
    points_x = PointScale(tuple(x_labels), (frame.left, frame.right))
    for s in series:
        coords = [(points_x(i), scale(v)) for i, v in enumerate(s.values)]
        frame.plot.elem(
            "polyline",
            {"class": f"vz-ln{s.slot} vz-line", "points": polyline_points(coords)},
        )
        for (x, y), x_label_text, value in zip(coords, x_labels, s.values):
            marker = frame.plot.elem(
                "circle",
                {"class": f"vz-s{s.slot} vz-ring", "cx": x, "cy": y, "r": theme.MARKER_RADIUS},
            )
            marker.elem(
                "title",
                text=f"{s.label} · {x_axis_label} {x_label_text}: {value_format.format(value)}",
            )
        if direct_labels and len(series) >= 2:
            end_x, end_y = coords[-1]
            frame.plot.elem(
                "text",
                {"class": "vz-dlab", "x": end_x + 8, "y": end_y + 4},
                text=s.label,
            )
    _x_category_labels(frame, x_labels, [points_x(i) for i in range(len(x_labels))])
    _x_axis_label(frame, x_axis_label)
    return render(frame.root)


def scatter_chart(
    points: Sequence[ScatterPoint],
    *,
    legend: Sequence[Tuple[str, int]],
    links: Sequence[Tuple[int, int]] = (),
    title: str,
    y_label: str,
    x_axis_label: str,
    width: int = 680,
    height: int = 360,
) -> str:
    """Scatter/Pareto chart; *links* connect point indices (dumbbell pairs)."""
    y_ticks = nice_ticks(*value_domain([p.y for p in points]))
    x_ticks = nice_ticks(*value_domain([p.x for p in points]))
    frame, scale_y = _frame(width, height, title, list(legend), y_ticks, y_label)
    scale_x = LinearScale((x_ticks[0], x_ticks[-1]), (frame.left, frame.right))
    for tick in x_ticks:
        x = scale_x(tick)
        frame.root.elem(
            "text",
            {"class": "vz-lab vz-num", "x": x, "y": frame.bottom + 16, "text-anchor": "middle"},
            text=_tick_label(tick),
        )
    _x_axis_label(frame, x_axis_label)
    for start, end in links:
        a, b = points[start], points[end]
        frame.plot.elem(
            "line",
            {
                "class": "vz-link",
                "x1": scale_x(a.x),
                "y1": scale_y(a.y),
                "x2": scale_x(b.x),
                "y2": scale_y(b.y),
            },
        )
    for point in points:
        x, y = scale_x(point.x), scale_y(point.y)
        mark = frame.plot.elem(
            "circle",
            {"class": f"vz-s{point.slot} vz-ring", "cx": x, "cy": y, "r": theme.MARKER_RADIUS + 1},
        )
        if point.tooltip:
            mark.elem("title", text=point.tooltip)
        if point.label:
            frame.plot.elem(
                "text", {"class": "vz-dlab", "x": x + 9, "y": y + 4}, text=point.label
            )
    return render(frame.root)


def timeline_chart(
    spans: Sequence[Span],
    *,
    title: str = "Task execution timeline",
    width: int = 900,
) -> str:
    """Per-worker execution timeline (one lane per worker, bars per span).

    Built from ``$REPRO_TRACE`` spans, so — unlike every other chart — its
    contents depend on wall-clock measurements and the chart is only
    embedded when a trace was explicitly captured.
    """
    if not spans:
        return ""
    t0 = min(span.start for span in spans)
    total = max(max(span.end for span in spans) - t0, 1e-6)
    workers = sorted({span.worker for span in spans})
    lane_pitch, bar_height = 22.0, 14.0
    label_width = max(max(text_width(w) for w in workers), text_width("worker")) + 16.0
    top, bottom_pad = 64.0, 40.0
    height = int(top + lane_pitch * len(workers) + bottom_pad)
    root = svg_root(width, height, theme.stylesheet(), title)
    root.elem("rect", {"class": "vz-surface", "x": 0, "y": 0, "width": width, "height": height})
    root.elem("text", {"class": "vz-title", "x": 14, "y": 20}, text=title)
    kinds = sorted(
        {span.kind if span.kind in TIMELINE_KIND_SLOTS else "other" for span in spans},
        key=lambda k: TIMELINE_KIND_SLOTS.get(k, 7),
    )
    x = 14.0
    for kind in kinds:
        slot = TIMELINE_KIND_SLOTS.get(kind, 7)
        root.elem("rect", {"class": f"vz-s{slot}", "x": x, "y": 28, "width": 12, "height": 12, "rx": 3})
        x += 18.0
        root.elem("text", {"class": "vz-lab", "x": x, "y": 38}, text=kind)
        x += text_width(kind) + 18.0
    left, right = 14.0 + label_width, width - 16.0
    scale = LinearScale((0.0, total), (left, right))
    lanes = {worker: top + lane_pitch * i for i, worker in enumerate(workers)}
    for worker, y in lanes.items():
        root.elem("text", {"class": "vz-lab", "x": 14, "y": y + bar_height - 3}, text=worker)
        root.elem("line", {"class": "vz-grid", "x1": left, "y1": y + bar_height + 3,
                           "x2": right, "y2": y + bar_height + 3})
    plot = root.elem("g", {})
    for span in spans:
        x0, x1 = scale(span.start - t0), scale(span.end - t0)
        slot = TIMELINE_KIND_SLOTS.get(span.kind, 7)
        bar = plot.elem(
            "rect",
            {
                "class": f"vz-s{slot}",
                "x": x0,
                "y": lanes[span.worker],
                "width": max(x1 - x0, 1.5),
                "height": bar_height,
                "rx": 2,
            },
        )
        bar.elem(
            "title",
            text=f"{span.name} ({span.kind}) on {span.worker}: {span.end - span.start:.3f}s",
        )
    axis_y = top + lane_pitch * len(workers) + 8.0
    root.elem("line", {"class": "vz-axis", "x1": left, "y1": axis_y, "x2": right, "y2": axis_y})
    for tick in nice_ticks(0.0, total, 6):
        if tick > total * 1.001:
            break
        x = scale(tick)
        root.elem(
            "text",
            {"class": "vz-lab vz-num", "x": x, "y": axis_y + 16, "text-anchor": "middle"},
            text=f"{tick:g}s",
        )
    return render(root)
