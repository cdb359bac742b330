"""Flamegraph SVG renderer for collapsed sampling-profiler stacks.

Takes the ``{"mod:fn;mod:fn;..." -> samples}`` map a
:mod:`repro.obs.profile` run produces (possibly merged across processes)
and draws the classic icicle layout: the root row spans the full width,
each frame's width is proportional to the samples observed at-or-below
it, children sit under their parent sorted by name.  Everything is built
from the deterministic :mod:`repro.viz.svg` primitives — same stacks in,
byte-identical SVG out — and is self-contained like every other repro
figure: no script, no interactivity beyond native ``<title>`` tooltips
carrying the exact sample count and percentage per frame.

Colour assignment is a stable hash of the frame label onto the 8-slot
CVD-safe palette, so a function keeps its colour across runs and across
the per-worker flamegraphs of one parallel run.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.viz import theme
from repro.viz.svg import Element, render, svg_root, text_width

#: Row height and label font size (px).
ROW_HEIGHT = 17
FONT_SIZE = 10.0

#: Frames narrower than this many px are dropped (their samples still
#: widen every ancestor, so nothing is lost from the totals).
MIN_FRAME_PX = 1.0

_PAD = 8
_TITLE_HEIGHT = 24


class _Node:
    __slots__ = ("label", "samples", "children")

    def __init__(self, label: str):
        self.label = label
        self.samples = 0
        self.children: Dict[str, "_Node"] = {}


def _build_trie(stacks: Mapping[str, int]) -> _Node:
    root = _Node("all")
    for stack, samples in sorted(stacks.items()):
        samples = int(samples)
        if samples <= 0:
            continue
        root.samples += samples
        node = root
        for label in stack.split(";"):
            node = node.children.setdefault(label, _Node(label))
            node.samples += samples
    return root


def _slot(label: str) -> int:
    return sum(ord(ch) for ch in label) % len(theme.SERIES_LIGHT)


def _depth(node: _Node) -> int:
    if not node.children:
        return 1
    return 1 + max(_depth(child) for child in node.children.values())


def flamegraph(
    stacks: Mapping[str, int], *, title: str = "CPU profile (sampled)", width: int = 1000
) -> str:
    """Render collapsed *stacks* as a self-contained flamegraph SVG."""
    root = _build_trie(stacks)
    depth = _depth(root) if root.samples else 1
    height = _PAD + _TITLE_HEIGHT + depth * ROW_HEIGHT + _PAD
    svg = svg_root(width, height, theme.stylesheet(), title)
    svg.elem("rect", {"class": "vz-surface", "x": 0, "y": 0, "width": width, "height": height})
    svg.elem("text", {"class": "vz-title", "x": _PAD, "y": _PAD + 13}, text=title)
    if not root.samples:
        svg.elem(
            "text",
            {"class": "vz-lab", "x": _PAD, "y": _PAD + _TITLE_HEIGHT + 12},
            text="no samples",
        )
        return render(svg)

    total = root.samples
    usable = width - 2 * _PAD
    scale = usable / total
    frames = svg.elem("g", {"class": "vz-flame"})

    def draw(node: _Node, x: float, row: int, is_root: bool) -> None:
        frame_width = node.samples * scale
        if frame_width < MIN_FRAME_PX:
            return
        y = _PAD + _TITLE_HEIGHT + row * ROW_HEIGHT
        group = frames.elem("g")
        rect_class = "vz-axis" if is_root else f"vz-ring vz-s{_slot(node.label)}"
        rect = group.elem(
            "rect",
            {
                "class": rect_class,
                "x": round(x, 2),
                "y": y,
                "width": round(frame_width, 2),
                "height": ROW_HEIGHT - 1,
                "rx": 1,
            },
        )
        if is_root:
            rect.attrs["fill"] = "none"
        percent = 100.0 * node.samples / total
        group.elem(
            "title", text=f"{node.label} — {node.samples} samples ({percent:.1f}%)"
        )
        if text_width(node.label, FONT_SIZE) <= frame_width - 4:
            group.elem(
                "text",
                {
                    "class": "vz-axlab",
                    "x": round(x + 3, 2),
                    "y": y + ROW_HEIGHT - 5,
                    "font-size": FONT_SIZE,
                },
                text=node.label,
            )
        cursor = x
        for label in sorted(node.children):
            child = node.children[label]
            draw(child, cursor, row + 1, is_root=False)
            cursor += child.samples * scale

    draw(root, float(_PAD), 0, is_root=True)
    return render(svg)

