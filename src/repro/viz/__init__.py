"""Rendering subsystem: deterministic, dependency-free SVG figures and reports.

``repro.viz`` turns the structured result dictionaries produced by
:mod:`repro.eval.experiments` into visual artefacts using nothing but the
standard library:

* :mod:`repro.viz.svg` — a tiny SVG element builder with deterministic
  serialisation (stable attribute and element ordering, fixed-precision
  number formatting), so rendering the same data twice yields byte-identical
  markup;
* :mod:`repro.viz.scales` — linear/band/point scales and nice-tick
  computation shared by every chart;
* :mod:`repro.viz.theme` — the colour palette (light + dark), mark metrics
  and embedded stylesheet;
* :mod:`repro.viz.charts` — the chart forms (grouped/stacked bars, line
  sweeps, scatter, execution timeline) built from those primitives;
* :mod:`repro.viz.figures` — declarative figure specs mapping the thesis
  Figure 6.1-6.6 result dicts (plus two composite figures) onto charts;
* :mod:`repro.viz.report_html` — the self-contained ``report.html``
  assembler behind ``repro report --html``.

Each figure is a ``render:<id>`` aggregate of the evaluation task graph
(see :mod:`repro.eval.renders`), drawn in the parent from the values its
inputs already produced.  Determinism is a hard requirement throughout: no
clocks, no randomness, no environment-dependent output.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.viz.figures": ("FIGURE_SPECS", "render_figure"),
    "repro.viz.report_html": ("build_report_html",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
