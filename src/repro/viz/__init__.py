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

Rendering is wired into the evaluation task graph as first-class ``render``
tasks (see :mod:`repro.eval.taskgraph`), keyed by the content addresses of
their input artefacts, so figures are disk-cached and parallelise like every
other derived artefact.  Determinism is a hard requirement throughout: no
clocks, no randomness, no environment-dependent output.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.viz.figures": ("FIGURE_SPECS", "render_figure"),
    "repro.viz.report_html": ("build_report_html",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
