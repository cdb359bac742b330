"""Figure renders as task-graph nodes: ``report --html`` and ``figure --svg``.

Each renderable figure is one ``render:<id>`` aggregate
(:func:`declare_figure_render`) over the worker tasks its data comes from:
the parent draws it from the values the run already holds, so a figure
needs no cache entry and no pool slot.  The figure data comes from the same
aggregators as the printed tables (:data:`FIGURE_DATA_AGGREGATORS`), so a
chart can never disagree with its table.  ``repro report --json`` declares
no render, so it never loads this module or :mod:`repro.viz`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.config import CompilerConfig
from repro.errors import ReproError
from repro.eval.experiments import (
    ARTEFACT_DECLARERS,
    EXPLORE_FIGURE_IDS,
    SPLIT_FIGURE_WORKLOADS,
    _agg_exploration,
    _agg_figure_6_1,
    _agg_figure_6_2,
    _agg_figure_6_5,
    _agg_figure_6_6,
    _agg_split_sweep,
    _agg_table_6_2,
    _harness,
    _run_one,
    declare_report,
    declare_split_sweep,
    explored_workloads,
    report_candidates,
)
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import TaskGraph, aggregate_task
from repro.explore.space import report_space


def _agg_pareto(results: Dict, names: Tuple[str, ...]) -> Dict:
    """Input data of the area/performance Pareto figure: each benchmark's
    LegUp and Twill (area, speedup) design points, from the compile artefacts."""
    rows = []
    for name in names:
        system = results[f"compile:{name}"].system
        rows.append(
            {
                "benchmark": name,
                "legup_luts": system.pure_hardware.area.luts,
                "legup_speedup": system.hw_speedup_vs_software,
                "twill_luts": system.twill.area.luts,
                "twill_speedup": system.speedup_vs_software,
            }
        )
    return {"rows": rows}


#: Figure id → the pure aggregator producing that figure's input data dict.
FIGURE_DATA_AGGREGATORS: Dict[str, Callable[..., Dict]] = {
    "6.1": _agg_figure_6_1,
    "6.2": _agg_figure_6_2,
    "6.3": _agg_split_sweep,
    "6.4": _agg_split_sweep,
    "6.5": _agg_figure_6_5,
    "6.6": _agg_figure_6_6,
    "area": _agg_table_6_2,
    "pareto": _agg_pareto,
    # Both exploration figures draw the same aggregated search data.
    "explore": _agg_exploration,
    "explore-progress": _agg_exploration,
}

#: Figures renderable to SVG, in HTML-report order: the six thesis figures
#: plus the composite and exploration figures built from the same
#: artefacts.  tests/test_viz.py pins this to the order of
#: :data:`repro.viz.figures.FIGURE_SPECS`, which this module imports only
#: when it renders.
RENDER_FIGURE_IDS: Tuple[str, ...] = tuple(FIGURE_DATA_AGGREGATORS)


def _render_figure(results: Dict, figure_id: str, agg_arg) -> str:
    """One figure's SVG markup: its registered aggregator's data, drawn by
    :func:`repro.viz.figures.render_figure` (the ``render:<id>`` aggregate)."""
    from repro.viz.figures import render_figure

    return render_figure(figure_id, FIGURE_DATA_AGGREGATORS[figure_id](results, agg_arg))


def declare_figure_render(graph: TaskGraph, harness: EvaluationHarness, figure_id: str) -> str:
    """Declare the ``render:<id>`` aggregate (and its input subgraph) for one figure.

    The node is a parent-side aggregate over exactly the worker tasks the
    figure's aggregator reads, so it draws from the values the run already
    holds and stores nothing in the cache.
    """
    names = tuple(harness.benchmark_names)
    if figure_id in SPLIT_FIGURE_WORKLOADS:
        benchmark = SPLIT_FIGURE_WORKLOADS[figure_id]
        agg_id = declare_split_sweep(graph, harness, benchmark)
        deps = graph.task(agg_id).deps
        agg_arg: object = benchmark
    elif figure_id in ("area", "pareto"):
        deps = tuple(harness.declare_compile(graph, name) for name in names)
        agg_arg = names
    elif figure_id in EXPLORE_FIGURE_IDS:
        explored = explored_workloads(names)
        space = report_space()
        deps = tuple(
            harness.declare_explore_point(graph, name, space, candidate)
            for name in explored
            for candidate in report_candidates()
        )
        agg_arg = explored
    else:
        declarer = ARTEFACT_DECLARERS.get(f"figure_{figure_id}")
        if declarer is None:
            known = ", ".join(RENDER_FIGURE_IDS)
            raise ReproError(f"no renderable figure '{figure_id}' (known: {known})")
        agg_id = declarer(graph, harness)
        deps = graph.task(agg_id).deps
        agg_arg = names
    return graph.add(
        aggregate_task(f"render:{figure_id}", _render_figure, deps, (figure_id, agg_arg))
    )


def declare_report_renders(graph: TaskGraph, harness: EvaluationHarness) -> Dict[str, str]:
    """Declare every renderable figure valid for the harness's benchmark set."""
    names = set(harness.benchmark_names)
    mapping: Dict[str, str] = {}
    for figure_id in RENDER_FIGURE_IDS:
        workload = SPLIT_FIGURE_WORKLOADS.get(figure_id)
        if workload is not None and workload not in names:
            continue
        if figure_id in EXPLORE_FIGURE_IDS and not explored_workloads(names):
            continue
        mapping[figure_id] = declare_figure_render(graph, harness, figure_id)
    return mapping


def figure_svg(
    figure_id: str,
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> str:
    """One figure's SVG markup (``repro figure 6.x --svg``)."""
    return _run_one(
        lambda graph, h: declare_figure_render(graph, h, figure_id), harness, config, parallel
    )


def run_report_figures(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Tuple[Dict[str, Dict], Dict[str, str]]:
    """The full report plus every rendered figure, as one merged task graph.

    Returns ``(artefacts, figures)``: the same artefact mapping
    :func:`run_report` produces, and ``figure id → SVG markup``.  Renders
    share the graph with the artefacts they draw, so each figure is drawn
    in the parent as soon as its last input is done, and a warm
    ``repro report --html`` computes nothing but the figures themselves.
    """
    harness = _harness(harness, config)
    graph = TaskGraph()
    artefact_ids = declare_report(graph, harness)
    render_ids = declare_report_renders(graph, harness)
    results = harness.execute(graph, parallel=parallel)
    artefacts = {artefact: results[task_id] for artefact, task_id in artefact_ids.items()}
    figures = {figure_id: results[task_id] for figure_id, task_id in render_ids.items()}
    return artefacts, figures
