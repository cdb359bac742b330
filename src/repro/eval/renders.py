"""Figure renders as task-graph nodes: ``report --html`` and ``figure --svg``.

Each renderable figure is one ``render`` node (:func:`declare_figure_render`)
over the worker tasks its data comes from, keyed by
:func:`repro.eval.cache.render_key` over their content keys, so a warm run
re-renders nothing.  The figure data comes from the same aggregators as the
printed tables (:data:`FIGURE_DATA_AGGREGATORS`), so a chart can never
disagree with its table.  ``repro report --json`` declares no render, so it
never loads this module or :mod:`repro.viz`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.config import CompilerConfig
from repro.errors import ReproError
from repro.eval.cache import ArtifactCache
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
from repro.eval.taskgraph import TaskGraph, render_task
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
#: Render payloads running in pool workers look the function up here by id,
#: so every entry must stay a module-level function.
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


def compute_figure_render(
    figure_id: str,
    dep_ids: Sequence[str],
    dep_keys: Sequence[str],
    agg_arg,
    cache_spec: Optional[str],
    values: Optional[Dict] = None,
) -> str:
    """Render one figure to SVG markup (the ``render`` task payload).

    Runs anywhere: the parent passes the in-memory dependency *values* when
    executing inline, while pool workers rebuild the mapping from
    the shared cache via the (task id, content key) pairs — the same
    "dependency edges guarantee cache presence" contract sweep points rely
    on.  The figure data is produced by the registered aggregator (the same
    function behind the corresponding table/figure artefact, so charts can
    never diverge from the printed numbers) and handed to
    :func:`repro.viz.figures.render_figure`.
    """
    from repro.viz.figures import render_figure

    if values is None:
        cache = ArtifactCache(cache_spec)
        values = {}
        for task_id, key in zip(dep_ids, dep_keys):
            value = cache.get(key)
            if value is None:
                raise ReproError(
                    f"render:{figure_id} input '{task_id}' is missing from the cache at "
                    f"'{cache_spec}' (evicted mid-run?); re-run to recompute it"
                )
            values[task_id] = value
    aggregator = FIGURE_DATA_AGGREGATORS[figure_id]
    arg = tuple(agg_arg) if isinstance(agg_arg, (list, tuple)) else agg_arg
    return render_figure(figure_id, aggregator(values, arg))


def declare_figure_render(graph: TaskGraph, harness: EvaluationHarness, figure_id: str) -> str:
    """Declare the render node (and its input subgraph) for one figure.

    The render's dependencies are exactly the worker tasks the figure's
    aggregator reads, so its content key —
    :func:`repro.eval.cache.render_key` over the dependency keys — changes
    iff any input artefact (or any code, via the code digest folded into
    every compile key) changes.
    """
    names = tuple(harness.benchmark_names)
    if figure_id in SPLIT_FIGURE_WORKLOADS:
        benchmark = SPLIT_FIGURE_WORKLOADS[figure_id]
        agg_id = declare_split_sweep(graph, harness, benchmark)
        deps = graph.task(agg_id).deps
        agg_arg: object = benchmark
    elif figure_id in ("area", "pareto"):
        deps = tuple(harness.declare_compile(graph, name) for name in names)
        agg_arg = list(names)
    elif figure_id in EXPLORE_FIGURE_IDS:
        explored = explored_workloads(names)
        space = report_space()
        deps = tuple(
            harness.declare_explore_point(graph, name, space, candidate)
            for name in explored
            for candidate in report_candidates()
        )
        agg_arg = list(explored)
    else:
        declarer = ARTEFACT_DECLARERS.get(f"figure_{figure_id}")
        if declarer is None:
            known = ", ".join(RENDER_FIGURE_IDS)
            raise ReproError(f"no renderable figure '{figure_id}' (known: {known})")
        agg_id = declarer(graph, harness)
        deps = graph.task(agg_id).deps
        agg_arg = list(names)
    dep_keys = [graph.task(dep).key for dep in deps]
    return graph.add(
        render_task(
            figure_id,
            "repro.eval.renders:compute_figure_render",
            deps,
            dep_keys,
            agg_arg,
            harness._cache_root,
        )
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
    """One figure's SVG markup (``repro figure 6.x --svg``), cache-backed."""
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
    share the graph with the artefacts they draw, so ``--parallel`` pool
    workers pipeline compiles, sweep points and figure renders together, and
    a warm ``repro report --html`` re-renders nothing (render tasks hit the
    artifact cache like every other node).
    """
    harness = _harness(harness, config)
    graph = TaskGraph()
    artefact_ids = declare_report(graph, harness)
    render_ids = declare_report_renders(graph, harness)
    results = harness.execute(graph, parallel=parallel)
    artefacts = {artefact: results[task_id] for artefact, task_id in artefact_ids.items()}
    figures = {figure_id: results[task_id] for figure_id, task_id in render_ids.items()}
    return artefacts, figures
