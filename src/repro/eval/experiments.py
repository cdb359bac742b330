"""Generators for every table and figure of thesis Chapter 6.

Each public function returns a dictionary with a ``rows`` list (one entry per
benchmark / sweep point) and a ``table`` string rendered with
:func:`repro.core.report.format_result_table`, so the benchmark harness can
both assert on the numbers and print output that mirrors the corresponding
artefact of the thesis.

Since PR 2 the generators *declare* their work as
:mod:`repro.eval.taskgraph` DAGs instead of looping inline: compile nodes,
one node per (workload, sweep-point), and a parent-side aggregate node that
builds the rows and table from its dependencies' values.  ``run_report``
merges every artefact into one graph, so ``repro report --parallel N``
schedules all workload compiles *and* all sweep points as independent jobs;
``declare_report`` exposes the same graph to ``repro graph`` without
executing it.  Aggregation order is fixed by declaration, so serial and
parallel runs produce byte-identical artefacts.  The figure renders of
``repro report --html`` and ``repro figure --svg`` are declared by
:mod:`repro.eval.renders`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import CompilerConfig, RuntimeConfig
from repro.core.report import arithmetic_mean, format_result_table, geometric_mean
from repro.errors import ReproError
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import TaskGraph, aggregate_task, explore_task_id
from repro.explore.frontier import Frontier, scalar_cost
from repro.explore.space import report_space
from repro.workloads import get_workload


# Sweep points used by the thesis.
QUEUE_LATENCIES = [2, 8, 32, 128]          # Figure 6.5
QUEUE_DEPTHS = [2, 8, 32]                  # Figure 6.6
SPLIT_POINTS = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75]   # Figures 6.3 / 6.4
# Figure 6.6 normalises to the thesis's 8-entry queues; declared separately
# from QUEUE_DEPTHS so editing the swept list cannot orphan the baseline.
FIGURE_6_6_BASE_DEPTH = 8

#: Workload each split-sweep figure is defined over (thesis Figures 6.3/6.4).
SPLIT_FIGURE_WORKLOADS = {"6.3": "mips", "6.4": "blowfish"}


def _harness(
    harness: Optional[EvaluationHarness], config: Optional[CompilerConfig] = None
) -> EvaluationHarness:
    """The harness an experiment runs against.

    An explicit *harness* wins; otherwise the caller's *config* is threaded
    through :meth:`EvaluationHarness.shared`, so ``figure_6_5(config=c)`` and
    ``table_6_1(config=c)`` land on the same shared instance instead of one
    of them silently falling back to the default configuration.
    """
    if harness is not None:
        return harness
    return EvaluationHarness.shared(config=config)


# ---------------------------------------------------------------------------
# shared aggregation helpers
# ---------------------------------------------------------------------------


def _compile_rows(
    results: Dict, names: Sequence[str], row_of: Callable
) -> List[Dict]:
    """One row per benchmark, built from that benchmark's compile artifact.

    The single row-building loop behind every per-benchmark artefact
    (Tables 6.1/6.2, Figures 6.1/6.2): *row_of* maps one
    ``CompilationResult`` (and its registered workload) to a row dict.
    """
    return [
        row_of(results[f"compile:{name}"], get_workload(name)) for name in names
    ]


def _sweep_rows(
    results: Dict,
    names: Sequence[str],
    label: str,
    values: Sequence[int],
    base_value: int,
) -> List[Dict]:
    """One row per benchmark for a runtime sensitivity sweep (Figures 6.5/6.6).

    Each row holds ``{label}_{value}`` speedups normalised to the cycle count
    at *base_value*, read from the ``sweep:{label}:{name}:{value}`` nodes.
    """
    rows = []
    for name in names:
        base_cycles = results[f"sweep:{label}:{name}:{base_value}"]
        entry: Dict = {"benchmark": name}
        for value in values:
            cycles = results[f"sweep:{label}:{name}:{value}"]
            entry[f"{label}_{value}"] = base_cycles / max(cycles, 1e-9)
        rows.append(entry)
    return rows


def _run_one(
    declare: Callable[[TaskGraph, EvaluationHarness], str],
    harness: Optional[EvaluationHarness],
    config: Optional[CompilerConfig],
    parallel: Optional[int],
) -> Dict:
    """Declare one artefact's graph on a fresh :class:`TaskGraph` and run it."""
    harness = _harness(harness, config)
    graph = TaskGraph()
    aggregate_id = declare(graph, harness)
    return harness.execute(graph, parallel=parallel)[aggregate_id]


def _declare_per_benchmark(
    graph: TaskGraph, harness: EvaluationHarness, task_id: str, agg_fn: Callable
) -> str:
    """Declare the common per-benchmark shape: one compile node per workload
    fanning into a single aggregate (Tables 6.1/6.2, Figures 6.1/6.2, §6.7)."""
    names = tuple(harness.benchmark_names)
    deps = [harness.declare_compile(graph, name) for name in names]
    return graph.add(aggregate_task(task_id, agg_fn, deps, (names,)))


# ---------------------------------------------------------------------------
# Table 6.1 — DSWP results: queues, semaphores, hardware threads
# ---------------------------------------------------------------------------


def _agg_table_6_1(results: Dict, names: Tuple[str, ...]) -> Dict:
    def row_of(result, workload):
        summary = result.dswp_summary()
        return {
            "benchmark": result.name,
            "queues": int(summary["queues"]),
            "semaphores": int(summary["semaphores"]),
            "hw_threads": int(summary["hw_threads"]),
            "paper_queues": workload.paper_queues,
            "paper_semaphores": workload.paper_semaphores,
            "paper_hw_threads": workload.paper_hw_threads,
            "sw_fraction": summary["sw_fraction"],
        }

    rows = _compile_rows(results, names, row_of)
    table = format_result_table(
        ["benchmark", "queues", "semaphores", "HW threads", "paper queues", "paper HW threads"],
        [
            [r["benchmark"], r["queues"], r["semaphores"], r["hw_threads"], r["paper_queues"] or 0, r["paper_hw_threads"] or 0]
            for r in rows
        ],
        title="Table 6.1 — DSWP results (measured vs paper)",
    )
    return {"rows": rows, "table": table}


def _declare_table_6_1(graph: TaskGraph, harness: EvaluationHarness) -> str:
    return _declare_per_benchmark(graph, harness, "table:6.1", _agg_table_6_1)


def table_6_1(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_table_6_1, harness, config, parallel)


# ---------------------------------------------------------------------------
# Table 6.2 — LUT area
# ---------------------------------------------------------------------------


def _agg_table_6_2(results: Dict, names: Tuple[str, ...]) -> Dict:
    def row_of(result, workload):
        system = result.system
        microblaze = system.twill.area.detail.get("microblaze", 0)
        return {
            "benchmark": result.name,
            "legup_luts": system.pure_hardware.area.luts,
            "twill_hwthreads_luts": system.hw_thread_area.luts,
            "twill_luts": system.twill.area.luts - microblaze,
            "twill_plus_microblaze_luts": system.twill.area.luts,
            "hw_thread_area_reduction": system.area_ratio_hw_threads,
        }

    rows = _compile_rows(results, names, row_of)
    table = format_result_table(
        ["benchmark", "LegUp", "Twill HWThreads", "Twill", "Twill + Microblaze"],
        [
            [r["benchmark"], r["legup_luts"], r["twill_hwthreads_luts"], r["twill_luts"], r["twill_plus_microblaze_luts"]]
            for r in rows
        ],
        title="Table 6.2 — FPGA LUTs: LegUp pure HW vs Twill",
    )
    return {"rows": rows, "table": table}


def _declare_table_6_2(graph: TaskGraph, harness: EvaluationHarness) -> str:
    return _declare_per_benchmark(graph, harness, "table:6.2", _agg_table_6_2)


def table_6_2(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_table_6_2, harness, config, parallel)


# ---------------------------------------------------------------------------
# Figure 6.1 — power normalised to pure software
# ---------------------------------------------------------------------------


def _agg_figure_6_1(results: Dict, names: Tuple[str, ...]) -> Dict:
    def row_of(result, workload):
        norm = result.system.power_normalised()
        return {
            "benchmark": result.name,
            "pure_sw": norm["pure_sw"],
            "pure_hw": norm["pure_hw"],
            "twill": norm["twill"],
        }

    rows = _compile_rows(results, names, row_of)
    table = format_result_table(
        ["benchmark", "pure SW", "pure HW (LegUp)", "Twill"],
        [[r["benchmark"], r["pure_sw"], r["pure_hw"], r["twill"]] for r in rows],
        title="Figure 6.1 — power normalised to the pure MicroBlaze implementation",
    )
    return {"rows": rows, "table": table}


def _declare_figure_6_1(graph: TaskGraph, harness: EvaluationHarness) -> str:
    return _declare_per_benchmark(graph, harness, "figure:6.1", _agg_figure_6_1)


def figure_6_1(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_figure_6_1, harness, config, parallel)


# ---------------------------------------------------------------------------
# Figure 6.2 — performance speedups normalised to pure software
# ---------------------------------------------------------------------------


def _agg_figure_6_2(results: Dict, names: Tuple[str, ...]) -> Dict:
    def row_of(result, workload):
        system = result.system
        return {
            "benchmark": result.name,
            "pure_hw_speedup": system.hw_speedup_vs_software,
            "twill_speedup": system.speedup_vs_software,
            "twill_vs_hw": system.speedup_vs_hardware,
        }

    rows = _compile_rows(results, names, row_of)
    mean_twill_vs_hw = arithmetic_mean([r["twill_vs_hw"] for r in rows])
    mean_twill_vs_sw = arithmetic_mean([r["twill_speedup"] for r in rows])
    table = format_result_table(
        ["benchmark", "LegUp HW speedup", "Twill speedup", "Twill vs HW"],
        [[r["benchmark"], r["pure_hw_speedup"], r["twill_speedup"], r["twill_vs_hw"]] for r in rows],
        title="Figure 6.2 — speedups normalised to the pure SW implementation",
    )
    return {
        "rows": rows,
        "table": table,
        "mean_twill_vs_hw": mean_twill_vs_hw,
        "mean_twill_vs_sw": mean_twill_vs_sw,
    }


def _declare_figure_6_2(graph: TaskGraph, harness: EvaluationHarness) -> str:
    return _declare_per_benchmark(graph, harness, "figure:6.2", _agg_figure_6_2)


def figure_6_2(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_figure_6_2, harness, config, parallel)


# ---------------------------------------------------------------------------
# Figures 6.3 / 6.4 — partition-split sweeps (MIPS and Blowfish)
# ---------------------------------------------------------------------------


def _agg_split_sweep(results: Dict, benchmark: str) -> Dict:
    baseline = results[f"compile:{benchmark}"].system.pure_software.cycles
    rows = []
    for split in SPLIT_POINTS:
        data = results[f"sweep:split:{benchmark}:{split}"]
        rows.append(
            {
                "sw_fraction": split,
                "cycles": data["cycles"],
                "queues": int(data["queues"]),
                "speedup_vs_sw": baseline / max(data["cycles"], 1e-9),
            }
        )
    table = format_result_table(
        ["targeted SW share", "Twill cycles", "queues", "speedup vs SW"],
        [[r["sw_fraction"], r["cycles"], r["queues"], r["speedup_vs_sw"]] for r in rows],
        title=f"{benchmark} performance vs targeted partition split point",
    )
    return {"benchmark": benchmark, "rows": rows, "table": table}


def declare_split_sweep(graph: TaskGraph, harness: EvaluationHarness, benchmark: str) -> str:
    """Declare the Figure 6.3/6.4-style split-sweep subgraph for *benchmark*."""
    deps = [harness.declare_compile(graph, benchmark)]
    for split in SPLIT_POINTS:
        deps.append(harness.declare_split_point(graph, benchmark, split))
    return graph.add(
        aggregate_task(f"figure:split:{benchmark}", _agg_split_sweep, deps, (benchmark,))
    )


def split_sweep(
    benchmark: str,
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    """Figure 6.3/6.4-style split sweep for an arbitrary workload (used by the CLI)."""
    return _run_one(
        lambda graph, h: declare_split_sweep(graph, h, benchmark), harness, config, parallel
    )


def figure_6_3(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    """MIPS benchmark performance with various targeted partition split points."""
    return split_sweep("mips", harness, config, parallel)


def figure_6_4(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    """Blowfish benchmark performance with various targeted partition split points."""
    return split_sweep("blowfish", harness, config, parallel)


# ---------------------------------------------------------------------------
# Figure 6.5 — queue latency sensitivity
# ---------------------------------------------------------------------------


def _agg_figure_6_5(results: Dict, names: Tuple[str, ...]) -> Dict:
    rows = _sweep_rows(results, names, "latency", QUEUE_LATENCIES, QUEUE_LATENCIES[0])
    mean_slowdown_128 = 1.0 - arithmetic_mean([r[f"latency_{QUEUE_LATENCIES[-1]}"] for r in rows])
    table = format_result_table(
        ["benchmark"] + [f"lat {latency}" for latency in QUEUE_LATENCIES],
        [[r["benchmark"]] + [r[f"latency_{latency}"] for latency in QUEUE_LATENCIES] for r in rows],
        title="Figure 6.5 — Twill speedup normalised to 2-cycle queue latency",
    )
    return {"rows": rows, "table": table, "mean_slowdown_at_128": mean_slowdown_128}


def _declare_figure_6_5(graph: TaskGraph, harness: EvaluationHarness) -> str:
    names = tuple(harness.benchmark_names)
    deps = []
    for name in names:
        for latency in QUEUE_LATENCIES:
            deps.append(
                harness.declare_runtime_point(
                    graph, name, RuntimeConfig(queue_latency=latency), f"latency:{name}:{latency}"
                )
            )
    return graph.add(aggregate_task("figure:6.5", _agg_figure_6_5, deps, (names,)))


def figure_6_5(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_figure_6_5, harness, config, parallel)


# ---------------------------------------------------------------------------
# Figure 6.6 — queue length sensitivity
# ---------------------------------------------------------------------------


def _agg_figure_6_6(results: Dict, names: Tuple[str, ...]) -> Dict:
    rows = _sweep_rows(results, names, "depth", QUEUE_DEPTHS, FIGURE_6_6_BASE_DEPTH)
    mean_slowdown_short = 1.0 - arithmetic_mean([r[f"depth_{QUEUE_DEPTHS[0]}"] for r in rows])
    table = format_result_table(
        ["benchmark"] + [f"depth {d}" for d in QUEUE_DEPTHS],
        [[r["benchmark"]] + [r[f"depth_{d}"] for d in QUEUE_DEPTHS] for r in rows],
        title="Figure 6.6 — Twill speedup normalised to 8-entry queues",
    )
    return {"rows": rows, "table": table, "mean_slowdown_at_depth_2": mean_slowdown_short}


def _declare_figure_6_6(graph: TaskGraph, harness: EvaluationHarness) -> str:
    names = tuple(harness.benchmark_names)
    depths = list(dict.fromkeys([FIGURE_6_6_BASE_DEPTH] + QUEUE_DEPTHS))
    deps = []
    for name in names:
        for depth in depths:
            deps.append(
                harness.declare_runtime_point(
                    graph, name, RuntimeConfig(queue_depth=depth), f"depth:{name}:{depth}"
                )
            )
    return graph.add(aggregate_task("figure:6.6", _agg_figure_6_6, deps, (names,)))


def figure_6_6(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_figure_6_6, harness, config, parallel)


# ---------------------------------------------------------------------------
# §6.7 — headline aggregates
# ---------------------------------------------------------------------------


def _agg_summary(results: Dict, names: Tuple[str, ...]) -> Dict:
    compiled = [results[f"compile:{name}"] for name in names]
    twill_vs_sw = [r.system.speedup_vs_software for r in compiled]
    twill_vs_hw = [r.system.speedup_vs_hardware for r in compiled]
    area_reduction = [r.system.area_ratio_hw_threads for r in compiled]
    area_increase = [r.system.area_ratio_total for r in compiled]
    result = {
        "mean_speedup_vs_sw": arithmetic_mean(twill_vs_sw),
        "geomean_speedup_vs_sw": geometric_mean(twill_vs_sw),
        "mean_speedup_vs_hw": arithmetic_mean(twill_vs_hw),
        "mean_hw_area_reduction": arithmetic_mean(area_reduction),
        "mean_total_area_increase": arithmetic_mean(area_increase),
        "paper_speedup_vs_sw": 22.2,
        "paper_speedup_vs_hw": 1.63,
        "paper_hw_area_reduction": 1.73,
        "paper_total_area_increase": 1.35,
    }
    table = format_result_table(
        ["metric", "measured", "paper"],
        [
            ["Twill speedup vs pure SW (mean)", result["mean_speedup_vs_sw"], result["paper_speedup_vs_sw"]],
            ["Twill speedup vs pure HW (mean)", result["mean_speedup_vs_hw"], result["paper_speedup_vs_hw"]],
            ["HW-thread area reduction", result["mean_hw_area_reduction"], result["paper_hw_area_reduction"]],
            ["Total area increase w/ runtime", result["mean_total_area_increase"], result["paper_total_area_increase"]],
        ],
        title="Results overview (§6.7): measured vs paper",
    )
    result["table"] = table
    return result


def _declare_summary(graph: TaskGraph, harness: EvaluationHarness) -> str:
    return _declare_per_benchmark(graph, harness, "summary:6.7", _agg_summary)


def summary(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict:
    return _run_one(_declare_summary, harness, config, parallel)


# ---------------------------------------------------------------------------
# the report's embedded design-space exploration (repro.explore)
# ---------------------------------------------------------------------------

#: Workloads the report explores (the two the thesis dedicates split-sweep
#: figures to — also the two cheapest to re-simulate); restricted benchmark
#: sets explore the intersection.
EXPLORE_REPORT_WORKLOADS = ("mips", "blowfish")

#: Figure ids of the exploration section (frontier scatter + progress line).
EXPLORE_FIGURE_IDS = ("explore", "explore-progress")


def report_candidates() -> List:
    """The report's exhaustive candidate list (deterministic order).

    The full budgeted search lives behind ``repro explore``; the report
    embeds a small *fixed* exploration — the nine-point
    :func:`repro.explore.space.report_space` enumerated exhaustively — so
    the exploration section stays a pure, declarable function of the
    compile artefacts like every other report artefact.
    """
    return list(report_space().candidates())


def explored_workloads(names: Sequence[str]) -> Tuple[str, ...]:
    """The subset of *names* the report's exploration section covers."""
    return tuple(n for n in EXPLORE_REPORT_WORKLOADS if n in set(names))


def _agg_exploration(results: Dict, names: Tuple[str, ...]) -> Dict:
    """Rows, Pareto flags, per-workload bests and search progress.

    *names* is the tuple of **explored** workloads.  Reads one explore node
    per (workload, report candidate); every derived quantity (frontier
    membership, best-found, the progress curve) is recomputed here from
    those values, so the exploration section can never disagree with the
    cached candidate evaluations.
    """
    candidates = report_candidates()
    space = report_space()
    rows: List[Dict] = []
    best_rows: List[Dict] = []
    progress: Dict[str, List[float]] = {}
    frontier_sizes: Dict[str, int] = {}
    for name in names:
        evaluations = [
            (candidate.params(), results[explore_task_id(name, candidate)])
            for candidate in candidates
        ]
        frontier = Frontier(evaluations)
        frontier_indices = set(frontier.indices)
        frontier_sizes[name] = len(frontier)
        for index, (params, result) in enumerate(evaluations):
            rows.append(
                {
                    "benchmark": name,
                    **params,
                    "cycles": result["cycles"],
                    "area_luts": result["area_luts"],
                    "power_mw": result["power_mw"],
                    "speedup_vs_sw": result["speedup_vs_sw"],
                    "pareto": index in frontier_indices,
                }
            )
        best_params, best_result = min(
            evaluations, key=lambda pair: (scalar_cost(pair[1]), sorted(pair[0].items()))
        )
        best_rows.append(
            {
                "benchmark": name,
                **best_params,
                "cycles": best_result["cycles"],
                "area_luts": best_result["area_luts"],
                "power_mw": best_result["power_mw"],
                "speedup_vs_sw": best_result["speedup_vs_sw"],
            }
        )
        # Best-so-far objective product relative to the first evaluation —
        # the search-progress curve (1.0 = no better than the start).
        curve: List[float] = []
        best_cost = float("inf")
        first_cost: Optional[float] = None
        for _, result in evaluations:
            cost = scalar_cost(result)
            if first_cost is None:
                first_cost = cost
            best_cost = min(best_cost, cost)
            curve.append(math.exp(best_cost - first_cost))
        progress[name] = curve
    table = format_result_table(
        ["benchmark"] + [dim.name for dim in space.dimensions]
        + ["cycles", "area (LUTs)", "power (mW)", "speedup vs SW"],
        [
            [r["benchmark"]] + [r[dim.name] for dim in space.dimensions]
            + [r["cycles"], r["area_luts"], r["power_mw"], r["speedup_vs_sw"]]
            for r in best_rows
        ],
        title="Design-space exploration — best configuration found per workload",
    )
    return {
        "rows": rows,
        "best_rows": best_rows,
        "workloads": list(names),
        "frontier_sizes": frontier_sizes,
        "progress": progress,
        "evaluations_per_workload": len(candidates),
        "table": table,
    }


def declare_exploration(graph: TaskGraph, harness: EvaluationHarness) -> str:
    """Declare the report's exploration subgraph: one ``explore`` node per
    (explored workload, report candidate) fanning into one aggregate."""
    names = explored_workloads(harness.benchmark_names)
    if not names:
        raise ReproError(
            "the report exploration is defined over "
            f"{', '.join(EXPLORE_REPORT_WORKLOADS)}; none is in this benchmark set"
        )
    space = report_space()
    deps: List[str] = []
    for name in names:
        for candidate in report_candidates():
            deps.append(harness.declare_explore_point(graph, name, space, candidate))
    return graph.add(aggregate_task("exploration", _agg_exploration, deps, (names,)))


# ---------------------------------------------------------------------------
# the full report as one graph
# ---------------------------------------------------------------------------

#: Artefact key → declarer, in thesis (and ``repro report``) order; the
#: exploration section follows the thesis artefacts.
ARTEFACT_DECLARERS: Dict[str, Callable[[TaskGraph, EvaluationHarness], str]] = {
    "table_6.1": _declare_table_6_1,
    "table_6.2": _declare_table_6_2,
    "figure_6.1": _declare_figure_6_1,
    "figure_6.2": _declare_figure_6_2,
    "figure_6.3": lambda graph, h: declare_split_sweep(graph, h, "mips"),
    "figure_6.4": lambda graph, h: declare_split_sweep(graph, h, "blowfish"),
    "figure_6.5": _declare_figure_6_5,
    "figure_6.6": _declare_figure_6_6,
    "summary": _declare_summary,
    "exploration": declare_exploration,
}

#: Artefacts that are only defined when a specific workload is in the
#: benchmark set, keyed by their ARTEFACT_DECLARERS name (built from
#: SPLIT_FIGURE_WORKLOADS so the two registries cannot drift apart).
ARTEFACT_REQUIRED_WORKLOAD: Dict[str, str] = {
    f"figure_{figure_id}": workload for figure_id, workload in SPLIT_FIGURE_WORKLOADS.items()
}


def declare_report(graph: TaskGraph, harness: EvaluationHarness) -> Dict[str, str]:
    """Declare every report artefact on *graph*; returns artefact → aggregate id.

    The split-sweep figures are defined over one specific workload each and
    are skipped when the harness's benchmark set excludes it (matching the
    CLI's behaviour for ``--benchmarks`` restrictions).
    """
    # The compiles come first, longest C source first: a ``-j N`` pool
    # starts the oldest workload no slot holds, so the largest starts first
    # (Graham's longest-processing-time-first rule, on the only size of a
    # workload known before it compiles).  No output depends on this order.
    for name in sorted(harness.benchmark_names, key=lambda n: -len(get_workload(n).source)):
        harness.declare_compile(graph, name)
    names = set(harness.benchmark_names)
    mapping: Dict[str, str] = {}
    for artefact, declare in ARTEFACT_DECLARERS.items():
        workload = ARTEFACT_REQUIRED_WORKLOAD.get(artefact)
        if workload is not None and workload not in names:
            continue
        if artefact == "exploration" and not explored_workloads(names):
            continue
        mapping[artefact] = declare(graph, harness)
    return mapping


def run_report(
    harness: Optional[EvaluationHarness] = None,
    config: Optional[CompilerConfig] = None,
    parallel: Optional[int] = None,
) -> Dict[str, Dict]:
    """Every table, figure and the §6.7 summary, computed as one task graph.

    With ``parallel=N`` all compile nodes and every (workload, sweep-point)
    node across all artefacts schedule as independent jobs, and the output
    is byte-identical to the serial run.
    """
    harness = _harness(harness, config)
    graph = TaskGraph()
    mapping = declare_report(graph, harness)
    results = harness.execute(graph, parallel=parallel)
    return {artefact: results[task_id] for artefact, task_id in mapping.items()}
