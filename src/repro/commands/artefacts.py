"""``repro run / sweep / table / figure / graph / cache``.

One workload's compile, a sensitivity sweep, one thesis table or figure
(``figure --svg`` renders it through :mod:`repro.eval.renders`), the report
task graph without running it, and the artifact cache's maintenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

from repro.cli import FIGURES, TABLES
from repro.commands import check_split_workload, emit, make_harness
from repro.errors import ReproError


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload

    get_workload(args.workload)  # fail fast before building a harness
    harness = make_harness(args, benchmarks=[args.workload])
    run = harness.run(args.workload)
    result = run.result
    if args.sw_fraction is not None:
        data = harness.twill_cycles_with_split(args.workload, args.sw_fraction)
        data = {"benchmark": args.workload, "sw_fraction": args.sw_fraction, **data}
        print(json.dumps(data, indent=2, sort_keys=True) if args.json else "\n".join(f"{k:14s}: {v}" for k, v in data.items()))
        return 0
    if args.json:
        payload = {"outputs_match": run.functional_outputs_match(), **result.summary_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.report())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    if args.kind == "latency":
        harness = make_harness(args)
        emit(experiments.figure_6_5(harness, parallel=args.parallel), args)
    elif args.kind == "depth":
        harness = make_harness(args)
        emit(experiments.figure_6_6(harness, parallel=args.parallel), args)
    else:  # split
        workload = args.workload or "mips"
        check_split_workload(workload, args)
        harness = make_harness(args, benchmarks=[workload])
        emit(experiments.split_sweep(workload, harness, parallel=args.parallel), args)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    harness = make_harness(args)
    emit(getattr(experiments, TABLES[args.id])(harness, parallel=args.parallel), args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    split_workload = experiments.SPLIT_FIGURE_WORKLOADS.get(args.id)
    if split_workload:
        check_split_workload(split_workload, args)
    harness = make_harness(args, benchmarks=[split_workload] if split_workload else None)
    if args.svg:
        from repro.eval.renders import figure_svg

        markup = figure_svg(args.id, harness, parallel=args.parallel)
        if args.svg == "-":
            print(markup, end="")
        else:
            path = Path(args.svg)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(markup, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
        return 0
    emit(getattr(experiments, FIGURES[args.id])(harness, parallel=args.parallel), args)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    """Print the full report task graph without executing any of it."""
    from repro.eval import experiments
    from repro.eval.taskgraph import TaskGraph
    from repro.workloads import get_workload

    harness = make_harness(args)
    graph = TaskGraph()
    artefacts = experiments.declare_report(graph, harness)
    order = graph.topological_order()
    counts: Dict[str, int] = {}
    for task in order:
        counts[task.kind] = counts.get(task.kind, 0) + 1
    if args.json:
        payload = {
            "benchmarks": harness.benchmark_names,
            "artefacts": artefacts,
            "tasks": [
                {
                    "id": task.task_id,
                    "kind": task.kind,
                    "key": task.key,
                    "deps": list(task.deps),
                    **(
                        {"source_digest": get_workload(task.workload).source_digest()}
                        if task.kind == "compile"
                        else {}
                    ),
                }
                for task in order
            ],
            "counts": counts,
            "edges": graph.edge_count(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for task in order:
        key = (task.key or "")[:12]
        deps = ", ".join(task.deps) if task.deps else "-"
        if task.kind == "compile":
            deps = f"src={get_workload(task.workload).source_digest()[:12]}"
        print(f"{task.kind:10s} {key:12s} {task.task_id}  <- {deps}")
    print(
        f"\n{len(order)} tasks ({counts.get('compile', 0)} compile, "
        f"{counts.get('runtime', 0)} runtime points, {counts.get('explore', 0)} design points, "
        f"{counts.get('aggregate', 0)} aggregates), {graph.edge_count()} dependency edges"
    )
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (e.g. ``512M``)."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3}
    raw = text.strip().lower().rstrip("b")
    factor = 1
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except (ValueError, OverflowError):
        raise ReproError(f"invalid size '{text}' (expected e.g. 104857600, 100M, 1.5G)") from None
    if value < 0:
        raise ReproError(f"size must be non-negative, got '{text}'")
    return value


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.eval.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir or None)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"cache root     : {stats['root']}")
            print(f"entries        : {stats['entries']}")
            print(f"total size     : {stats['total_bytes'] / (1024 * 1024):.1f} MiB")
            print(f"schema version : {stats['schema_version']}")
    elif args.action == "prune":
        if args.max_bytes is None:
            raise ReproError("cache prune requires --max-bytes (e.g. --max-bytes 100M)")
        summary = cache.prune(_parse_size(args.max_bytes))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"pruned {summary['removed_entries']} entries "
                f"({summary['freed_bytes'] / (1024 * 1024):.1f} MiB) from {summary['root']}; "
                f"{summary['remaining_entries']} entries "
                f"({summary['remaining_bytes'] / (1024 * 1024):.1f} MiB) remain"
            )
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0
