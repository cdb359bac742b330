"""``repro explore / ingest / difftest``.

The budgeted design-space search (docs/EXPLORATION.md), registering a raw C
file as a workload (docs/INGESTION.md), and the interpreter-vs-replay
differential test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.commands import make_harness, record_run_history, render_markdown, requested_benchmarks
from repro.errors import ReproError


def _explore_text(result) -> str:
    """One workload's exploration outcome as aligned text tables."""
    from repro.core.report import format_result_table

    dims = [dim.name for dim in result.space.dimensions]
    rows = [
        [row["params"][dim] for dim in dims]
        + [row["cycles"], row["area_luts"], row["power_mw"], row.get("speedup_vs_sw", 0.0)]
        for row in result.frontier.to_rows()
    ]
    table = format_result_table(
        dims + ["cycles", "area (LUTs)", "power (mW)", "speedup vs SW"],
        rows,
        title=(
            f"{result.workload}: Pareto frontier — {len(rows)} of "
            f"{len(result.evaluations)} evaluated candidates "
            f"({result.strategy}, budget {result.budget}, seed {result.seed})"
        ),
    )
    best = result.best_row()
    best_params = ", ".join(f"{k}={v}" for k, v in best["params"].items())
    return (
        table
        + f"\nbest found: {best_params} -> {best['cycles']:.0f} cycles, "
        f"{best['area_luts']:,} LUTs, {best['power_mw']:.0f} mW "
        f"({best['speedup_vs_sw']:.2f}x vs SW)"
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    """``repro explore``: search the partition/configuration design space."""
    from repro.explore.driver import ExplorationDriver, run_searches
    from repro.workloads import all_workloads, get_workload

    if args.workload == "all":
        names = requested_benchmarks(args) or [w.name for w in all_workloads()]
    else:
        get_workload(args.workload)  # fail fast before building a harness
        requested = requested_benchmarks(args)
        if requested is not None and args.workload not in requested:
            raise ReproError(
                f"workload '{args.workload}' is not in --benchmarks {','.join(requested)}"
            )
        names = [args.workload]
    harness = make_harness(args, benchmarks=names)
    results = {}
    totals = {"evaluated": 0, "executed": 0, "cache_hits": 0}
    run_started = time.perf_counter()
    drivers = [
        ExplorationDriver(
            harness, name, strategy=args.strategy, budget=args.budget, seed=args.seed,
            jobs=args.parallel,
        )
        for name in names
    ]
    # Every workload's search at once, on one pool.
    for driver, result in zip(drivers, run_searches(harness, drivers, args.parallel)):
        results[driver.workload] = result
        stats = driver.stats
        for key in totals:
            totals[key] += int(stats.get(key, 0))
        # Effort goes to stderr: stdout stays byte-identical cold vs warm.
        print(
            f"explored {driver.workload}: {stats['evaluated']} candidates "
            f"({stats['executed']} executed, {stats['cache_hits']} cache hits), "
            f"frontier size {len(result.frontier)}",
            file=sys.stderr,
        )
    record_run_history(
        "explore",
        args,
        harness,
        time.perf_counter() - run_started,
        extra_metrics={
            "candidates_evaluated": float(totals["evaluated"]),
            "candidates_executed": float(totals["executed"]),
            "candidate_cache_hits": float(totals["cache_hits"]),
        },
        extra_attrs={"strategy": args.strategy, "budget": args.budget, "seed": args.seed},
    )
    if args.json:
        if args.workload != "all":
            # Explicit single-workload request: the bare result document.
            # 'all' always gets the wrapped shape, even over one benchmark,
            # so consumers never have to sniff which schema they received.
            payload = results[names[0]].to_json_dict()
        else:
            payload = {
                "strategy": args.strategy,
                "budget": args.budget,
                "seed": args.seed,
                "workloads": {name: results[name].to_json_dict() for name in names},
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for index, name in enumerate(names):
        if index:
            print()
        if args.markdown:
            result = results[name]
            flat = [
                {**row["params"],
                 **{k: row[k] for k in ("cycles", "area_luts", "power_mw") if k in row},
                 "speedup_vs_sw": row.get("speedup_vs_sw", 0.0)}
                for row in result.frontier.to_rows()
            ]
            print(f"### {name}: Pareto frontier ({result.strategy}, "
                  f"budget {result.budget}, seed {result.seed})\n")
            print(render_markdown({"rows": flat}))
        else:
            print(_explore_text(results[name]))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: register a raw .c file as a first-class workload."""
    from repro.eval import experiments
    from repro.eval.taskgraph import TaskGraph
    from repro.ingest import default_workload_name, ingest_file

    name = args.name or default_workload_name(args.file)
    harness = make_harness(args, benchmarks=[name])
    report, _ = ingest_file(args.file, name=name, harness=harness)

    if not report.ok:
        if args.json:
            # The bare report document: deterministic, byte-identical cold/warm.
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.format_text())
        return 1

    payload: Dict = {"report": report.to_dict()}
    extra_text: List[str] = []

    if args.run:
        graph = TaskGraph()
        task_id = harness.declare_compile(graph, name)
        results = harness.execute(graph, parallel=args.parallel)
        result = results[task_id]
        run = harness._runs[name]
        payload["run"] = {"outputs_match": run.functional_outputs_match(), **result.summary_dict()}
        # Volatile by design (cold vs warm runs differ); only under --run.
        payload["task_stats"] = harness.last_stats
        extra_text.append(result.report())
    elif args.sweep:
        if args.sweep == "latency":
            data = experiments.figure_6_5(harness, parallel=args.parallel)
        elif args.sweep == "depth":
            data = experiments.figure_6_6(harness, parallel=args.parallel)
        else:
            data = experiments.split_sweep(name, harness, parallel=args.parallel)
        payload["sweep"] = {k: v for k, v in data.items() if k != "table"}
        extra_text.append(data["table"])
    elif args.explore:
        from repro.explore.driver import ExplorationDriver

        driver = ExplorationDriver(
            harness, name, strategy="random", budget=args.budget, seed=0, jobs=args.parallel
        )
        result = driver.run()
        payload["explore"] = result.to_json_dict()
        extra_text.append(_explore_text(result))

    if args.json:
        if len(payload) == 1:
            # Plain ingest: the bare report document (CI diffs these bytes).
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format_text())
        for block in extra_text:
            print()
            print(block)
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    """``repro difftest``: assert interp/sim output agreement per workload."""
    from repro.core.report import format_result_table
    from repro.ingest import load_corpus
    from repro.ingest.difftest import CONFIGS, difftest_workload
    from repro.workloads import all_workloads, get_workload

    harness = make_harness(args, benchmarks=[])
    corpus_dir = args.corpus
    if corpus_dir is None and os.path.isdir("tests/corpus"):
        corpus_dir = "tests/corpus"
    if corpus_dir and corpus_dir != "none" and os.path.isdir(corpus_dir):
        reports = load_corpus(corpus_dir, harness=harness)
        print(f"loaded {len(reports)} corpus workload(s) from {corpus_dir}", file=sys.stderr)

    if args.target == "all":
        names = [w.name for w in all_workloads()]
    else:
        get_workload(args.target)  # fail fast with the registry's error
        names = [args.target]

    outcomes = [difftest_workload(harness, name) for name in names]
    ok = all(o.ok for o in outcomes)

    if args.json:
        print(
            json.dumps(
                {"ok": ok, "workloads": [o.to_dict() for o in outcomes]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        labels = [label for label, _ in CONFIGS]
        rows = [
            [o.workload, o.origin, o.events, o.outputs]
            + ["pass" if o.configs.get(label) else "FAIL" for label in labels]
            for o in outcomes
        ]
        print(
            format_result_table(
                ["workload", "origin", "events", "outputs"] + labels,
                rows,
                title=f"differential test: interpreter vs timing replay ({len(outcomes)} workloads)",
            )
        )
        for outcome in outcomes:
            for failure in outcome.failures:
                print(f"FAIL {outcome.workload}: {failure}")
    return 0 if ok else 1
