#!/usr/bin/env python3
"""CI gate for the exploration engine: budgeted search, cached warm re-run.

Runs a small budgeted search twice against one cache directory and asserts
the subsystem's two headline guarantees:

1. the cold search terminates within budget and finds a **non-empty Pareto
   frontier** whose points are all evaluated candidates;
2. the warm re-run **evaluates nothing** (every candidate is a
   content-addressed cache hit) and emits **byte-identical** frontier JSON.

Usage::

    python tools/explore_smoke.py [--workload mips] [--strategy annealing]
                                  [--budget 8] [--seed 7] [--jobs 2]

Exit code 0 = both guarantees hold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.eval.harness import EvaluationHarness  # noqa: E402
from repro.explore.driver import ExplorationDriver  # noqa: E402


def run_once(cache_dir: str, args: argparse.Namespace):
    harness = EvaluationHarness(benchmarks=[args.workload], cache_dir=cache_dir)
    driver = ExplorationDriver(
        harness,
        args.workload,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        jobs=args.jobs,
    )
    start = time.perf_counter()
    result = driver.run()
    elapsed = time.perf_counter() - start
    return result, driver.stats, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="mips")
    parser.add_argument("--strategy", default="annealing")
    parser.add_argument("--budget", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None, help="default: a fresh temp directory")
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="explore_smoke_")
    failures = []

    cold, cold_stats, cold_s = run_once(cache_dir, args)
    cold_json = json.dumps(cold.to_json_dict(), indent=2, sort_keys=True)
    print(
        f"cold: {cold_stats['evaluated']} candidates evaluated "
        f"({cold_stats['executed']} executed) in {cold_s:.1f}s, "
        f"frontier size {len(cold.frontier)}"
    )
    if len(cold.frontier) == 0:
        failures.append("cold search produced an empty frontier")
    if cold_stats["evaluated"] > args.budget:
        failures.append(
            f"budget exceeded: {cold_stats['evaluated']} > {args.budget}"
        )
    evaluated_params = [c.params() for c, _ in cold.evaluations]
    for row in cold.frontier.to_rows():
        if row["params"] not in evaluated_params:
            failures.append(f"frontier point {row['params']} was never evaluated")

    warm, warm_stats, warm_s = run_once(cache_dir, args)
    warm_json = json.dumps(warm.to_json_dict(), indent=2, sort_keys=True)
    print(
        f"warm: {warm_stats['evaluated']} candidates "
        f"({warm_stats['executed']} executed, {warm_stats['cache_hits']} cache hits) "
        f"in {warm_s:.1f}s"
    )
    if warm_stats["executed"] != 0:
        failures.append(
            f"warm re-run re-evaluated {warm_stats['executed']} candidates (expected 0)"
        )
    if warm_json != cold_json:
        failures.append("warm frontier JSON differs from the cold run")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"ok: {args.strategy} search over {args.workload} "
        f"(budget {args.budget}, seed {args.seed}) is cached, budgeted and deterministic"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
