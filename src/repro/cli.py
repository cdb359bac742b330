"""``repro`` — the unified command-line interface of the Twill reproduction.

Every experiment of thesis Chapter 6 is reachable from one executable, backed
by the same :mod:`repro.eval` code path the examples and the pytest-benchmark
suite use, so numbers never diverge between entry points:

* ``repro list`` — the registered workloads;
* ``repro run <workload>`` — compile + simulate one workload and print its
  report (``--json`` for machine-readable output);
* ``repro sweep {latency,depth,split}`` — the sensitivity sweeps behind
  Figures 6.3-6.6;
* ``repro table {6.1,6.2}`` / ``repro figure {6.1..6.6}`` — one thesis
  artefact; ``repro figure 6.x --svg FILE`` renders it as a standalone SVG
  chart (``-`` for stdout) through :mod:`repro.viz`;
* ``repro report`` — every table and figure plus the §6.7 headline summary
  and the embedded design-space-exploration section (``--json`` /
  ``--markdown`` for machine- or doc-friendly output), computed as one task
  graph; ``--html DIR`` writes a single self-contained ``report.html`` with
  every figure as inline SVG (see docs/REPORTING.md); ``--compare
  BASELINE.json`` diffs the run figure-by-figure against a saved ``--json``
  payload;
* ``repro explore <workload|all> --strategy S --budget N --seed K`` — the
  full design-space exploration engine: budgeted search (exhaustive,
  random, greedy, annealing) over split/pipeline/queue/HLS candidates with
  exact Pareto frontiers, cached and resumable (docs/EXPLORATION.md);
* ``repro ingest FILE.c [--run|--sweep|--explore]`` — register a raw C file
  as a first-class workload: preprocess, parse with error recovery
  (``file:line:col`` diagnostics), capture reference outputs, register —
  then optionally compile/sweep/explore it like a builtin
  (docs/INGESTION.md);
* ``repro difftest <workload|all>`` — differential testing: the interpreter
  and the timing simulator must agree on the program's output stream under
  the software-only, hybrid and hardware-heavy configurations; ``all``
  auto-ingests the ``tests/corpus/`` regression programs first;
* ``repro graph`` — print that task graph (every compile, sweep-point and
  aggregate node with its dependencies) without executing it;
* ``repro cache {stats,clear,prune}`` — inspect, empty, or LRU-bound the
  on-disk artifact cache (``prune --max-bytes``);
* ``repro trace TRACE.jsonl`` — render the structured span trace captured
  by running any command with ``REPRO_TRACE=TRACE.jsonl`` set: a
  parent/child span tree per trace id (task, cache and pipeline-stage
  spans), ``--gantt`` for a per-worker timeline, ``--summary`` for per-kind
  statistics with scheduler-overhead accounting, ``--critical-path`` for
  the longest dependency chain, or ``--chrome OUT.json`` to export the
  spans as a chrome://tracing / Perfetto document (see
  ``docs/OBSERVABILITY.md``);
* ``repro profile <workload>`` — per-stage wall-clock times; with
  ``--flame FILE.svg`` / ``--collapsed FILE.txt`` also attaches a sampling
  profiler and renders the call stacks; ``repro profile --from
  PROFILE.jsonl`` analyses profiles captured from any command via
  ``REPRO_PROFILE=PROFILE.jsonl`` (pool workers write one record per
  process, merged on load);
* ``repro history {show,trend,check}`` — the persistent run ledger
  (``.repro_history/runs.jsonl``, appended by report/explore/bench runs):
  recent records, per-metric trends (``--svg-dir`` renders line charts),
  and rolling-median regression detection (``check`` exits non-zero when
  the latest run is slower than ``--threshold`` times baseline).

All experiment commands accept ``--benchmarks`` (restrict the workload set),
``--parallel N`` / ``--jobs N`` (execute ready task-graph nodes over N
worker processes), ``--cache-dir`` (a directory) and ``--no-cache``.
Results are disk-cached under ``.repro_cache/`` (see ``docs/CACHING.md``),
so a second invocation of any command is near-instant.

Installed as a ``console_scripts`` entry point by ``setup.py``; also runnable
as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.obs import history as obs_history

# Each command imports the subsystems it runs, so that `repro list` and a
# warm `repro report` load no compiler stage (docs/PERFORMANCE.md,
# "Start-up").  Only the parser and `repro list` live here; every other
# command's body is in its module of repro.commands, imported when it runs.

#: Experiment generators of :mod:`repro.eval.experiments` by artefact id,
#: in thesis order.
TABLES = {"6.1": "table_6_1", "6.2": "table_6_2"}
FIGURES = {f"6.{n}": f"figure_6_{n}" for n in range(1, 7)}

#: The ``explore --strategy`` choices: the names of
#: :data:`repro.explore.strategies.STRATEGIES` (pinned by tests/test_cli.py).
STRATEGY_NAMES = ("annealing", "exhaustive", "greedy", "random")

#: The module of :mod:`repro.commands` holding each subcommand's body,
#: ``_cmd_<command>`` (``repro list`` runs here).
COMMAND_MODULES = {
    "run": "repro.commands.artefacts",
    "sweep": "repro.commands.artefacts",
    "table": "repro.commands.artefacts",
    "figure": "repro.commands.artefacts",
    "graph": "repro.commands.artefacts",
    "cache": "repro.commands.artefacts",
    "report": "repro.commands.report",
    "explore": "repro.commands.explore",
    "ingest": "repro.commands.explore",
    "difftest": "repro.commands.explore",
    "profile": "repro.commands.telemetry",
    "trace": "repro.commands.telemetry",
    "history": "repro.commands.telemetry",
}


def profile_sink() -> str:
    """``$REPRO_PROFILE``: the file this run's sampling profile goes to ('' = off)."""
    return (os.environ.get("REPRO_PROFILE") or "").strip()


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    for workload in all_workloads():
        chstone = f" (CHStone {workload.chstone_name})" if workload.chstone_name else ""
        print(f"{workload.name:10s} {workload.description}{chstone}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--benchmarks",
        metavar="A,B,...",
        help="comma-separated workload subset (default: all eight kernels)",
    )
    common.add_argument(
        "--parallel",
        "--jobs",
        "-j",
        dest="parallel",
        type=int,
        metavar="N",
        help="execute up to N ready task-graph nodes concurrently (process pool)",
    )
    common.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact cache directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    common.add_argument("--no-cache", action="store_true", help="disable the on-disk artifact cache")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--markdown", action="store_true", help="emit GitHub-flavoured markdown tables")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Twill thesis evaluation: compile, simulate and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[common], help="list the registered workloads")

    p_run = sub.add_parser("run", parents=[common], help="compile + simulate one workload")
    p_run.add_argument("workload", help="workload name (see 'repro list')")
    p_run.add_argument(
        "--sw-fraction",
        type=float,
        metavar="F",
        help="re-partition with this targeted software share instead of the default report",
    )

    p_profile = sub.add_parser(
        "profile",
        parents=[common],
        help="compile + simulate one workload and print per-stage wall-clock times",
    )
    p_profile.add_argument(
        "workload", nargs="?", help="workload name (see 'repro list'); omit with --from"
    )
    p_profile.add_argument(
        "--from",
        dest="from_file",
        metavar="PROFILE.jsonl",
        help=(
            "analyse an existing sampled-profile file (written by running any "
            "command with REPRO_PROFILE=PROFILE.jsonl) instead of compiling"
        ),
    )
    p_profile.add_argument(
        "--flame",
        metavar="FILE.svg",
        help="render the sampled call stacks as a flamegraph SVG ('-' for stdout)",
    )
    p_profile.add_argument(
        "--collapsed",
        metavar="FILE.txt",
        help="write collapsed-stack lines ('frame;frame count') for external tools",
    )
    p_profile.add_argument(
        "--hz",
        type=int,
        metavar="N",
        help="sampling frequency for --flame/--collapsed (default: 97)",
    )

    p_sweep = sub.add_parser("sweep", parents=[common], help="queue latency/depth and split-point sweeps")
    p_sweep.add_argument("kind", choices=["latency", "depth", "split"])
    p_sweep.add_argument("--workload", help="workload for the split sweep (default: mips)")

    p_table = sub.add_parser("table", parents=[common], help="regenerate one thesis table")
    p_table.add_argument("id", choices=sorted(TABLES))

    p_figure = sub.add_parser("figure", parents=[common], help="regenerate one thesis figure")
    p_figure.add_argument("id", choices=sorted(FIGURES))
    p_figure.add_argument(
        "--svg",
        metavar="FILE",
        help="render the figure as a standalone SVG chart to FILE ('-' for stdout)",
    )

    p_report = sub.add_parser("report", parents=[common], help="every table + figure + §6.7 summary")
    p_report.add_argument(
        "--html",
        metavar="DIR",
        help=(
            "write a single self-contained report.html (all figures as inline "
            "SVG + tables + run metadata) into DIR instead of printing tables"
        ),
    )
    p_report.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help=(
            "diff this run figure-by-figure against a saved "
            "'repro report --json' payload (per-cell delta table + "
            "changed-artefact flags)"
        ),
    )

    p_explore = sub.add_parser(
        "explore",
        parents=[common],
        help="design-space exploration: search partition/config candidates for Pareto-optimal trade-offs",
    )
    p_explore.add_argument(
        "workload", help="workload name (see 'repro list'), or 'all' for the whole benchmark set"
    )
    p_explore.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="annealing",
        help="search strategy (default: annealing)",
    )
    p_explore.add_argument(
        "--budget",
        type=int,
        default=32,
        metavar="N",
        help="maximum number of unique candidates to evaluate (default: 32)",
    )
    p_explore.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="K",
        help="RNG seed; same seed + budget reproduces the search exactly (default: 0)",
    )

    p_ingest = sub.add_parser(
        "ingest",
        parents=[common],
        help="ingest a raw .c file as a first-class workload (docs/INGESTION.md)",
    )
    p_ingest.add_argument("file", metavar="FILE.c", help="C source file to ingest")
    p_ingest.add_argument(
        "--name",
        help="workload name to register under (default: derived from the file name)",
    )
    ingest_action = p_ingest.add_mutually_exclusive_group()
    ingest_action.add_argument(
        "--run",
        action="store_true",
        help="also compile + simulate the ingested workload through the task graph",
    )
    ingest_action.add_argument(
        "--sweep",
        choices=["latency", "depth", "split"],
        help="also run the named sensitivity sweep on the ingested workload",
    )
    ingest_action.add_argument(
        "--explore",
        action="store_true",
        help="also run a small random design-space exploration on the ingested workload",
    )
    p_ingest.add_argument(
        "--budget",
        type=int,
        default=8,
        metavar="N",
        help="exploration budget for --explore (default: 8)",
    )

    p_difftest = sub.add_parser(
        "difftest",
        parents=[common],
        help="differential test: interpreter vs timing-simulator output agreement",
    )
    p_difftest.add_argument(
        "target", help="workload name, or 'all' for every registered + corpus workload"
    )
    p_difftest.add_argument(
        "--corpus",
        metavar="DIR",
        help="corpus directory to ingest first (default: tests/corpus if present; 'none' to skip)",
    )

    p_graph = sub.add_parser(
        "graph", parents=[common], help="print the report task graph without executing it"
    )

    p_cache = sub.add_parser(
        "cache",
        parents=[common],
        help="inspect, clear, or LRU-prune the artifact cache",
    )
    p_cache.add_argument("action", choices=["stats", "clear", "prune"])
    p_cache.add_argument(
        "--max-bytes",
        metavar="SIZE",
        help="prune target size for 'prune' (accepts K/M/G suffixes, e.g. 100M)",
    )

    p_trace = sub.add_parser(
        "trace",
        parents=[common],
        help="render a JSONL span trace captured via $REPRO_TRACE",
    )
    p_trace.add_argument(
        "file", metavar="TRACE.jsonl", help="span file written by a traced run"
    )
    p_trace.add_argument(
        "--gantt",
        action="store_true",
        help="per-worker Gantt view instead of the default span tree",
    )
    p_trace.add_argument(
        "--trace-id", metavar="ID", help="show only the trace with this id"
    )
    p_trace.add_argument(
        "--summary",
        action="store_true",
        help="per-kind span statistics (count, total, self time, p50/p95) + scheduler overhead",
    )
    p_trace.add_argument(
        "--critical-path",
        action="store_true",
        help="longest dependency chain through the trace with per-hop attribution",
    )
    p_trace.add_argument(
        "--chrome",
        metavar="OUT.json",
        help="export the spans as Chrome Trace Event JSON (one lane per worker)",
    )

    p_history = sub.add_parser(
        "history",
        parents=[common],
        help="inspect the persistent run history and flag performance regressions",
    )
    p_history.add_argument("action", choices=["show", "trend", "check"])
    p_history.add_argument(
        "--history",
        metavar="DIR",
        help=f"history directory (default: $REPRO_HISTORY or ./{obs_history.HISTORY_DIR})",
    )
    p_history.add_argument(
        "--command",
        # Not ``command``: that dest names the subcommand main() dispatches on.
        dest="record_command",
        metavar="NAME",
        help="restrict to records of one command (report, explore, bench_report, ...)",
    )
    p_history.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="most-recent records to show (default: 20)",
    )
    p_history.add_argument(
        "--svg-dir",
        metavar="DIR",
        help="with 'trend': also write one line-chart SVG per metric into DIR",
    )
    p_history.add_argument(
        "--window",
        type=int,
        default=obs_history.DEFAULT_WINDOW,
        metavar="N",
        help=(
            "with 'check': rolling-median baseline window "
            f"(default: {obs_history.DEFAULT_WINDOW})"
        ),
    )
    p_history.add_argument(
        "--threshold",
        type=float,
        default=obs_history.DEFAULT_THRESHOLD,
        metavar="X",
        help=(
            "with 'check': flag metrics slower than X times the baseline "
            f"(default: {obs_history.DEFAULT_THRESHOLD})"
        ),
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if profile_sink():
        from repro.obs import profile as obs_profile

        obs_profile.maybe_start(service="cli")
    if args.command == "list":
        command = _cmd_list
    else:
        module = importlib.import_module(COMMAND_MODULES[args.command])
        command = getattr(module, f"_cmd_{args.command}")
    try:
        return command(args)
    except ReproError as exc:
        # Bad input (unknown workload, --sw-fraction out of [0, 1], ...)
        # surfaces as the pipeline's own exception types; report them without
        # a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The scheduler has already terminated its pool and swept in-flight
        # lock files; 130 = SIGINT.
        # Flush open spans so an interrupted $REPRO_TRACE file stays parseable.
        from repro.obs import tracing as obs_tracing

        obs_tracing.shutdown()
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
