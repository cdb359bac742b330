"""The bodies of the ``repro`` subcommands, one module per command family.

:mod:`repro.cli` parses the command line and imports the module of the
command it runs (:data:`repro.cli.COMMAND_MODULES`), so a command compiles
only its own body: ``repro list`` loads none of these modules and a warm
``repro report --json`` loads only this one and :mod:`repro.commands.report`.

* :mod:`repro.commands.report` — ``report`` (and
  :mod:`repro.commands.report_html` for ``report --html``);
* :mod:`repro.commands.artefacts` — ``run``, ``sweep``, ``table``,
  ``figure``, ``graph`` and ``cache``;
* :mod:`repro.commands.explore` — ``explore``, ``ingest`` and ``difftest``;
* :mod:`repro.commands.telemetry` — ``profile``, ``trace`` and ``history``.

This module holds what several commands share: the harness the common
options describe, the markdown and JSON output, and the run-history record.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cli import profile_sink
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.eval.harness import EvaluationHarness


def make_harness(args: argparse.Namespace, benchmarks: Optional[List[str]] = None) -> EvaluationHarness:
    """Build the harness described by the common CLI options."""
    from repro.config import CompilerConfig
    from repro.eval.harness import EvaluationHarness

    names = benchmarks if benchmarks is not None else requested_benchmarks(args)
    return EvaluationHarness(
        config=CompilerConfig(),
        benchmarks=names,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def requested_benchmarks(args: argparse.Namespace) -> Optional[List[str]]:
    """The --benchmarks list, or None when unrestricted."""
    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        return names or None
    return None


def check_split_workload(workload: str, args: argparse.Namespace) -> None:
    """Split artefacts are defined over one specific workload; reject a
    --benchmarks restriction that excludes it rather than silently ignoring it."""
    requested = requested_benchmarks(args)
    if requested is not None and workload not in requested:
        raise ReproError(
            f"this split sweep is defined over workload '{workload}', which is "
            f"not in --benchmarks {','.join(requested)}"
        )


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured markdown rendering of a rows list."""

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(lines)


def render_markdown(data: Dict) -> str:
    """One experiment result as markdown: its rows as a table, or the
    preformatted text fenced when there are no rows."""
    rows = data.get("rows")
    if rows:
        headers = list(rows[0].keys())
        return _markdown_table(headers, [[r[h] for h in headers] for r in rows])
    return "```\n" + data.get("table", "") + "\n```"


def emit(data: Dict, args: argparse.Namespace) -> None:
    """Print one experiment result in the requested format."""
    if getattr(args, "json", False):
        payload = {k: v for k, v in data.items() if k != "table"}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif getattr(args, "markdown", False):
        print(render_markdown(data))
    else:
        print(data["table"])


def record_run_history(
    command: str,
    args: argparse.Namespace,
    harness,
    wall_seconds: float,
    stage_timings=None,
    extra_metrics: Optional[Dict[str, float]] = None,
    extra_attrs: Optional[Dict] = None,
) -> None:
    """Append one run record to the persistent history (observe-only).

    Never prints and never raises — stdout byte-identity and run success
    are pinned by the same tests that pin tracing.
    """
    from repro.obs import history as obs_history
    from repro.obs import tracing as obs_tracing

    metrics: Dict[str, float] = {"wall_seconds": round(wall_seconds, 6)}
    stats = getattr(harness, "last_stats", None) or {}
    if stats:
        total = int(stats.get("total", 0))
        hits = int(stats.get("cache_hits", 0))
        executed = sum((stats.get("executed") or {}).values())
        metrics["tasks_total"] = float(total)
        metrics["tasks_executed"] = float(executed)
        metrics["cache_hits"] = float(hits)
        if total:
            metrics["cache_hit_rate"] = round(hits / total, 4)
    if stage_timings is not None:
        for name, entry in stage_timings.as_dict().items():
            metrics[f"stage_{name}_seconds"] = entry["seconds"]
    if extra_metrics:
        metrics.update(extra_metrics)
    attrs = {
        "benchmarks": ",".join(getattr(harness, "benchmark_names", []) or []),
        "workers": args.parallel or 0,
    }
    # Link the ledger row to its telemetry: a regression flagged by
    # `repro history check` then points straight at the trace/profile that
    # explains it (`repro history show` surfaces these).
    trace_id = obs_tracing.last_trace_id()
    if trace_id:
        attrs["trace_id"] = trace_id
    trace_sink = obs_tracing.sink_spec()
    if trace_sink:
        attrs["trace_sink"] = trace_sink
    profile_path = profile_sink()
    if profile_path:
        attrs["profile"] = profile_path
    if extra_attrs:
        attrs.update(extra_attrs)
    obs_history.record_run(command, metrics, attrs=attrs)
