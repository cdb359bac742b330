"""``repro report``: every table and figure plus the §6.7 summary.

The report is one task graph (:func:`repro.eval.experiments.run_report`);
``--compare`` diffs it against a saved ``--json`` payload, and ``--html``
hands it to :mod:`repro.commands.report_html`.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.commands import make_harness, record_run_history, render_markdown
from repro.errors import ReproError


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.eval import experiments

    if args.html and (args.json or args.markdown):
        # One output contract per invocation: --html writes a document and
        # keeps stdout empty, so combining it with a stdout format would
        # silently starve whatever consumes stdout.
        raise ReproError("--html cannot be combined with --json/--markdown; run them separately")
    if args.html and args.compare:
        raise ReproError(
            "--compare emits a diff on stdout and cannot be combined with --html; "
            "run them separately"
        )
    baseline = None
    if args.compare:
        # Fail on a bad baseline *before* spending minutes regenerating.
        baseline_path = Path(args.compare)
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"cannot read baseline '{args.compare}': {exc}") from exc
        except ValueError:
            raise ReproError(
                f"baseline '{args.compare}' is not valid JSON (save one with "
                "'repro report --json > baseline.json')"
            ) from None
    harness = make_harness(args)
    # One merged task graph: every compile and every (workload, sweep-point)
    # node schedules as an independent job under --parallel/--jobs, and
    # (with --html) each figure is drawn in the parent once its inputs are.
    run_started = time.perf_counter()
    with perf.collect() as stage_timings:
        if args.html:
            from repro.eval.renders import run_report_figures

            artefacts, figures = run_report_figures(harness, parallel=args.parallel)
        else:
            artefacts = experiments.run_report(harness, parallel=args.parallel)
    record_run_history(
        "report",
        args,
        harness,
        time.perf_counter() - run_started,
        stage_timings,
        extra_attrs={"html": bool(args.html)},
    )
    if args.html:
        from repro.commands.report_html import _write_report_html

        return _write_report_html(args, harness, artefacts, figures, stage_timings)

    if baseline is not None:
        current = {
            key: {k: v for k, v in data.items() if k != "table"}
            for key, data in artefacts.items()
        }
        from repro.eval.compare import compare_reports

        diff = compare_reports(current, baseline)
        if args.json:
            print(json.dumps({k: v for k, v in diff.items() if k != "table"},
                             indent=2, sort_keys=True))
        else:
            print(diff["table"])
        return 0

    if args.json:
        payload = {
            "benchmarks": harness.benchmark_names,
            "config": harness.config.to_dict(),
            "artefacts": {
                key: {k: v for k, v in data.items() if k != "table"}
                for key, data in artefacts.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    for key, data in artefacts.items():
        if args.markdown:
            title = data["table"].splitlines()[0]
            print(f"### {title}\n")
            print(render_markdown(data))
        else:
            print(data["table"])
        print()
    return 0
