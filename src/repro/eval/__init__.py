"""Evaluation harness: regenerates every table and figure of thesis Chapter 6.

Experiments are declared as :mod:`repro.eval.taskgraph` DAGs — compile
nodes, one node per (workload, sweep-point), and aggregate nodes — executed
serially or on N workload-affine pool workers (``parallel=N``) with
byte-identical results, and memoised through the :mod:`repro.eval.cache`
directory with single-flight per-key locks; ``repro.cli`` exposes the same generators (and
``repro graph``) on the command line.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.eval.cache": ("ArtifactCache", "LocalFSBackend"),
    "repro.eval.harness": ("EvaluationHarness", "BenchmarkRun"),
    "repro.eval.taskgraph": (
        "Task",
        "TaskOutcome",
        "TaskGraph",
        "TaskScheduler",
        "LocalProcessExecutor",
    ),
    "repro.eval.experiments": (
        "table_6_1",
        "table_6_2",
        "figure_6_1",
        "figure_6_2",
        "figure_6_3",
        "figure_6_4",
        "figure_6_5",
        "figure_6_6",
        "split_sweep",
        "summary",
        "declare_report",
        "run_report",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
