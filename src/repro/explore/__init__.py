"""Design-space exploration (DSE) over the Twill partition/configuration space.

The thesis picks one hardware/software partition per benchmark by hand; this
package turns the reproduction into an auto-partitioning tool.  It searches
the configuration space the compiler already exposes — targeted DSWP split,
pipeline depth, queue geometry, HLS loop pipelining — for area/cycles/power
trade-offs, and reports the exact Pareto frontier of everything it evaluated.

The pieces (one module each):

* :mod:`repro.explore.space` — a declarative :class:`SearchSpace` of typed
  dimensions derived from :mod:`repro.config`; every
  :class:`Candidate` is hashable and maps onto an existing cache content
  key, so search never re-evaluates a configuration any run has seen;
* :mod:`repro.explore.evaluate` — the pure ``explore`` task payload
  (re-partition + re-simulate one design point, a candidate or a split
  point, from the workload's compile artifact); its node constructor is
  :func:`repro.eval.taskgraph.explore_task`;
* :mod:`repro.explore.frontier` — exact multi-objective Pareto sets over
  the evaluated candidates, with deterministic tie-breaking;
* :mod:`repro.explore.strategies` — pluggable search strategies
  (``exhaustive``, ``random``, ``greedy``, ``annealing``) behind one
  generation-oriented :class:`Strategy` interface;
* :mod:`repro.explore.driver` — the :class:`ExplorationDriver` that submits
  each generation as ordinary task-graph nodes (parallel, disk-cached), so
  a killed search re-run with the same seed resumes from the cache, and
  :func:`run_searches`, which runs several workloads' searches at once.

``repro explore <workload> --strategy S --budget N --seed K`` is the CLI
entry point; see ``docs/EXPLORATION.md``.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.explore.space": (
        "Candidate",
        "Dimension",
        "SearchSpace",
        "default_space",
        "report_space",
    ),
    "repro.explore.driver": ("ExplorationDriver", "ExplorationResult", "run_searches"),
    "repro.explore.frontier": ("Frontier", "OBJECTIVES", "Objective", "pareto_indices"),
    "repro.explore.strategies": ("STRATEGIES", "Strategy", "make_strategy"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
