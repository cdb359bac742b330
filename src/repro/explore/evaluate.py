"""The design-point task payload: one configuration re-simulated from a compile.

The node that runs it, with its id and content key, is declared by
:func:`repro.eval.taskgraph.explore_task`, which names this payload by
reference, so a graph whose design points all hit the cache never loads
this module.

Evaluating a point does **not** recompile the workload: every knob it may
vary (partitioning, queue geometry, HLS scheduling) acts after the front
end, so a point is a *derived* artifact of the workload's baseline compile
— re-run DSWP under the point's partition config, re-schedule/re-roll-up
area, and re-simulate timing and power.  An exploration candidate is one
such point, and so is a Figure 6.3/6.4 split point.

That makes points cheap and perfectly cacheable: the content key is
:func:`repro.eval.cache.derived_key` over the baseline compile key (which
already folds in the workload source, the full baseline configuration and
the code digest) plus the point's whole configuration — so a second
search, a resumed search, or a report that reaches one configuration
twice hits the cache instead of re-evaluating.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import perf
from repro.config import CompilerConfig
from repro.eval.worker import sweep_input


# Per-process memo of candidate partitions, keyed by the baseline compile
# key and the candidate's partition parameters — the only inputs DSWP reads.
# A 240-candidate search typically spans only a handful of distinct
# partition parameter sets (the other dimensions act after partitioning), so
# candidates evaluated in the same process share one DSWPResult instead of
# re-running DSWP per candidate.
_DSWP_MEMO: "OrderedDict[Tuple[str, Tuple[Any, ...]], Any]" = OrderedDict()
_DSWP_MEMO_LIMIT = 16


def _candidate_dswp(
    parent_compile_key: str, compile_result: Any, candidate_config: CompilerConfig
) -> Any:
    """Re-partition for one candidate, memoized per process.

    The partition points at the instructions of ``compile_result.module``
    itself, which the result's trace replays, so a memo entry computed on
    another copy of the module is recomputed.
    """
    from repro.sim.system import repartition

    key = (parent_compile_key, dataclasses.astuple(candidate_config.partition))
    module = compile_result.module
    dswp = _DSWP_MEMO.get(key)
    if dswp is None or dswp.partitioning.module is not module:
        dswp = repartition(
            module,
            compile_result.profile,
            candidate_config,
            candidate_config.partition.sw_fraction,
        )
    _DSWP_MEMO[key] = dswp
    _DSWP_MEMO.move_to_end(key)
    while len(_DSWP_MEMO) > _DSWP_MEMO_LIMIT:
        _DSWP_MEMO.popitem(last=False)
    return dswp


def compute_explore_point(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    point_config: CompilerConfig,
    compile_key: str,
) -> Dict[str, Any]:
    """Evaluate one design point: re-partition + re-simulate, return objectives.

    *name*'s compile under *config* (key *compile_key*) is re-partitioned
    and re-simulated under *point_config*, which the caller built and
    validated.  The result holds the objective values, the queue count and
    the headline speedup; it is a function of the node's key alone, so it
    echoes nothing of the request.

    Evaluation is incremental: the re-partition stage is shared through a
    per-process memo across every point whose partition parameters match,
    so a search that varies only runtime/queue/HLS dimensions pays for DSWP
    once per distinct partition per process, not once per point.
    """
    from repro.sim.system import evaluate_with_partition

    with perf.stage("explore"):
        result = sweep_input(name, config, cache_root, compile_key)
        dswp = _candidate_dswp(compile_key, result, point_config)
        system = evaluate_with_partition(
            result.name,
            result.module,
            result.execution.trace,
            dswp,
            result.legup,
            point_config,
        )
        return {
            "cycles": system.twill.cycles,
            "area_luts": system.twill.area.luts,
            "power_mw": system.twill.power.total_mw,
            "speedup_vs_sw": system.speedup_vs_software,
            "queues": float(dswp.partitioning.total_queues),
        }
