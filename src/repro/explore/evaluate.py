"""The ``explore`` task payload: evaluate one candidate from a compile artifact.

Evaluating a candidate does **not** recompile the workload: every knob the
search space exposes (partitioning, queue geometry, HLS scheduling) acts
after the front end, so a candidate is a *derived* artifact of the
workload's baseline compile — re-run DSWP under the candidate's partition
config, re-schedule/re-roll-up area, and re-simulate timing and power,
exactly the generalisation of the Figure 6.3/6.4 split re-simulation.

That makes exploration cheap and perfectly cacheable: the content key is
:func:`repro.eval.cache.derived_key` over the baseline compile key (which
already folds in the workload source, the full baseline configuration and
the code digest) plus the candidate's canonical parameters — so a second
search, a resumed search, or a report that happens to touch the same
candidate hits the cache instead of re-evaluating.

:func:`compute_explore_point` is a registered remote payload
(``repro.eval.remote.protocol``), so ``repro explore --workers``
distributes candidates over ``repro worker serve`` daemons unchanged.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import perf
from repro.config import CompilerConfig
from repro.eval import taskgraph
from repro.eval.artifact_codec import decode_dswp_result, encode_dswp_result
from repro.eval.cache import ArtifactCache, compile_key, derived_key
from repro.explore.space import Candidate, Dimension, SearchSpace
from repro.sim.system import evaluate_with_partition, repartition
from repro.workloads import get_workload


def apply_params(
    space: SearchSpace, config: CompilerConfig, params: Dict[str, Any]
) -> CompilerConfig:
    """Validate *params* against *space* and apply them to *config*."""
    return space.candidate(dict(params)).apply(space, config)


def space_from_dict(space_dict: Dict[str, Any]) -> SearchSpace:
    """Inverse of :meth:`SearchSpace.to_dict` (the wire/journal form)."""
    return SearchSpace(
        dimensions=tuple(
            Dimension(d["name"], d["section"], d["field"], tuple(d["values"]))
            for d in space_dict["dimensions"]
        )
    )


# Per-process memo for candidate partitions, keyed by the DSWP stage key:
# the stage's document and the DSWPResult last decoded from it.  A
# 240-candidate search typically spans only a handful of distinct partition
# parameter sets (the other dimensions act after partitioning), so candidates
# evaluated in the same worker process share one in-memory DSWPResult instead
# of re-running DSWP — and re-reading it from disk — per candidate.
_DSWP_MEMO: "OrderedDict[str, Tuple[Dict[str, Any], Any]]" = OrderedDict()
_DSWP_MEMO_LIMIT = 16


def dswp_stage_key(parent_compile_key: str, candidate_config: CompilerConfig) -> str:
    """Content address of a candidate's re-partition stage.

    Keyed by the baseline compile key (module + profile identity) and the
    candidate's full partition-parameter set — the only inputs DSWP reads.
    Candidates differing only in runtime/queue/HLS dimensions map to the
    same key and therefore share one cached :class:`DSWPResult`.
    """
    params = dataclasses.asdict(candidate_config.partition)
    return derived_key(parent_compile_key, "dswp", params)


def _candidate_dswp(
    parent_compile_key: str,
    compile_result: Any,
    candidate_config: CompilerConfig,
    cache_root: Optional[str],
) -> Any:
    """Re-partition for one candidate, memoized per process and cached on disk.

    The stage is stored as a JSON document
    (:func:`~repro.eval.artifact_codec.encode_dswp_result`) that names
    instructions by their number in the compile artifact's module, and is
    decoded onto ``compile_result.module`` itself, so the partition points
    at the instructions the artifact's trace replays.  A memo hit computed
    on another copy of the module is decoded again from its document.
    """
    key = dswp_stage_key(parent_compile_key, candidate_config)
    module = compile_result.module
    hit = _DSWP_MEMO.get(key)
    if hit is not None:
        document, dswp = hit
    else:
        fresh = []

        def compute() -> Dict[str, Any]:
            fresh.append(
                repartition(
                    module,
                    compile_result.profile,
                    candidate_config,
                    candidate_config.partition.sw_fraction,
                )
            )
            return encode_dswp_result(fresh[0])

        if cache_root is not None:
            document = ArtifactCache.from_spec(cache_root).get_or_compute(
                key, compute, serializer="json"
            )
        else:
            document = compute()
        dswp = fresh[0] if fresh else None
    if dswp is None or dswp.partitioning.module is not module:
        dswp = decode_dswp_result(document, module, compile_result.profile)
    _DSWP_MEMO[key] = (document, dswp)
    _DSWP_MEMO.move_to_end(key)
    while len(_DSWP_MEMO) > _DSWP_MEMO_LIMIT:
        _DSWP_MEMO.popitem(last=False)
    return dswp


def compute_explore_point(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    params: Dict[str, Any],
    space_dict: Dict[str, Any],
) -> Dict[str, Any]:
    """Evaluate one candidate: re-partition + re-simulate, return objectives.

    Pure and picklable (pool workers) and wire-encodable (remote workers):
    *params* is the candidate's plain parameter dict and *space_dict* the
    space's ``to_dict()`` form, rebuilt here so validation travels with the
    task.  The result is a small structured-JSON document carrying the
    objective values, the echo of the parameters (so aggregators and
    journals never have to reverse-engineer task ids) and the headline
    speedup for the report figures.

    Evaluation is incremental: the re-partition stage is content-addressed
    by :func:`dswp_stage_key` and shared — via the on-disk cache and a
    per-process memo — across every candidate whose partition parameters
    match, so a search that varies only runtime/queue/HLS dimensions pays
    for DSWP once per distinct partition, not once per candidate.
    """
    with perf.stage("explore"):
        parent = compile_key(get_workload(name).source, config)
        result = taskgraph._sweep_input(name, config, cache_root, parent)
        candidate_config = apply_params(space_from_dict(space_dict), config, params)
        dswp = _candidate_dswp(parent, result, candidate_config, cache_root)
        system = evaluate_with_partition(
            result.name,
            result.module,
            result.execution.trace,
            dswp,
            result.legup,
            candidate_config,
        )
        return {
            "workload": name,
            "params": dict(sorted(params.items())),
            "cycles": system.twill.cycles,
            "area_luts": system.twill.area.luts,
            "power_mw": system.twill.power.total_mw,
            "speedup_vs_sw": system.speedup_vs_software,
            "queues": float(dswp.partitioning.total_queues),
        }


def explore_task_id(name: str, candidate: Candidate) -> str:
    """The deterministic task id of one (workload, candidate) node."""
    return f"explore:{name}:{candidate.short_id()}"


def explore_key(parent_compile_key: str, candidate: Candidate) -> str:
    """The content address of one candidate's evaluation."""
    return derived_key(parent_compile_key, "explore", candidate.params())


def explore_task(
    name: str,
    config: CompilerConfig,
    cache_root: Optional[str],
    space: SearchSpace,
    candidate: Candidate,
    parent: str,
) -> "taskgraph.Task":
    """One candidate-evaluation node depending on its workload's compile node
    (whose key is *parent*)."""
    return taskgraph.Task(
        task_id=explore_task_id(name, candidate),
        kind=taskgraph.KIND_EXPLORE,
        fn=compute_explore_point,
        args=(name, config, cache_root, candidate.params(), space.to_dict()),
        deps=(f"compile:{name}",),
        key=explore_key(parent, candidate),
        serializer="json",
        workload=name,
    )
