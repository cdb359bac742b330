"""DSWP driver: partition every function of a module and aggregate the results.

This is the module-level orchestration of the thesis's DSWP pass: build the
PDG per function, decide how many pipeline partitions each function gets,
run the greedy partitioner, allocate queues and semaphores, and (optionally)
materialise the partition threads.  The aggregate statistics (number of
queues, semaphores and hardware threads) are the quantities reported in the
thesis's Table 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.callgraph import CallGraph
from repro.analysis.loops import LoopInfo
from repro.config import PartitionConfig
from repro.dswp.partitioner import DSWPPartitioner, FunctionPartitioning, PartitionKind
from repro.dswp.queues import QueueAllocation, allocate_queues, allocate_semaphores
from repro.dswp.thread_extraction import ExtractionResult, ThreadExtractor
from repro.interp.profile import Profile
from repro.ir.function import Function
from repro.ir.module import Module
from repro.pdg.builder import build_pdg
from repro.pdg.weights import WeightModel


@dataclass
class ModulePartitioning:
    """Per-function partitionings plus the module-wide queue/semaphore bookkeeping."""

    module: Module
    functions: Dict[str, FunctionPartitioning] = field(default_factory=dict)
    queues: Dict[str, QueueAllocation] = field(default_factory=dict)
    semaphores: Dict[str, int] = field(default_factory=dict)
    extractions: Dict[str, ExtractionResult] = field(default_factory=dict)

    # -- Table 6.1 style aggregates ----------------------------------------------------

    @property
    def total_queues(self) -> int:
        return sum(q.queue_count for q in self.queues.values())

    @property
    def total_semaphores(self) -> int:
        return sum(self.semaphores.values())

    @property
    def hardware_thread_count(self) -> int:
        count = 0
        for partitioning in self.functions.values():
            count += sum(
                1
                for p in partitioning.partitions
                if p.is_hardware() and p.instructions
            )
        return count

    @property
    def software_thread_count(self) -> int:
        count = 0
        for partitioning in self.functions.values():
            count += sum(
                1
                for p in partitioning.partitions
                if p.is_software() and p.instructions
            )
        return count

    def achieved_sw_fraction(self) -> float:
        """Work share (software cycles) actually placed on the processor."""
        total = 0.0
        sw = 0.0
        for partitioning in self.functions.values():
            for p in partitioning.partitions:
                total += p.sw_weight
                if p.is_software():
                    sw += p.sw_weight
        return sw / total if total > 0 else 0.0


@dataclass
class DSWPResult:
    """Everything the DSWP stage produces."""

    partitioning: ModulePartitioning
    weight_model: WeightModel
    config: PartitionConfig

    def summary(self) -> Dict[str, float]:
        return {
            "queues": self.partitioning.total_queues,
            "semaphores": self.partitioning.total_semaphores,
            "hw_threads": self.partitioning.hardware_thread_count,
            "sw_threads": self.partitioning.software_thread_count,
            "sw_fraction": round(self.partitioning.achieved_sw_fraction(), 4),
        }


def decide_partition_count(
    fn: Function, weight_model: WeightModel, config: PartitionConfig
) -> int:
    """How many pipeline partitions should ``fn`` get?

    One software partition plus as many hardware partitions as the function's
    weight justifies (``work_per_partition`` software cycles each), capped by
    ``max_partitions_per_function``.  Tiny functions stay single-partition
    (they will simply run wherever their caller's pipeline puts them).
    """
    total = weight_model.function_sw_cycles(fn)
    if total < config.work_per_partition / 4:
        return 1
    extra = int(total // config.work_per_partition)
    return max(2, min(config.max_partitions_per_function, 1 + max(1, extra)))


def run_dswp(
    module: Module,
    profile: Optional[Profile] = None,
    config: Optional[PartitionConfig] = None,
    weight_model: Optional[WeightModel] = None,
    extract_threads: bool = False,
    sw_fraction: Optional[float] = None,
) -> DSWPResult:
    """Run the DSWP partitioning over every defined function of ``module``
    but the threads an earlier extraction appended to it."""
    config = config or PartitionConfig()
    config.validate()
    if weight_model is None:
        if profile is None or not config.use_profile_weights:
            profile = Profile.static_estimate(module)
        weight_model = WeightModel(profile)
    partitioner = DSWPPartitioner(weight_model)
    callgraph = CallGraph(module)
    callgraph.check_no_recursion()

    target_sw = config.sw_fraction if sw_fraction is None else sw_fraction

    result = ModulePartitioning(module=module)
    queue_id_base = 0

    for fn in callgraph.top_down_order():
        if fn.is_declaration() or fn.extracted_from is not None:
            continue
        pdg = build_pdg(fn)
        loop_info = LoopInfo(fn)
        count = decide_partition_count(fn, weight_model, config)
        # main()'s master must stay on the processor (§5.3); other functions'
        # masters live wherever their caller's pipeline placed the call.
        master_in_sw = config.master_in_software or fn.name != "main"
        partitioning = partitioner.partition_function(
            fn,
            pdg,
            num_partitions=count,
            sw_fraction=target_sw,
            master_in_software=config.master_in_software,
        )
        allocation = allocate_queues(
            partitioning,
            loop_info,
            queue_depth=8,
            queue_width=32,
            start_id=queue_id_base,
        )
        queue_id_base += allocation.queue_count
        result.functions[fn.name] = partitioning
        result.queues[fn.name] = allocation

    if extract_threads:
        extract_partition_threads(result)
    result.semaphores = allocate_semaphores(module, list(result.functions.keys()))
    return DSWPResult(partitioning=result, weight_model=weight_model, config=config)


def extract_partition_threads(partitioning: ModulePartitioning) -> None:
    """Materialise the threads of every function with more than one
    partition, callers first, as ``f_dswp_<k>`` functions of the module.

    Extraction only appends functions, so the module's other instructions
    keep their places, and a later :func:`run_dswp` on the module (a split
    re-simulation) partitions them alone, not the appended threads.
    """
    module = partitioning.module
    extractor = ThreadExtractor(module)
    for fn in CallGraph(module).top_down_order():
        fp = partitioning.functions.get(fn.name)
        if fp is not None and len(fp.partitions) > 1:
            partitioning.extractions[fn.name] = extractor.extract(fp)
