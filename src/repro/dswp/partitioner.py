"""DSWP heuristic partitioner (thesis §5.2, pass 3).

The partitioner operates on the SCC condensation of a function's PDG.  It
assigns SCCs to an ordered list of partitions such that

* every SCC lands in exactly one partition,
* cross-partition dependences never form a cycle (guaranteed by assigning
  SCCs in topological order), and
* each partition's accumulated weight tracks a *targeted percentage* of the
  total work, where the first partition is the software partition whose
  target is the developer-supplied SW share and the remaining partitions are
  hardware partitions sharing the rest.

This mirrors the greedy heuristic the thesis describes: keep a sorted list
of SCCs whose predecessors are all placed, compare the total software and
hardware weight of the ready list when a partition is opened to decide its
domain, then add the smallest ready SCCs until the target is exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.errors import PartitionError
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.scc import StronglyConnectedComponent, component_of_map, condense
from repro.pdg.weights import WeightModel


class PartitionKind(str, Enum):
    """Execution domain of a partition."""

    SOFTWARE = "sw"
    HARDWARE = "hw"


@dataclass
class Partition:
    """One extracted thread-to-be."""

    index: int
    kind: PartitionKind
    scc_indices: List[int] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)
    sw_weight: float = 0.0
    hw_weight: float = 0.0
    target_weight: float = 0.0
    is_master: bool = False

    def is_hardware(self) -> bool:
        return self.kind is PartitionKind.HARDWARE

    def is_software(self) -> bool:
        return self.kind is PartitionKind.SOFTWARE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Partition #{self.index} {self.kind.value} sccs={len(self.scc_indices)} "
            f"insts={len(self.instructions)} sw={self.sw_weight:.0f}>"
        )


@dataclass
class FunctionPartitioning:
    """The partitioning decision for one function."""

    function: Function
    partitions: List[Partition]
    assignment: Dict[Instruction, int]         # instruction -> partition index
    components: List[StronglyConnectedComponent]
    pdg: ProgramDependenceGraph
    sw_fraction: float

    def software_partitions(self) -> List[Partition]:
        return [p for p in self.partitions if p.is_software()]

    def master_partition(self) -> Partition:
        for p in self.partitions:
            if p.is_master:
                return p
        return self.partitions[0]

    def achieved_sw_fraction(self) -> float:
        """Fraction of (software-cycle) work actually placed on SW partitions."""
        total = sum(p.sw_weight for p in self.partitions)
        if total <= 0:
            return 0.0
        return sum(p.sw_weight for p in self.software_partitions()) / total


class DSWPPartitioner:
    """Greedy targeted-percentage partitioner."""

    def __init__(self, weight_model: WeightModel, cold_execution_threshold: float = 8.0):
        self.weight_model = weight_model
        # SCCs whose instructions execute at most this many times are "cold"
        # and eligible for the software partition.
        self.cold_execution_threshold = cold_execution_threshold

    def _max_dynamic_count(self, scc: StronglyConnectedComponent) -> float:
        counts = [self.weight_model.weights(i).dynamic_count for i in scc.instructions]
        return max(counts) if counts else 0.0

    # -- public API -----------------------------------------------------------------

    def partition_function(
        self,
        fn: Function,
        pdg: ProgramDependenceGraph,
        num_partitions: int,
        sw_fraction: float,
        master_in_software: bool = True,
    ) -> FunctionPartitioning:
        """Partition ``fn`` into ``num_partitions`` pipeline stages.

        ``sw_fraction`` is the targeted share of work (measured in software
        cycles) placed on the software partition; the remaining work is
        spread evenly over the hardware partitions.
        """
        if num_partitions < 1:
            raise PartitionError(f"num_partitions must be >= 1, got {num_partitions}")
        if not 0.0 <= sw_fraction <= 1.0:
            raise PartitionError(f"sw_fraction must be within [0, 1], got {sw_fraction}")

        components = condense(pdg)
        self.weight_model.annotate_sccs(components)
        by_index = {scc.index: scc for scc in components}
        total_dynamic = sum(scc.sw_weight for scc in components) or 1.0
        total_static = sum(scc.size() for scc in components) or 1

        # Targets.  Partition 0 is the software/master partition; its target
        # is a share of the *static* instruction count (the thesis's reported
        # "75%/25%" split is a static workload split), and it preferentially
        # absorbs the SCCs that are cheapest to run on the processor — i.e.
        # the cold control/bookkeeping code — exactly what the thesis's
        # "resort by the appropriate weight, add the smallest SCCs" rule does.
        # The hardware partitions share the remaining *dynamic* work evenly so
        # the pipeline stages are balanced.
        sw_static_target = sw_fraction * total_static
        partitions = [
            Partition(
                index=i,
                kind=PartitionKind.SOFTWARE if i == 0 else PartitionKind.HARDWARE,
                is_master=(i == 0),
            )
            for i in range(num_partitions)
        ]
        if not master_in_software and num_partitions > 1:
            partitions[0].kind = PartitionKind.HARDWARE

        # Greedy fill honouring dependences: only SCCs whose predecessors are
        # already placed are eligible ("ready"), which guarantees that every
        # cross-partition edge points from an earlier partition to the current
        # one (no cycles between partitions).
        assignment_of_scc: Dict[int, int] = {}
        placed_static = 0.0
        remaining_indices = {scc.index for scc in components}

        def ready_sccs() -> List[StronglyConnectedComponent]:
            out = []
            for idx in remaining_indices:
                scc = by_index[idx]
                if all(pred in assignment_of_scc for pred in scc.predecessors):
                    out.append(scc)
            return out

        def place(scc: StronglyConnectedComponent, partition: Partition) -> None:
            nonlocal placed_static
            partition.scc_indices.append(scc.index)
            assignment_of_scc[scc.index] = partition.index
            partition.sw_weight += scc.sw_weight
            partition.hw_weight += scc.hw_weight
            placed_static += scc.size()
            remaining_indices.discard(scc.index)

        # 1. Software partition: the processor keeps the *cold* control and
        #    bookkeeping code (smallest dynamic weight first) up to its static
        #    share.  Hot loop SCCs never go to the processor here — placing a
        #    loop-carried SCC on the MicroBlaze would put a slow sequential
        #    stage plus per-iteration stream transfers on the pipeline's
        #    critical path, which is exactly the pathology the thesis observes
        #    on Blowfish (§6.4).
        sw_partition = partitions[0]
        sw_partition.target_weight = sw_static_target
        hot_threshold = self.cold_execution_threshold
        while remaining_indices and num_partitions > 1:
            candidates = [
                scc
                for scc in ready_sccs()
                if self._max_dynamic_count(scc) <= hot_threshold
            ]
            if not candidates:
                break
            candidates.sort(key=lambda s: (s.sw_weight, s.size(), s.index))
            scc = candidates[0]
            if placed_static + scc.size() > sw_static_target and sw_partition.scc_indices:
                break
            place(scc, sw_partition)
            if placed_static >= sw_static_target:
                break

        # 2. Hardware partitions: split the remaining dynamic work evenly,
        #    smallest hardware weight first within each partition.
        remaining_dynamic = sum(by_index[i].sw_weight for i in remaining_indices)
        hw_partitions = partitions[1:] if num_partitions > 1 else partitions[:1]
        hw_target = remaining_dynamic / max(1, len(hw_partitions))
        for position, partition in enumerate(hw_partitions):
            partition.target_weight = hw_target
            is_last = position == len(hw_partitions) - 1
            while remaining_indices:
                candidates = ready_sccs()
                if not candidates:
                    break
                candidates.sort(key=lambda s: (s.hw_weight, s.size(), s.index))
                scc = candidates[0]
                place(scc, partition)
                if not is_last and partition.sw_weight >= hw_target:
                    break
        # Anything still unplaced (blocked behind SCCs in the last partition)
        # joins the last partition.
        while remaining_indices:
            candidates = ready_sccs()
            if not candidates:  # pragma: no cover - defensive
                candidates = [by_index[i] for i in remaining_indices]
            for scc in candidates:
                place(scc, partitions[-1])

        # Materialise instruction lists and the instruction -> partition map.
        scc_of_inst = component_of_map(components)
        assignment: Dict[Instruction, int] = {}
        for fn_inst in fn.instructions():
            scc_index = scc_of_inst[fn_inst]
            partition_index = assignment_of_scc[scc_index]
            assignment[fn_inst] = partition_index
            partitions[partition_index].instructions.append(fn_inst)

        self._validate_acyclic(components, assignment_of_scc)
        return FunctionPartitioning(
            function=fn,
            partitions=partitions,
            assignment=assignment,
            components=components,
            pdg=pdg,
            sw_fraction=sw_fraction,
        )

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _validate_acyclic(
        components: Sequence[StronglyConnectedComponent],
        assignment_of_scc: Dict[int, int],
    ) -> None:
        """Cross-partition edges must only go from lower to higher partition index."""
        for scc in components:
            src_partition = assignment_of_scc[scc.index]
            for succ in scc.successors:
                dst_partition = assignment_of_scc[succ]
                if dst_partition < src_partition:
                    raise PartitionError(
                        "partition assignment creates a backward cross-partition edge "
                        f"(SCC {scc.index} in partition {src_partition} -> "
                        f"SCC {succ} in partition {dst_partition})"
                    )
