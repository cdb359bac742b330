"""Cross-partition dependence discovery and queue/semaphore allocation.

One hardware queue is allocated per (produced value, consuming partition)
pair — the same granularity the thesis uses (a value consumed by two
different partitions needs two queues because each consumer dequeues at its
own rate).  Branch conditions that other partitions are control-dependent on
are broadcast the same way.

Semaphores are allocated for function threads that are re-used from call
sites in *different* caller functions (thesis §5.2.1, "Function Calls"):
mutual exclusion is needed only when the call sites cannot be proven
non-overlapping, which is exactly the multi-caller case after inlining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.loops import LoopInfo
from repro.dswp.loop_matching import LoopMatchCase, classify_loop_match
from repro.dswp.partitioner import FunctionPartitioning
from repro.ir.instructions import CondBranch, Instruction, Switch
from repro.ir.module import Module
from repro.pdg.graph import DependenceKind


@dataclass(frozen=True)
class CrossPartitionDep:
    """A value (or branch condition) that flows between two partitions."""

    value: Instruction
    consumer: Instruction
    producer_partition: int
    consumer_partition: int
    kind: DependenceKind
    loop_case: LoopMatchCase


@dataclass
class QueueSpec:
    """One allocated hardware queue."""

    queue_id: int
    function: str
    value: Instruction
    producer_partition: int
    consumer_partition: int
    width_bits: int = 32
    depth: int = 8
    deps: List[CrossPartitionDep] = field(default_factory=list)


@dataclass
class QueueAllocation:
    """All queues and semaphores allocated for one function partitioning."""

    function: str
    queues: List[QueueSpec] = field(default_factory=list)
    deps: List[CrossPartitionDep] = field(default_factory=list)
    semaphore_count: int = 0

    @property
    def queue_count(self) -> int:
        return len(self.queues)


def find_cross_partition_deps(
    partitioning: FunctionPartitioning,
    loop_info: Optional[LoopInfo] = None,
) -> List[CrossPartitionDep]:
    """Every PDG data/control dependence whose endpoints live in different partitions."""
    fn = partitioning.function
    loop_info = loop_info or LoopInfo(fn)
    deps: List[CrossPartitionDep] = []
    seen: Set[Tuple[int, int, int]] = set()
    for edge in partitioning.pdg.edges:
        src = partitioning.assignment.get(edge.tail)
        dst = partitioning.assignment.get(edge.head)
        if src is None or dst is None or src == dst:
            continue
        if edge.kind is DependenceKind.DATA:
            value, consumer = edge.tail, edge.head
        elif edge.kind is DependenceKind.CONTROL and isinstance(edge.tail, (CondBranch, Switch)):
            # The consuming partition replicates the branch, so it needs the
            # branch *condition* value forwarded.
            condition = edge.tail.get_operand(0) if edge.tail.num_operands() else None
            if not isinstance(condition, Instruction):
                continue
            value, consumer = condition, edge.head
        else:
            # Memory and fake edges move no register value.  The timing
            # replay orders a load after its store through the trace's
            # ``mem_dep`` column; the extracted threads do not synchronise
            # memory at all (ROADMAP item 1, defect B).
            continue
        key = (id(value), id(consumer), dst)
        if key in seen:
            continue
        seen.add(key)
        deps.append(
            CrossPartitionDep(
                value=value,
                consumer=consumer,
                producer_partition=partitioning.assignment.get(value, src),
                consumer_partition=dst,
                kind=edge.kind,
                loop_case=classify_loop_match(value, consumer, loop_info),
            )
        )
    return deps


def allocate_queues(
    partitioning: FunctionPartitioning,
    loop_info: Optional[LoopInfo] = None,
    queue_depth: int = 8,
    queue_width: int = 32,
    start_id: int = 0,
) -> QueueAllocation:
    """Group cross-partition deps into queues: one per (value, consumer partition)."""
    fn = partitioning.function
    deps = find_cross_partition_deps(partitioning, loop_info)
    allocation = QueueAllocation(function=fn.name, deps=deps)
    by_key: Dict[Tuple[int, int], QueueSpec] = {}
    next_id = start_id
    for dep in deps:
        key = (id(dep.value), dep.consumer_partition)
        spec = by_key.get(key)
        if spec is None:
            width = dep.value.type.size_bytes() * 8 if dep.value.type.is_integer() else queue_width
            spec = QueueSpec(
                queue_id=next_id,
                function=fn.name,
                value=dep.value,
                producer_partition=dep.producer_partition,
                consumer_partition=dep.consumer_partition,
                width_bits=min(width, queue_width),
                depth=queue_depth,
            )
            next_id += 1
            by_key[key] = spec
            allocation.queues.append(spec)
        spec.deps.append(dep)
    return allocation


def allocate_semaphores(module: Module, partitioned_functions: List[str]) -> Dict[str, int]:
    """Semaphores per function: one for each partitioned function whose thread is
    shared by call sites in more than one caller function."""
    callgraph = CallGraph(module)
    result: Dict[str, int] = {}
    for name in partitioned_functions:
        callers = [c for c in callgraph.callers_of(name) if c != name]
        result[name] = 1 if len(callers) > 1 else 0
    return result
