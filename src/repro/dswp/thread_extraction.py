"""Materialisation of DSWP partitions as standalone IR thread functions.

Each partition of a function ``f`` becomes a new IR function named
``f_dswp_<k>`` (matching the thesis's ``<function name>_dswp_<partition>``
naming).  The extraction strategy replicates the *entire* control-flow
skeleton of the original function in every thread (all basic blocks and all
branch terminators) and then:

* keeps only the instructions assigned to the partition;
* inserts a ``consume`` at the defining position of every value that the
  partition uses but another partition computes;
* inserts a ``produce`` right after every value this partition computes that
  another partition consumes (one per consuming partition, each with its own
  queue).

Full control replication is a simplification relative to the thesis (which
prunes blocks a partition does not need and then patches branch targets to
post-dominators); it trades some redundant branch work for a guarantee that
produce/consume counts match on every control path, which makes the
loop-matching cases of Figure 5.3 fall out automatically.  Its cost, more
queues built than Table 6.1 counts, is ROADMAP item 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dswp.partitioner import FunctionPartitioning, Partition, PartitionKind
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Call,
    CondBranch,
    Consume,
    Instruction,
    Phi,
    Produce,
    Return,
    Switch,
)
from repro.ir.module import Module
from repro.ir.types import IntType, PointerType
from repro.ir.values import Constant, Value
from repro.transforms.inline import clone_instruction


@dataclass
class ExtractedThread:
    """One generated thread function."""

    function: Function
    source_function: str
    partition_index: int
    kind: PartitionKind
    is_master: bool
    queue_reads: List[int] = field(default_factory=list)
    queue_writes: List[int] = field(default_factory=list)


@dataclass
class ExtractionResult:
    """All threads extracted from one source function."""

    source_function: str
    threads: List[ExtractedThread]
    queue_count: int
    queue_map: Dict[Tuple[Instruction, int], int]   # (value, consumer partition) -> queue id


class ThreadExtractor:
    """Generates the per-partition thread functions."""

    def __init__(self, module: Module, next_queue_id: int = 0):
        self.module = module
        self.next_queue_id = next_queue_id

    def extract(self, partitioning: FunctionPartitioning) -> ExtractionResult:
        fn = partitioning.function
        threads: List[ExtractedThread] = []
        queue_map: Dict[Tuple[Instruction, int], int] = {}

        # Which foreign partitions consume each value?  (value, consumer partition)
        consumers: Dict[Instruction, List[int]] = {}
        for inst in fn.instructions():
            inst_partition = partitioning.assignment[inst]
            for op in inst.operands:
                if isinstance(op, Instruction):
                    op_partition = partitioning.assignment.get(op)
                    if op_partition is not None and op_partition != inst_partition:
                        consumers.setdefault(op, [])
                        if inst_partition not in consumers[op]:
                            consumers[op].append(inst_partition)
        # Branch conditions: every partition replicates every branch, so a
        # partition that does not own a branch's condition consumes it.
        all_partitions = [p.index for p in partitioning.partitions if p.instructions]
        for block in fn.blocks:
            term = block.terminator
            if isinstance(term, (CondBranch, Switch)) and term.num_operands():
                cond = term.get_operand(0)
                if isinstance(cond, Instruction):
                    cond_partition = partitioning.assignment.get(cond)
                    for p in all_partitions:
                        if p != cond_partition:
                            consumers.setdefault(cond, [])
                            if p not in consumers[cond]:
                                consumers[cond].append(p)

        def queue_for(value: Instruction, consumer_partition: int) -> int:
            key = (value, consumer_partition)
            if key not in queue_map:
                queue_map[key] = self.next_queue_id
                self.next_queue_id += 1
            return queue_map[key]

        for partition in partitioning.partitions:
            if not partition.instructions and not partition.is_master:
                continue
            thread = self._extract_partition(fn, partitioning, partition, consumers, queue_for)
            threads.append(thread)

        return ExtractionResult(
            source_function=fn.name,
            threads=threads,
            queue_count=len(queue_map),
            queue_map=queue_map,
        )

    # -- one partition --------------------------------------------------------------

    def _extract_partition(
        self,
        fn: Function,
        partitioning: FunctionPartitioning,
        partition: Partition,
        consumers: Dict[Instruction, List[int]],
        queue_for,
    ) -> ExtractedThread:
        name = f"{fn.name}_dswp_{partition.index}"
        new_fn = Function(name, fn.function_type, [a.name for a in fn.args], parent=self.module)
        new_fn.extracted_from = fn.name
        if self.module.has_function(name):
            # Re-extraction (e.g. with a different split): replace the old thread.
            del self.module.functions[name]
        self.module.add_function(new_fn)

        block_map: Dict[int, BasicBlock] = {}
        for old_block in fn.blocks:
            new_block = BasicBlock(old_block.name, parent=new_fn)
            new_fn.blocks.append(new_block)
            block_map[id(old_block)] = new_block

        value_map: Dict[int, Value] = {}
        for old_arg, new_arg in zip(fn.args, new_fn.args):
            value_map[id(old_arg)] = new_arg

        queue_reads: List[int] = []
        queue_writes: List[int] = []
        phi_fixups: List[Tuple[Phi, Phi]] = []

        keep = partitioning.assignment
        my_index = partition.index

        for old_block in fn.blocks:
            new_block = block_map[id(old_block)]
            # Queue operations for phi values go after the block's phi run:
            # only phis may precede a phi.
            phi_queue_ops: List[Instruction] = []
            for inst in old_block.instructions:
                emit = phi_queue_ops.append if isinstance(inst, Phi) else new_block.append
                owned = keep.get(inst) == my_index
                is_term = inst.is_terminator()
                if not owned and not is_term:
                    # Foreign instruction: if this partition consumes its value,
                    # a consume takes its place (same block, same position).
                    if inst in consumers and my_index in consumers[inst]:
                        queue_id = queue_for(inst, my_index)
                        width_type = (
                            inst.type
                            if isinstance(inst.type, (IntType, PointerType))
                            else IntType(32, True)
                        )
                        consume = Consume(queue_id, width_type, name=f"{inst.name or 'v'}.q{queue_id}")
                        emit(consume)
                        value_map[id(inst)] = consume
                        queue_reads.append(queue_id)
                    continue
                cloned = clone_instruction(inst, value_map, block_map)
                value_map[id(inst)] = cloned
                new_block.append(cloned)
                if isinstance(inst, Phi):
                    phi_fixups.append((inst, cloned))  # type: ignore[arg-type]
                # If another partition consumes this value, produce it here.
                if owned and inst in consumers:
                    for consumer_partition in consumers[inst]:
                        if consumer_partition == my_index:
                            continue
                        queue_id = queue_for(inst, consumer_partition)
                        emit(Produce(queue_id, cloned))
                        queue_writes.append(queue_id)
            at = new_block.first_non_phi_index()
            for offset, queue_op in enumerate(phi_queue_ops):
                new_block.insert(at + offset, queue_op)

        # Second pass: fill phi incoming edges now that every value is mapped.
        for old_phi, new_phi in phi_fixups:
            for value, pred in old_phi.incoming():
                mapped_value = value_map.get(id(value), value)
                mapped_pred = block_map[id(pred)]
                new_phi.add_incoming(mapped_value, mapped_pred)

        # Foreign operands of cloned instructions that were never consumed
        # (e.g. a branch condition owned elsewhere but not registered) would
        # leave dangling references; map them to consumes at the start of the
        # defining block as a safety net.
        self._patch_dangling_operands(fn, new_fn, partitioning, partition, value_map, block_map, queue_for, queue_reads)

        return ExtractedThread(
            function=new_fn,
            source_function=fn.name,
            partition_index=partition.index,
            kind=partition.kind,
            is_master=partition.is_master,
            queue_reads=sorted(set(queue_reads)),
            queue_writes=sorted(set(queue_writes)),
        )

    @staticmethod
    def _patch_dangling_operands(
        fn: Function,
        new_fn: Function,
        partitioning: FunctionPartitioning,
        partition: Partition,
        value_map: Dict[int, Value],
        block_map: Dict[int, BasicBlock],
        queue_for,
        queue_reads: List[int],
    ) -> None:
        for old_block in fn.blocks:
            new_block = block_map[id(old_block)]
            for new_inst in list(new_block.instructions):
                for index, op in enumerate(new_inst.operands):
                    if isinstance(op, Instruction) and op.parent is not None and op.parent.parent is fn:
                        # Operand still points into the *original* function.
                        mapped = value_map.get(id(op))
                        if mapped is None:
                            queue_id = queue_for(op, partition.index)
                            width_type = (
                                op.type
                                if isinstance(op.type, (IntType, PointerType))
                                else IntType(32, True)
                            )
                            consume = Consume(queue_id, width_type, name=f"{op.name or 'v'}.q{queue_id}")
                            def_block = block_map[id(op.parent)]
                            def_block.insert(def_block.first_non_phi_index(), consume)
                            value_map[id(op)] = consume
                            queue_reads.append(queue_id)
                            mapped = consume
                        new_inst.set_operand(index, mapped)
