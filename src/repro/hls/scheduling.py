"""Operation scheduling into FSM states (the LegUp scheduler analogue).

Each basic block is scheduled independently with a dependence-aware list
scheduler: operations whose operands are ready issue together in one state,
bounded by the configured issue width; cheap combinational operations can be
chained behind their producers within the same state; multi-cycle operations
(dividers, memory reads over the runtime bus) occupy several states.

The resulting :class:`FSMSchedule` provides two things the rest of the
system needs:

* ``block_latency`` — cycles to execute one pass through a block in
  hardware, which the timing simulator uses for HW-thread timing;
* ``state_count`` — number of FSM states, which feeds the area model
  (FSM/control LUTs grow with state count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import HLSConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.errors import SchedulingError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, Phi


@dataclass
class ScheduledState:
    """One FSM state: the operations that start in it."""

    index: int
    operations: List[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)


@dataclass
class BlockSchedule:
    """Schedule of one basic block."""

    block: BasicBlock
    states: List[ScheduledState] = field(default_factory=list)
    start_cycle: Dict[Instruction, int] = field(default_factory=dict)   # inst -> relative cycle
    latency: int = 0                                                    # cycles for one pass

    @property
    def state_count(self) -> int:
        return len(self.states)


@dataclass
class FSMSchedule:
    """Schedule of a whole function."""

    function: Function
    blocks: Dict[str, BlockSchedule] = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        return sum(b.state_count for b in self.blocks.values())

    def block_latency(self, block_name: str) -> int:
        return self.blocks[block_name].latency

    def total_latency_estimate(self, block_counts: Optional[Dict[str, float]] = None) -> float:
        """Estimated execution cycles given per-block execution counts."""
        total = 0.0
        for name, sched in self.blocks.items():
            count = 1.0 if block_counts is None else block_counts.get(name, 0.0)
            total += sched.latency * count
        return total


class HLSScheduler:
    """Dependence-aware list scheduler with chaining and bounded issue width."""

    def __init__(self, config: Optional[HLSConfig] = None, hardware: Optional[HardwareCostModel] = None):
        self.config = config or HLSConfig()
        self.config.validate()
        self.hardware = hardware or HardwareCostModel()

    # -- public API ----------------------------------------------------------------

    def schedule_function(self, fn: Function, only: Optional[List[Instruction]] = None) -> FSMSchedule:
        """Schedule every block of ``fn``.

        ``only`` restricts scheduling to a subset of instructions (used when a
        hardware partition owns just part of the function); branch
        terminators are always included.
        """
        if fn.is_declaration():
            raise SchedulingError(f"cannot schedule declaration {fn.name}")
        keep = None if only is None else {id(i) for i in only}
        schedule = FSMSchedule(function=fn)
        for block in fn.blocks:
            if keep is not None and not any(id(inst) in keep for inst in block.instructions):
                # A hardware partition only materialises states for the blocks
                # it owns work in (the thesis prunes unused blocks from each
                # partition, §5.2); skipping them here keeps the per-thread
                # FSM/register area proportional to the partition's own code.
                continue
            instructions = [
                inst
                for inst in block.instructions
                if keep is None or id(inst) in keep or inst.is_terminator()
            ]
            schedule.blocks[block.name] = self._schedule_block(block, instructions)
        return schedule

    # -- block scheduling ----------------------------------------------------------------

    def _schedule_block(self, block: BasicBlock, instructions: List[Instruction]) -> BlockSchedule:
        result = BlockSchedule(block=block)
        if not instructions:
            result.latency = 1
            result.states.append(ScheduledState(0))
            return result

        in_block = {id(i) for i in instructions}
        finish: Dict[int, int] = {}
        issued_per_cycle: Dict[int, int] = {}
        current_cycle = 0

        for inst in instructions:
            latency = self.hardware.cost(inst)
            # Earliest cycle all in-block operands are available.
            ready = 0
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) in in_block:
                    op_finish = finish.get(id(op), 0)
                    if self.config.enable_chaining and self.hardware.is_chainable(inst.opcode):
                        # Chained ops can start in the producer's final cycle.
                        ready = max(ready, max(op_finish - 1, 0))
                    else:
                        ready = max(ready, op_finish)
            if isinstance(inst, Phi):
                ready = 0  # phis resolve on state entry
            start = max(ready, 0)
            # Respect the issue-width budget (terminators never count).
            if not inst.is_terminator():
                while issued_per_cycle.get(start, 0) >= self.config.issue_width:
                    start += 1
                issued_per_cycle[start] = issued_per_cycle.get(start, 0) + 1
            else:
                # The terminator evaluates in the last state of the block.
                start = max(start, current_cycle)
            finish[id(inst)] = start + max(latency, 1 if not self._is_free(inst) else 0)
            result.start_cycle[inst] = start
            current_cycle = max(current_cycle, start)

        latency = max(finish.values()) if finish else 1
        result.latency = max(1, latency)
        # Materialise states for the area model (one per occupied start cycle).
        by_cycle: Dict[int, List[Instruction]] = {}
        for inst in instructions:
            by_cycle.setdefault(result.start_cycle[inst], []).append(inst)
        for index, cycle in enumerate(sorted(by_cycle)):
            result.states.append(ScheduledState(index=index, operations=by_cycle[cycle]))
        return result

    @staticmethod
    def _is_free(inst: Instruction) -> bool:
        """Zero-latency operations (casts, phis) that melt into wiring."""
        return inst.opcode in (Opcode.TRUNC, Opcode.ZEXT, Opcode.SEXT, Opcode.BITCAST, Opcode.PHI)
