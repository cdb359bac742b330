"""Microblaze-like software cycle cost model.

The numbers follow the MicroBlaze v8 reference (3-stage, area-optimised
configuration — the thesis configures MicroBlaze "to minimize its area",
§6) and the explicit figures the thesis gives in §5.2: loads and stores take
two cycles in software, division takes 34 cycles, and the hardware-primitive
operations (enqueue/dequeue/semaphores) cost five cycles of processor time
through the stream interface (§4.5).
"""

from __future__ import annotations

from typing import Dict

from repro.ir.instructions import Instruction, Opcode


# Cycles per IR opcode on the area-optimised MicroBlaze (no barrel shifter,
# serial multiplier disabled → shifts and multiplies are multi-cycle).
MICROBLAZE_CYCLES: Dict[Opcode, int] = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.MUL: 3,
    Opcode.SDIV: 34,
    Opcode.UDIV: 34,
    Opcode.SREM: 34,
    Opcode.UREM: 34,
    Opcode.SHL: 2,
    Opcode.LSHR: 2,
    Opcode.ASHR: 2,
    Opcode.ICMP: 1,
    Opcode.SELECT: 2,
    Opcode.LOAD: 2,
    Opcode.STORE: 2,
    Opcode.GEP: 1,          # address arithmetic folds into an add
    Opcode.ALLOCA: 1,
    Opcode.TRUNC: 1,
    Opcode.ZEXT: 1,
    Opcode.SEXT: 1,
    Opcode.BITCAST: 0,
    Opcode.BR: 2,           # taken-branch penalty on the 3-stage pipeline
    Opcode.CONDBR: 2,
    Opcode.SWITCH: 3,
    Opcode.RET: 2,
    Opcode.PHI: 1,          # materialises as a register move
    Opcode.CALL: 4,         # call/return linkage overhead
    Opcode.PRODUCE: 5,      # stream `put` pair through the processor interface (§4.5)
    Opcode.CONSUME: 5,      # stream `get` pair
}

# Default cycles for opcodes not in the table.
DEFAULT_SW_CYCLES = 1


class SoftwareCostModel:
    """Cycle cost of executing IR instructions on the soft processor.

    ``expansion_overhead`` models the fact that one IR operation lowers to
    roughly two-to-three MicroBlaze machine instructions (register spills,
    address materialisation, compare-and-branch pairs) on the area-optimised
    core; it is added to every instruction's table cost.
    """

    def __init__(
        self,
        cycles: Dict[Opcode, int] | None = None,
        clock_mhz: float = 100.0,
        expansion_overhead: int = 4,
    ):
        self.cycles = dict(MICROBLAZE_CYCLES)
        if cycles:
            self.cycles.update(cycles)
        self.clock_mhz = clock_mhz
        self.expansion_overhead = expansion_overhead

    def cost(self, inst: Instruction) -> int:
        """Cycles to execute ``inst`` in software."""
        return self.opcode_cost(inst.opcode)

    def opcode_cost(self, opcode: Opcode) -> int:
        base = self.cycles.get(opcode, DEFAULT_SW_CYCLES)
        if opcode is Opcode.BITCAST:
            return base
        return base + self.expansion_overhead
