"""FPGA hardware latency and area model (the LegUp analogue's cost tables).

Latencies are in cycles at the 100 MHz system clock the thesis uses for all
hardware modules (§6).  Area is counted in Virtex-5 LUTs plus DSP blocks,
calibrated to the concrete figures the thesis reports:

* an 8x32 queue uses 65 LUTs and one DSP block (§6.2);
* a semaphore uses 70 LUTs, an HWInterface 44 LUTs, the processor interface
  24 LUTs, the scheduler 98 LUTs + 2 DSPs, each bus arbiter 15 LUTs (§6.2);
* loads/stores take "the minimum area possible" because they call out to the
  runtime memory bus (§5.2);
* division gets a large area penalty — a dedicated DSP block or "an
  inordinate amount of LUT blocks" — and takes 13 cycles in hardware versus
  34 in software (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ir.instructions import Instruction, Opcode


# Latency (cycles) of each operation when implemented in the FPGA fabric.
HW_LATENCY: Dict[Opcode, int] = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.MUL: 2,
    Opcode.SDIV: 13,
    Opcode.UDIV: 13,
    Opcode.SREM: 13,
    Opcode.UREM: 13,
    Opcode.SHL: 1,
    Opcode.LSHR: 1,
    Opcode.ASHR: 1,
    Opcode.ICMP: 1,
    Opcode.SELECT: 1,
    Opcode.LOAD: 2,          # memory bus read (§4.1): two cycles
    Opcode.STORE: 1,         # memory bus write: one cycle
    Opcode.GEP: 1,
    Opcode.ALLOCA: 1,
    Opcode.TRUNC: 0,
    Opcode.ZEXT: 0,
    Opcode.SEXT: 0,
    Opcode.BITCAST: 0,
    Opcode.BR: 1,            # FSM state transition
    Opcode.CONDBR: 1,
    Opcode.SWITCH: 1,
    Opcode.RET: 1,
    Opcode.PHI: 0,           # a mux on the state-entry path
    Opcode.CALL: 1,
    Opcode.PRODUCE: 2,       # queue enqueue: two cycles minimum (§4.3)
    Opcode.CONSUME: 2,       # queue dequeue: two cycles minimum (§4.3)
}

# LUTs consumed by one functional unit for each opcode (32-bit datapath).
HW_AREA_LUTS: Dict[Opcode, int] = {
    Opcode.ADD: 32,
    Opcode.SUB: 32,
    Opcode.AND: 16,
    Opcode.OR: 16,
    Opcode.XOR: 16,
    Opcode.MUL: 90,
    Opcode.SDIV: 350,
    Opcode.UDIV: 350,
    Opcode.SREM: 350,
    Opcode.UREM: 350,
    Opcode.SHL: 60,
    Opcode.LSHR: 60,
    Opcode.ASHR: 60,
    Opcode.ICMP: 20,
    Opcode.SELECT: 16,
    Opcode.LOAD: 8,          # just the bus request logic
    Opcode.STORE: 8,
    Opcode.GEP: 24,
    Opcode.ALLOCA: 4,
    Opcode.TRUNC: 0,
    Opcode.ZEXT: 0,
    Opcode.SEXT: 0,
    Opcode.BITCAST: 0,
    Opcode.BR: 2,
    Opcode.CONDBR: 4,
    Opcode.SWITCH: 8,
    Opcode.RET: 2,
    Opcode.PHI: 10,          # input multiplexer
    Opcode.CALL: 12,
    Opcode.PRODUCE: 8,
    Opcode.CONSUME: 8,
}

# DSP blocks consumed by one functional unit for each opcode.
HW_AREA_DSP: Dict[Opcode, int] = {
    Opcode.MUL: 1,
    Opcode.SDIV: 1,
    Opcode.UDIV: 1,
    Opcode.SREM: 1,
    Opcode.UREM: 1,
}

DEFAULT_HW_LATENCY = 1
DEFAULT_HW_LUTS = 8

# FSM / control overhead per scheduled state and per hardware thread,
# calibrated so the per-benchmark totals land in the same range as Table 6.2.
FSM_LUTS_PER_STATE = 3
THREAD_BASE_LUTS = 60           # thread-level control, start/stop logic
REGISTER_LUTS_PER_LIVE_VALUE = 8


@dataclass(frozen=True)
class RuntimePrimitiveArea:
    """Area of one Twill runtime primitive (thesis §6.2)."""

    hw_interface_luts: int = 44
    queue_8x32_luts: int = 65
    queue_dsp: int = 1
    semaphore_luts: int = 70
    processor_interface_luts: int = 24
    scheduler_luts: int = 98
    scheduler_dsp: int = 2
    bus_arbiter_luts: int = 15
    num_bus_arbiters: int = 2
    microblaze_luts: int = 1434   # Table 6.2: MIPS Twill+Microblaze minus Twill
    microblaze_bram: int = 16     # §6.2: 16 BRAM blocks regardless of code

    def queue_luts(self, length: int = 8, width: int = 32) -> int:
        """Scale the 8x32 queue figure with depth and width (FIFO storage + control)."""
        base_control = 35
        storage = self.queue_8x32_luts - base_control
        scale = (length / 8.0) * (width / 32.0)
        return int(round(base_control + storage * max(scale, 0.25)))


RUNTIME_PRIMITIVE_AREA = RuntimePrimitiveArea()


class HardwareCostModel:
    """Latency and area of IR instructions implemented in the FPGA fabric."""

    def __init__(
        self,
        latency: Dict[Opcode, int] | None = None,
        area_luts: Dict[Opcode, int] | None = None,
    ):
        self.latency = dict(HW_LATENCY)
        self.area_luts = dict(HW_AREA_LUTS)
        self.area_dsp = dict(HW_AREA_DSP)
        if latency:
            self.latency.update(latency)
        if area_luts:
            self.area_luts.update(area_luts)
        self.primitives = RUNTIME_PRIMITIVE_AREA

    def cost(self, inst: Instruction) -> int:
        """Latency in cycles of ``inst`` as a hardware operation."""
        return self.latency.get(inst.opcode, DEFAULT_HW_LATENCY)

    def opcode_cost(self, opcode: Opcode) -> int:
        return self.latency.get(opcode, DEFAULT_HW_LATENCY)

    def luts(self, inst: Instruction) -> int:
        return self.area_luts.get(inst.opcode, DEFAULT_HW_LUTS)

    def dsps(self, inst: Instruction) -> int:
        return self.area_dsp.get(inst.opcode, 0)

    def is_chainable(self, opcode: Opcode) -> bool:
        """Can several of these be chained combinationally within one FSM state?"""
        return opcode in (
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.TRUNC,
            Opcode.ZEXT,
            Opcode.SEXT,
            Opcode.BITCAST,
            Opcode.GEP,
            Opcode.PHI,
            Opcode.SELECT,
            Opcode.ICMP,
        )
