"""Functional-unit binding with resource sharing.

LegUp does not instantiate one functional unit per IR operation: operations
of the same kind that are scheduled in *different* FSM states share a unit
(plus an input multiplexer).  The number of units needed for an opcode is
therefore the peak number of simultaneously-active operations of that kind
across all states — which is what this module computes, and what the area
model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hls.scheduling import FSMSchedule
from repro.ir.instructions import Instruction, Opcode

# Sharing a functional unit costs an input multiplexer per extra user.
MUX_LUTS_PER_SHARED_INPUT = 6

# Opcodes worth sharing (expensive units); cheap logic is simply replicated.
SHAREABLE_OPCODES = {
    Opcode.MUL,
    Opcode.SDIV,
    Opcode.UDIV,
    Opcode.SREM,
    Opcode.UREM,
    Opcode.SHL,
    Opcode.LSHR,
    Opcode.ASHR,
}


@dataclass
class BindingResult:
    """Functional-unit requirements of one scheduled function/partition."""

    units: Dict[Opcode, int] = field(default_factory=dict)          # peak concurrent uses
    total_operations: Dict[Opcode, int] = field(default_factory=dict)
    mux_luts: int = 0


def bind_function(schedule: FSMSchedule, share_resources: bool = True) -> BindingResult:
    """Compute functional-unit requirements from an FSM schedule.

    With ``share_resources`` (the Twill hardware-thread flow) expensive units
    are time-multiplexed across states, so the unit count is the *peak*
    per-state demand; without it (LegUp's default pure-HW flow, which only
    shares units when the resource-constraint pragmas are used) every
    operation gets its own unit.
    """
    result = BindingResult()
    for block_schedule in schedule.blocks.values():
        for state in block_schedule.states:
            per_state: Dict[Opcode, int] = {}
            for inst in state.operations:
                per_state[inst.opcode] = per_state.get(inst.opcode, 0) + 1
                result.total_operations[inst.opcode] = result.total_operations.get(inst.opcode, 0) + 1
            for opcode, count in per_state.items():
                if opcode in SHAREABLE_OPCODES and share_resources:
                    result.units[opcode] = max(result.units.get(opcode, 0), count)
                else:
                    result.units[opcode] = result.units.get(opcode, 0) + count

    if not share_resources:
        return result
    # Sharing cost: every use beyond the unit count pays an input mux.
    for opcode in SHAREABLE_OPCODES:
        total = result.total_operations.get(opcode, 0)
        units = result.units.get(opcode, 0)
        if total > units > 0:
            result.mux_luts += (total - units) * MUX_LUTS_PER_SHARED_INPUT
    return result
