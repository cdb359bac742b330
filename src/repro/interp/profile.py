"""Execution profile derived from a trace (or estimated statically).

The DSWP partitioner weights each PDG node by expected dynamic cost.  The
thesis estimates weights statically (per-instruction cycle estimates scaled
by loop depth); with the interpreter available we can also use measured
dynamic counts.  Both paths produce a :class:`Profile`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.loops import LoopInfo
from repro.interp.trace import Trace
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module


# Static estimate: each additional loop-nesting level multiplies the expected
# execution count by this factor (the usual compiler heuristic constant).
STATIC_LOOP_WEIGHT = 10


class Profile:
    """Expected dynamic execution count for every static instruction."""

    def __init__(self, module: Module):
        self.module = module
        self._counts: Dict[Instruction, float] = {}

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_trace(cls, module: Module, trace: Trace) -> "Profile":
        """Build a profile from measured dynamic instruction counts."""
        profile = cls(module)
        counts = trace.instruction_counts()
        for fn in module.defined_functions():
            for inst in fn.instructions():
                profile._counts[inst] = float(counts.get(inst, 0))
        return profile

    @classmethod
    def static_estimate(cls, module: Module) -> "Profile":
        """Build a profile from loop-depth-based static estimates (thesis default)."""
        profile = cls(module)
        for fn in module.defined_functions():
            loop_info = LoopInfo(fn)
            for block in fn.blocks:
                weight = float(STATIC_LOOP_WEIGHT ** loop_info.loop_depth(block))
                for inst in block.instructions:
                    profile._counts[inst] = weight
        return profile

    # -- queries ---------------------------------------------------------------------

    def count(self, inst: Instruction) -> float:
        """Expected dynamic execution count of ``inst`` (1.0 when unknown)."""
        return self._counts.get(inst, 1.0)

    def function_total(self, fn: Function) -> float:
        return sum(self.count(inst) for inst in fn.instructions())

    def hottest_function(self) -> Optional[str]:
        best_name: Optional[str] = None
        best_total = -1.0
        for fn in self.module.defined_functions():
            total = self.function_total(fn)
            if total > best_total:
                best_total = total
                best_name = fn.name
        return best_name

    def scale(self, factor: float) -> "Profile":
        """Return a copy with every count multiplied by ``factor``."""
        copy = Profile(self.module)
        copy._counts = {k: v * factor for k, v in self._counts.items()}
        return copy
