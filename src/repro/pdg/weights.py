"""Per-instruction weight model for the DSWP partitioner (thesis §5.2, pass 2).

Every PDG node gets two weights:

* ``sw_weight`` — estimated cycles to execute the instruction on the
  MicroBlaze, scaled by its expected dynamic execution count;
* ``hw_weight`` — the cycle·area product of the hardware implementation,
  likewise scaled (this is exactly the metric the thesis describes: "The
  hardware weight consists of the sum of the estimated cycle·area products").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.costmodel.hardware import HardwareCostModel
from repro.costmodel.software import SoftwareCostModel
from repro.interp.profile import Profile
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.pdg.scc import StronglyConnectedComponent


@dataclass
class InstructionWeights:
    """Weights for a single instruction."""

    sw_cycles: float
    hw_cycles: float
    hw_luts: int
    hw_dsps: int
    dynamic_count: float

    @property
    def sw_weight(self) -> float:
        return self.sw_cycles * self.dynamic_count

    @property
    def hw_weight(self) -> float:
        # cycle * area product, scaled by execution count (thesis §5.2)
        return max(1.0, self.hw_cycles) * max(1.0, float(self.hw_luts)) * self.dynamic_count


class WeightModel:
    """Computes and caches instruction weights for one module."""

    def __init__(
        self,
        profile: Optional[Profile] = None,
        software: Optional[SoftwareCostModel] = None,
        hardware: Optional[HardwareCostModel] = None,
    ):
        self.profile = profile
        self.software = software or SoftwareCostModel()
        self.hardware = hardware or HardwareCostModel()
        self._cache: Dict[Instruction, InstructionWeights] = {}

    def weights(self, inst: Instruction) -> InstructionWeights:
        cached = self._cache.get(inst)
        if cached is not None:
            return cached
        count = self.profile.count(inst) if self.profile is not None else 1.0
        w = InstructionWeights(
            sw_cycles=float(self.software.cost(inst)),
            hw_cycles=float(self.hardware.cost(inst)),
            hw_luts=self.hardware.luts(inst),
            hw_dsps=self.hardware.dsps(inst),
            dynamic_count=max(count, 1.0),
        )
        self._cache[inst] = w
        return w

    # -- aggregate helpers --------------------------------------------------------------

    def annotate_sccs(self, components) -> None:
        """Fill ``sw_weight`` / ``hw_weight`` on each SCC in place."""
        for scc in components:
            scc.sw_weight = sum(self.weights(i).sw_weight for i in scc.instructions)
            scc.hw_weight = sum(self.weights(i).hw_weight for i in scc.instructions)

    def function_sw_cycles(self, fn: Function) -> float:
        return sum(self.weights(i).sw_weight for i in fn.instructions())
