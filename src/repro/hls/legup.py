"""The pure-hardware LegUp baseline flow.

The thesis compares Twill against "LegUp's pure HW translation": the whole
benchmark synthesised into FPGA logic, with the Tiger/Microblaze processor
removed.  This module packages that baseline: schedule every function,
bind functional units, and report area — the timing side of the baseline is
handled by the simulator's ``pure_hw`` configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import HLSConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.hls.area import AreaEstimate, AreaModel
from repro.hls.binding import BindingResult, bind_function
from repro.hls.scheduling import FSMSchedule, HLSScheduler
from repro.ir.module import Module


@dataclass
class LegUpResult:
    """Output of the pure-hardware flow for one module."""

    schedules: Dict[str, FSMSchedule] = field(default_factory=dict)
    bindings: Dict[str, BindingResult] = field(default_factory=dict)
    function_areas: Dict[str, AreaEstimate] = field(default_factory=dict)
    memory_area: AreaEstimate = field(default_factory=AreaEstimate)

    @property
    def total_area(self) -> AreaEstimate:
        total = AreaEstimate()
        for area in self.function_areas.values():
            total = total.merged_with(area)
        return total.merged_with(self.memory_area)

    @property
    def total_luts(self) -> int:
        return self.total_area.luts

    def state_count(self) -> int:
        return sum(s.state_count for s in self.schedules.values())


class LegUpFlow:
    """Schedules and sizes a whole module as a pure-hardware design."""

    def __init__(
        self,
        config: Optional[HLSConfig] = None,
        hardware: Optional[HardwareCostModel] = None,
    ):
        self.config = config or HLSConfig()
        self.hardware = hardware or HardwareCostModel()
        self.scheduler = HLSScheduler(self.config, self.hardware)
        self.area_model = AreaModel(self.hardware)

    def run(self, module: Module) -> LegUpResult:
        result = LegUpResult()
        for fn in module.defined_functions():
            schedule = self.scheduler.schedule_function(fn)
            binding = bind_function(schedule, share_resources=False)
            result.schedules[fn.name] = schedule
            result.bindings[fn.name] = binding
            result.function_areas[fn.name] = self.area_model.datapath_area(schedule, binding)
        result.memory_area = self.area_model.legup_memory_area(module)
        return result
