"""FPGA area accounting (LUTs, DSP blocks, BRAM) — the Table 6.2 model.

Three area totals matter in the thesis's evaluation:

* **LegUp pure HW** — the whole benchmark synthesised as one circuit, with
  BRAM blocks for globals/arrays;
* **Twill HWThreads** — only the LUTs of the LegUp-translated hardware
  partitions (smaller than pure HW because part of the work stays on the
  processor);
* **Twill** — HWThreads plus the runtime system (queues, semaphores, busses,
  memory-coherency logic);
* **Twill + Microblaze** — everything plus the soft processor.
"""

from __future__ import annotations

from typing import Optional

from repro.costmodel.hardware import HardwareCostModel, RUNTIME_PRIMITIVE_AREA
from repro.hls.binding import BindingResult, bind_function
from repro.hls.scheduling import FSMSchedule
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.module import Module
from repro.ir.types import ArrayType
from repro.results import AreaEstimate

from repro.costmodel.hardware import (
    FSM_LUTS_PER_STATE,
    REGISTER_LUTS_PER_LIVE_VALUE,
    THREAD_BASE_LUTS,
)


class AreaModel:
    """Computes LUT/DSP/BRAM estimates for scheduled hardware."""

    def __init__(self, hardware: Optional[HardwareCostModel] = None):
        self.hardware = hardware or HardwareCostModel()
        self.primitives = RUNTIME_PRIMITIVE_AREA

    # -- datapath -----------------------------------------------------------------

    def datapath_area(self, schedule: FSMSchedule, binding: Optional[BindingResult] = None) -> AreaEstimate:
        """Area of one hardware thread's datapath + FSM."""
        binding = binding or bind_function(schedule)
        estimate = AreaEstimate()
        for opcode, units in binding.units.items():
            luts = self.hardware.area_luts.get(opcode, 8) * units
            dsps = self.hardware.area_dsp.get(opcode, 0) * units
            estimate.add(f"fu:{opcode.value}", luts=luts, dsps=dsps)
        estimate.add("fu:muxes", luts=binding.mux_luts)
        estimate.add("fsm", luts=schedule.state_count * FSM_LUTS_PER_STATE)
        estimate.add("thread-control", luts=THREAD_BASE_LUTS)
        # Pipeline registers: one 32-bit register per state is a reasonable
        # stand-in for LegUp's per-state live-value registers.
        estimate.add("registers", luts=schedule.state_count * REGISTER_LUTS_PER_LIVE_VALUE)
        return estimate

    # -- memories ----------------------------------------------------------------------

    def legup_memory_area(self, module: Module) -> AreaEstimate:
        """BRAM blocks LegUp instantiates for globals/arrays (pure-HW flow).

        The thesis notes most benchmarks used 10-15 BRAM blocks under pure
        LegUp synthesis while Twill stores hardware-thread data in the
        processor's memory instead (§6.2).
        """
        estimate = AreaEstimate()
        for g in module.globals.values():
            size = g.value_type.size_bytes()
            # One 18kbit BRAM holds 2 KiB; small scalars live in registers.
            if isinstance(g.value_type, ArrayType) and size > 64:
                brams = max(1, (size + 2047) // 2048)
                estimate.add(f"bram:{g.name}", brams=brams)
        return estimate

    # -- runtime system -------------------------------------------------------------------

    def runtime_area(
        self,
        num_queues: int,
        num_semaphores: int,
        num_hw_threads: int,
        queue_depth: int = 8,
        queue_width: int = 32,
        num_processors: int = 1,
    ) -> AreaEstimate:
        """Area of the Twill runtime system (§6.2 component figures)."""
        p = self.primitives
        estimate = AreaEstimate()
        estimate.add("queues", luts=num_queues * p.queue_luts(queue_depth, queue_width), dsps=num_queues * p.queue_dsp)
        estimate.add("semaphores", luts=num_semaphores * p.semaphore_luts)
        estimate.add("hw-interfaces", luts=num_hw_threads * p.hw_interface_luts)
        estimate.add("processor-interface", luts=num_processors * p.processor_interface_luts)
        estimate.add("scheduler", luts=p.scheduler_luts, dsps=p.scheduler_dsp)
        estimate.add("bus-arbiters", luts=p.num_bus_arbiters * p.bus_arbiter_luts)
        return estimate

    def microblaze_area(self) -> AreaEstimate:
        estimate = AreaEstimate()
        estimate.add("microblaze", luts=self.primitives.microblaze_luts, brams=self.primitives.microblaze_bram)
        return estimate
