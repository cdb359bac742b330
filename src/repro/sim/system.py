"""System-level simulation: run the three standard configurations.

:class:`HybridSystem` bundles the pieces needed to evaluate one compiled
module the way the thesis does — the same dynamic trace replayed as
pure-software (MicroBlaze only), pure-hardware (LegUp baseline) and the
Twill hybrid — plus the area and power roll-ups for each configuration.
"""

from __future__ import annotations

from typing import Optional

from repro import perf
from repro.config import CompilerConfig, HLSConfig, RuntimeConfig
from repro.dswp.pipeline import DSWPResult, run_dswp
from repro.hls.area import AreaModel
from repro.hls.legup import LegUpFlow, LegUpResult
from repro.hls.scheduling import HLSScheduler
from repro.interp.trace import Trace
from repro.ir.module import Module
from repro.results import AreaEstimate, ConfigurationResult, SystemResult, TimingResult
from repro.sim.assignment import ThreadAssignment
from repro.sim.power import PowerModel
from repro.sim.timing import TimingSimulator


def repartition(
    module: Module,
    profile,
    config: CompilerConfig,
    sw_fraction: float,
) -> DSWPResult:
    """Pure re-partition step: re-run DSWP for one (partition config, split).

    The result depends only on the module, the profile, ``config.partition``
    and ``sw_fraction`` — no timing or area state — so it is a cacheable
    *derived* artifact of a compile: the explore engine content-addresses it
    under the partition parameters and shares one :class:`DSWPResult` across
    every candidate that varies only runtime/queue/HLS dimensions.
    """
    with perf.stage("dswp"):
        return run_dswp(
            module,
            profile=profile,
            config=config.partition,
            extract_threads=False,
            sw_fraction=sw_fraction,
        )


def evaluate_with_partition(
    benchmark: str,
    module: Module,
    trace: Trace,
    dswp: DSWPResult,
    legup: LegUpResult,
    config: CompilerConfig,
) -> SystemResult:
    """Evaluate the three standard configurations under an existing partition.

    Read-only with respect to *dswp*: the thread assignment is rebuilt
    fresh from ``dswp.partitioning`` on every call, which is what lets the
    explore engine hand one memoized partition to many candidates.
    """
    with perf.stage("replay"):
        return HybridSystem(config).evaluate(benchmark, module, trace, dswp, legup)


class HybridSystem:
    """Evaluates one compiled module under the three standard configurations."""

    def __init__(self, config: Optional[CompilerConfig] = None):
        self.config = config or CompilerConfig()
        self.config.validate()
        self.area_model = AreaModel()
        self.power_model = PowerModel()

    # -- individual configurations --------------------------------------------------------

    def simulate_pure_software(self, module: Module, trace: Trace) -> TimingResult:
        simulator = TimingSimulator(self.config.runtime, self.config.hls)
        return simulator.simulate(trace, ThreadAssignment.pure_software(module))

    def simulate_pure_hardware(self, module: Module, trace: Trace) -> TimingResult:
        simulator = TimingSimulator(self.config.runtime, self.config.hls)
        return simulator.simulate(trace, ThreadAssignment.pure_hardware(module))

    def simulate_twill(
        self,
        module: Module,
        trace: Trace,
        dswp: DSWPResult,
        runtime: Optional[RuntimeConfig] = None,
    ) -> TimingResult:
        simulator = TimingSimulator(runtime or self.config.runtime, self.config.hls)
        assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        return simulator.simulate(trace, assignment)

    # -- full evaluation ---------------------------------------------------------------------

    def evaluate(
        self,
        benchmark: str,
        module: Module,
        trace: Trace,
        dswp: DSWPResult,
        legup: Optional[LegUpResult] = None,
    ) -> SystemResult:
        """Run all three configurations and collect area/power for each."""
        legup = legup or LegUpFlow(self.config.hls).run(module)

        sw_timing = self.simulate_pure_software(module, trace)
        hw_timing = self.simulate_pure_hardware(module, trace)
        twill_timing = self.simulate_twill(module, trace, dswp)

        # -- area -------------------------------------------------------------------------
        legup_area = legup.total_area
        hw_thread_area = self._twill_hw_thread_area(module, dswp)
        runtime_area = self.area_model.runtime_area(
            num_queues=dswp.partitioning.total_queues,
            num_semaphores=dswp.partitioning.total_semaphores,
            num_hw_threads=dswp.partitioning.hardware_thread_count,
            queue_depth=self.config.runtime.queue_depth,
            queue_width=self.config.runtime.queue_width_bits,
            num_processors=self.config.runtime.num_processors,
        )
        twill_area = hw_thread_area.merged_with(runtime_area)
        twill_with_mb = twill_area.merged_with(self.area_model.microblaze_area())

        # -- power ------------------------------------------------------------------------
        sw_power = self.power_model.pure_software(utilisation=1.0)
        hw_activity = min(1.0, hw_timing.hardware_busy_cycles / max(hw_timing.total_cycles, 1.0) + 0.5)
        hw_power = self.power_model.pure_hardware(
            legup_area.luts, legup_area.dsps, legup_area.brams, activity=hw_activity
        )
        cpu_util = min(1.0, twill_timing.software_busy_cycles / max(twill_timing.total_cycles, 1.0))
        fabric_util = min(
            1.0,
            twill_timing.hardware_busy_cycles
            / max(twill_timing.total_cycles * max(dswp.partitioning.hardware_thread_count, 1), 1.0)
            + 0.4,
        )
        twill_power = self.power_model.twill(
            hw_luts=hw_thread_area.luts,
            runtime_luts=runtime_area.luts,
            dsps=twill_area.dsps,
            brams=twill_area.brams,
            fabric_activity=fabric_util,
            processor_utilisation=cpu_util,
        )

        return SystemResult(
            benchmark=benchmark,
            pure_software=ConfigurationResult("pure_sw", sw_timing, self.area_model.microblaze_area(), sw_power),
            pure_hardware=ConfigurationResult("pure_hw", hw_timing, legup_area, hw_power),
            twill=ConfigurationResult("twill", twill_timing, twill_with_mb, twill_power),
            hw_thread_area=hw_thread_area,
            runtime_area=runtime_area,
        )

    # -- helpers ---------------------------------------------------------------------------------

    def _twill_hw_thread_area(self, module: Module, dswp: DSWPResult) -> AreaEstimate:
        """LUTs of only the hardware partitions (the "Twill HWThreads" column)."""
        scheduler = HLSScheduler(self.config.hls)
        total = AreaEstimate()
        for fn_name, fp in dswp.partitioning.functions.items():
            fn = fp.function
            for partition in fp.partitions:
                if not partition.is_hardware() or not partition.instructions:
                    continue
                schedule = scheduler.schedule_function(fn, only=partition.instructions)
                area = self.area_model.datapath_area(schedule)
                total = total.merged_with(area)
        return total
