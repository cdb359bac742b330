"""The value types of an evaluation: what a compile produces and a cache hit reads.

A warm ``repro report`` decodes cached compile artifacts down to these
classes and nothing else, so they live in one leaf module that imports only
the standard library.  The stages that compute them bind them from here:

* :class:`ExecutionDomain`, :class:`ThreadSpec` — :mod:`repro.sim.assignment`;
* :class:`ThreadTimeline`, :class:`TimingResult` — :mod:`repro.sim.timing`;
* :class:`PowerEstimate` — :mod:`repro.sim.power`;
* :class:`AreaEstimate` — :mod:`repro.hls.area`;
* :class:`ConfigurationResult`, :class:`SystemResult` — :mod:`repro.sim.system`;
* :class:`CompilationResult` — :mod:`repro.core.compiler`.

Each of those modules imports its classes back from here, so
``repro.sim.timing.TimingResult is repro.results.TimingResult``.  Importing
this module loads no compiler stage; see "Start-up" in
docs/PERFORMANCE.md for the layering rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.dswp.pipeline import DSWPResult
    from repro.hls.legup import LegUpResult
    from repro.interp.interpreter import ExecutionResult
    from repro.interp.profile import Profile
    from repro.ir.module import Module


class ExecutionDomain(str, Enum):
    """Where a thread executes."""

    SOFTWARE = "sw"
    HARDWARE = "hw"


@dataclass(frozen=True)
class ThreadSpec:
    """One execution thread of the simulated system."""

    thread_id: int
    domain: ExecutionDomain
    label: str

    def is_software(self) -> bool:
        return self.domain is ExecutionDomain.SOFTWARE

    def is_hardware(self) -> bool:
        return self.domain is ExecutionDomain.HARDWARE


@dataclass
class ThreadTimeline:
    """Accounting for one simulated thread."""

    spec: ThreadSpec
    next_free: float = 0.0
    busy_cycles: float = 0.0
    events_executed: int = 0
    finish_time: float = 0.0
    # FSM modelling for hardware threads: the basic block currently being
    # executed and the latest completion time inside it.  A hardware thread
    # does not start the next basic block's states until the current block
    # has drained (unless loop pipelining is enabled in HLSConfig).
    current_block: int = -1
    block_max_done: float = 0.0


@dataclass
class TimingResult:
    """Outcome of one timing replay."""

    total_cycles: float
    threads: Dict[int, ThreadTimeline]
    queue_count: int
    queue_transfers: int
    producer_stall_cycles: float
    consumer_stall_cycles: float
    bus_transfers: int
    forced_events: int
    events: int
    # Values the replayed program printed, in program order: the trace's own
    # print events (``_TraceIndex.prints``), not an order the replay
    # computed.  The differential tests compare them with the interpreter's
    # outputs, which therefore cannot catch a timing or DSWP bug.
    replay_outputs: Tuple[int, ...] = ()

    @property
    def hardware_busy_cycles(self) -> float:
        return sum(t.busy_cycles for t in self.threads.values() if t.spec.is_hardware())

    @property
    def software_busy_cycles(self) -> float:
        return sum(t.busy_cycles for t in self.threads.values() if t.spec.is_software())


@dataclass
class PowerEstimate:
    """Milliwatt estimate for one configuration."""

    microblaze_mw: float = 0.0
    fabric_static_mw: float = 0.0
    fabric_dynamic_mw: float = 0.0

    @property
    def total_mw(self) -> float:
        return self.microblaze_mw + self.fabric_static_mw + self.fabric_dynamic_mw

    def normalised_to(self, baseline: "PowerEstimate") -> float:
        if baseline.total_mw <= 0:
            return 0.0
        return self.total_mw / baseline.total_mw


@dataclass
class AreaEstimate:
    """Area of one circuit (a thread, a function, or a whole design)."""

    luts: int = 0
    dsps: int = 0
    brams: int = 0
    detail: Dict[str, int] = field(default_factory=dict)

    def add(self, label: str, luts: int = 0, dsps: int = 0, brams: int = 0) -> None:
        self.luts += luts
        self.dsps += dsps
        self.brams += brams
        if luts:
            self.detail[label] = self.detail.get(label, 0) + luts

    def merged_with(self, other: "AreaEstimate") -> "AreaEstimate":
        merged = AreaEstimate(self.luts + other.luts, self.dsps + other.dsps, self.brams + other.brams)
        merged.detail = dict(self.detail)
        for key, value in other.detail.items():
            merged.detail[key] = merged.detail.get(key, 0) + value
        return merged


@dataclass
class ConfigurationResult:
    """Timing + area + power of one configuration (pure SW / pure HW / Twill)."""

    name: str
    timing: TimingResult
    area: AreaEstimate
    power: PowerEstimate

    @property
    def cycles(self) -> float:
        return self.timing.total_cycles


@dataclass
class SystemResult:
    """Results of all three configurations for one benchmark."""

    benchmark: str
    pure_software: ConfigurationResult
    pure_hardware: ConfigurationResult
    twill: ConfigurationResult
    hw_thread_area: AreaEstimate = field(default_factory=AreaEstimate)
    runtime_area: AreaEstimate = field(default_factory=AreaEstimate)

    # -- the headline metrics of Chapter 6 ------------------------------------------------

    @property
    def speedup_vs_software(self) -> float:
        return self.pure_software.cycles / max(self.twill.cycles, 1e-9)

    @property
    def speedup_vs_hardware(self) -> float:
        return self.pure_hardware.cycles / max(self.twill.cycles, 1e-9)

    @property
    def hw_speedup_vs_software(self) -> float:
        return self.pure_software.cycles / max(self.pure_hardware.cycles, 1e-9)

    @property
    def area_ratio_hw_threads(self) -> float:
        """LegUp pure-HW LUTs / Twill HW-thread LUTs (the 1.73x reduction metric)."""
        return self.pure_hardware.area.luts / max(self.hw_thread_area.luts, 1)

    @property
    def area_ratio_total(self) -> float:
        """Twill (incl. runtime) LUTs / LegUp pure-HW LUTs (the 1.35x increase metric)."""
        return self.twill.area.luts / max(self.pure_hardware.area.luts, 1)

    def power_normalised(self) -> Dict[str, float]:
        baseline = self.pure_software.power
        return {
            "pure_sw": 1.0,
            "pure_hw": self.pure_hardware.power.normalised_to(baseline),
            "twill": self.twill.power.normalised_to(baseline),
        }


#: The fields a lazy :class:`CompilationResult` builds on their first read.
_HEAVY_FIELDS = frozenset(("module", "execution", "profile", "dswp", "legup"))


@dataclass
class CompilationResult:
    """Everything produced by one compile-and-simulate run.

    A result decoded from the artifact cache is *lazy* (:meth:`lazy`): it
    holds ``name``, ``system``, the functional outputs and the DSWP summary,
    and builds the five heavy fields on the first read of any of them.
    ``==``, pickling and :func:`dataclasses.replace` read every field, so
    they materialise it first; a report reads none of them.
    """

    name: str
    module: Module
    execution: ExecutionResult
    profile: Profile
    dswp: DSWPResult
    legup: LegUpResult
    system: SystemResult

    @classmethod
    def lazy(
        cls,
        name: str,
        system: SystemResult,
        outputs: List[int],
        dswp_summary: Dict[str, float],
        load: Callable[[], Dict[str, Any]],
    ) -> "CompilationResult":
        """A result whose heavy fields are ``load()``'s, built on first read.

        *load* returns the five heavy fields by name and runs at most once
        successfully; ``execution.outputs`` must be *outputs*.
        """
        result = cls.__new__(cls)
        result.name = name
        result.system = system
        result._outputs = outputs
        result._dswp_summary = dswp_summary
        result._load = load
        return result

    def __getattr__(self, attr: str) -> Any:
        # Only reached for attributes the instance lacks: the heavy fields
        # of a lazy result before their first read.
        if "_load" not in self.__dict__ or attr not in _HEAVY_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        self._materialise()
        return self.__dict__[attr]

    def _materialise(self) -> None:
        load = self.__dict__.get("_load")
        if load is not None:
            self.__dict__.update(load())
            del self._load, self._outputs, self._dswp_summary

    def __getstate__(self) -> Dict[str, Any]:
        self._materialise()  # the loader is not picklable
        return self.__dict__

    # -- convenience accessors --------------------------------------------------------

    @property
    def outputs(self) -> List[int]:
        if "_load" in self.__dict__:
            return self._outputs
        return self.execution.outputs

    @property
    def return_value(self) -> Optional[int]:
        return self.execution.return_value

    @property
    def speedup_vs_software(self) -> float:
        return self.system.speedup_vs_software

    @property
    def speedup_vs_hardware(self) -> float:
        return self.system.speedup_vs_hardware

    def dswp_summary(self) -> Dict[str, float]:
        if "_load" in self.__dict__:
            return dict(self._dswp_summary)
        return self.dswp.summary()

    def summary_dict(self) -> Dict[str, object]:
        """Machine-readable counterpart of :meth:`report` (``repro run --json``)."""
        s = self.system
        dswp = self.dswp_summary()
        return {
            "benchmark": self.name,
            "queues": dswp["queues"],
            "semaphores": dswp["semaphores"],
            "hw_threads": dswp["hw_threads"],
            "pure_sw_cycles": s.pure_software.cycles,
            "pure_hw_cycles": s.pure_hardware.cycles,
            "twill_cycles": s.twill.cycles,
            "speedup_vs_sw": s.speedup_vs_software,
            "speedup_vs_hw": s.speedup_vs_hardware,
            "legup_luts": s.pure_hardware.area.luts,
            "twill_luts": s.twill.area.luts,
        }

    def report(self) -> str:
        """Human-readable one-benchmark report."""
        s = self.system
        lines = [
            f"benchmark             : {self.name}",
            f"functional outputs    : {len(self.outputs)} values, checksum 0x{self.execution.output_checksum:08x}",
            f"dynamic instructions  : {len(self.execution.trace) if self.execution.trace else 0}",
            f"queues / semaphores   : {self.dswp.partitioning.total_queues} / {self.dswp.partitioning.total_semaphores}",
            f"hardware threads      : {self.dswp.partitioning.hardware_thread_count}",
            f"pure SW cycles        : {s.pure_software.cycles:,.0f}",
            f"pure HW cycles        : {s.pure_hardware.cycles:,.0f}",
            f"Twill cycles          : {s.twill.cycles:,.0f}",
            f"speedup vs pure SW    : {s.speedup_vs_software:.2f}x",
            f"speedup vs pure HW    : {s.speedup_vs_hardware:.2f}x",
            f"LegUp LUTs            : {s.pure_hardware.area.luts:,}",
            f"Twill HWThread LUTs   : {s.hw_thread_area.luts:,}",
            f"Twill LUTs (+runtime) : {s.twill.area.luts - self.system.twill.area.detail.get('microblaze', 0):,}",
            f"power (norm. to SW)   : HW {s.power_normalised()['pure_hw']:.2f}, Twill {s.power_normalised()['twill']:.2f}",
        ]
        return "\n".join(lines)
