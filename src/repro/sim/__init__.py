"""Hybrid timing simulation: trace replay under pure-SW, pure-HW and Twill
configurations, plus the activity-based power model.

The simulator consumes the dynamic trace produced by the functional
interpreter and a *thread assignment* (which thread, in which domain, runs
each dynamic instruction).  It reproduces the cycle-level behaviour the
evaluation cares about: sequential MicroBlaze execution, ILP-limited FSM
execution in hardware, queue latency/occupancy, bus contention, memory
coherency delay, and the processor stream-interface overhead.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.sim.assignment": ("ThreadAssignment",),
    "repro.sim.timing": ("TimingSimulator",),
    "repro.sim.system": ("HybridSystem",),
    "repro.sim.power": ("PowerModel",),
    "repro.results": (
        "ThreadSpec",
        "ExecutionDomain",
        "TimingResult",
        "SystemResult",
        "PowerEstimate",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
