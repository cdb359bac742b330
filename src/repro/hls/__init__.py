"""LegUp-analogue high-level synthesis: FSM scheduling, binding and area.

Twill uses LegUp's pure-hardware flow to turn the hardware partitions into
Verilog state machines (thesis §3.1.2, §5.4).  This package reproduces the
parts of that flow the evaluation depends on:

* list scheduling of each basic block into FSM states, with operator
  chaining and a configurable issue width (the ILP LegUp exploits);
* functional-unit binding with resource sharing, which drives the LUT/DSP
  area accounting (Table 6.2);
* the pure-hardware "LegUp baseline" flow used as the comparison point in
  every figure of Chapter 6.
"""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.hls.scheduling": ("FSMSchedule", "ScheduledState", "HLSScheduler"),
    "repro.hls.binding": ("BindingResult", "bind_function"),
    "repro.hls.area": ("AreaModel",),
    "repro.hls.legup": ("LegUpFlow", "LegUpResult"),
    "repro.results": ("AreaEstimate",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
