"""Differential testing: interpreter vs. timing-simulator output agreement.

The timing simulator replays the interpreter's dynamic trace, so the two
engines share a functional execution — the replay re-orders work across
threads, applies queue back-pressure, and may force-process events on a
cyclic wait, but it does not compute the *observable output stream*.
``TimingResult.replay_outputs`` is the trace's own print values in program
order (``_TraceIndex.prints`` in :mod:`repro.sim.timing`), not an order the
replay derived from completion times.  The replay-vs-interpreter check
below therefore compares the trace with the run that recorded it, and
cannot catch a timing or DSWP bug until an execution of the extracted DSWP
threads replaces it (see ROADMAP.md).

For every workload, :func:`difftest_workload` checks under the three
standard hardware configurations (software-only MicroBlaze, hardware-heavy
LegUp, and the Twill hybrid):

* the replayed output stream equals the interpreter's outputs;
* the interpreter's outputs equal the workload reference (for ingested
  workloads this compares the optimised pipeline against the unoptimised
  interpretation captured at ingest time);
* replay completeness: every trace event was timed, exactly once, and the
  defensive force-execution fallback never fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: (human label, SystemResult attribute) for the three standard configs.
CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("software_only", "pure_software"),
    ("hybrid", "twill"),
    ("hardware_heavy", "pure_hardware"),
)


@dataclass
class DiffTestOutcome:
    """Result of differentially testing one workload."""

    workload: str
    origin: str
    ok: bool
    events: int
    outputs: int
    #: Per-config pass/fail, keyed by the CONFIGS labels.
    configs: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "origin": self.origin,
            "ok": self.ok,
            "events": self.events,
            "outputs": self.outputs,
            "configs": dict(self.configs),
            "failures": list(self.failures),
        }


def difftest_workload(harness, name: str) -> DiffTestOutcome:
    """Differentially test one workload through *harness*: the outputs and
    replays of its (cached) compile summary against the trace of its full
    compile result (:meth:`~repro.eval.harness.EvaluationHarness.compile_result`)."""
    run = harness.run(name)
    interp_outputs = [int(v) for v in run.result.outputs]
    expected = run.workload.expected_outputs()
    trace = harness.compile_result(name).execution.trace
    trace_events = len(trace) if trace is not None else 0

    failures: List[str] = []
    if interp_outputs != expected:
        failures.append(
            f"interpreter outputs diverge from the reference "
            f"({len(interp_outputs)} vs {len(expected)} values)"
        )

    configs: Dict[str, bool] = {}
    for label, attr in CONFIGS:
        timing = getattr(run.result.system, attr).timing
        config_failures: List[str] = []
        replayed = [int(v) for v in timing.replay_outputs]
        if replayed != interp_outputs:
            config_failures.append(
                f"{label}: replayed output stream diverges from the interpreter "
                f"(replay {replayed[:4]}…, interp {interp_outputs[:4]}…)"
            )
        if timing.events != trace_events:
            config_failures.append(
                f"{label}: replay timed {timing.events} events, trace has {trace_events}"
            )
        executed = sum(t.events_executed for t in timing.threads.values())
        if executed != timing.events:
            config_failures.append(
                f"{label}: thread timelines executed {executed} events, expected {timing.events}"
            )
        if timing.forced_events != 0:
            config_failures.append(
                f"{label}: {timing.forced_events} event(s) needed force-execution"
            )
        configs[label] = not config_failures
        failures.extend(config_failures)

    return DiffTestOutcome(
        workload=name,
        origin=run.workload.origin,
        ok=not failures,
        events=trace_events,
        outputs=len(interp_outputs),
        configs=configs,
        failures=failures,
    )


def difftest_all(harness, names: Optional[Sequence[str]] = None) -> List[DiffTestOutcome]:
    """Differentially test several workloads (default: the harness's set)."""
    return [difftest_workload(harness, name) for name in (names or harness.benchmark_names)]
