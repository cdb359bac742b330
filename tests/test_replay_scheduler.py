"""Byte-identity tests: readiness-driven replay engine vs the poll engine.

The readiness-driven scheduler and its re-time pass replaced the original
cooperative round-robin ``poll`` engine, which lives on as the
differential oracle in ``tests/replay_oracle.py``.  Both must produce the *same* :class:`~repro.sim.timing.TimingResult` —
not approximately, but field-for-field across every thread timeline —
on every assignment shape the system simulates (pure SW, pure HW, and
the DSWP-partitioned Twill configuration), across queue-depth extremes.
"""

import dataclasses

import pytest

from repro.config import RuntimeConfig
from repro.dswp import run_dswp
from repro.frontend import compile_c
from repro.interp import Profile, run_module
from repro.sim import ThreadAssignment, TimingSimulator
from repro.transforms import GlobalsToArguments, default_pipeline
from repro.workloads import get_workload
from tests.conftest import PIPELINE_PROGRAM
from tests.replay_oracle import poll_replay

WORKLOADS = ("blowfish", "mips")


def _compiled(source, name="program"):
    module = compile_c(source, name)
    default_pipeline().run(module)
    GlobalsToArguments().run(module)
    execution = run_module(module, record_trace=True)
    profile = Profile.from_trace(module, execution.trace)
    dswp = run_dswp(module, profile=profile)
    return module, execution, dswp


def _as_comparable(result):
    """A TimingResult as plain data — deep equality over every field."""
    return dataclasses.asdict(result)


def _assignments(module, dswp):
    return {
        "pure_sw": ThreadAssignment.pure_software(module),
        "pure_hw": ThreadAssignment.pure_hardware(module),
        "twill": ThreadAssignment.from_partitioning(module, dswp.partitioning),
    }


@pytest.fixture(scope="module")
def pipeline():
    return _compiled(PIPELINE_PROGRAM, "pipeline")


def test_engines_identical_on_pipeline(pipeline):
    module, execution, dswp = pipeline
    sim = TimingSimulator()
    for label, assignment in _assignments(module, dswp).items():
        ready = sim.simulate(execution.trace, assignment)
        poll = poll_replay(sim, execution.trace, assignment)
        assert _as_comparable(ready) == _as_comparable(poll), label
        assert ready.forced_events == 0, label
        assert ready.replay_outputs == poll.replay_outputs


@pytest.mark.parametrize("name", WORKLOADS)
def test_engines_identical_on_workloads(name):
    module, execution, dswp = _compiled(get_workload(name).source, name)
    sim = TimingSimulator()
    for label, assignment in _assignments(module, dswp).items():
        ready = sim.simulate(execution.trace, assignment)
        poll = poll_replay(sim, execution.trace, assignment)
        assert _as_comparable(ready) == _as_comparable(poll), f"{name}/{label}"
        assert ready.forced_events == 0, f"{name}/{label}"


def test_engines_identical_across_queue_depths(pipeline):
    """Back-pressure is where the schedulers' orderings could diverge."""
    module, execution, dswp = pipeline
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    for depth in (1, 2, 64):
        sim = TimingSimulator(RuntimeConfig(queue_depth=depth))
        ready = sim.simulate(execution.trace, assignment)
        poll = poll_replay(sim, execution.trace, assignment)
        assert _as_comparable(ready) == _as_comparable(poll), f"depth={depth}"

