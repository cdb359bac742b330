"""Record once, re-time many: memoised replays against the poll oracle.

A multi-thread replay records the scheduler's visit order per (trace,
assignment content, queue depth) and re-times every later replay of that
group from the recording.  These tests hold every replay — first or
re-timed — equal field for field to the poll engine in
``tests/replay_oracle.py``, and type for type to a replay with the memos
dropped, over a grid of runtime and HLS configurations in both call
orders.  They also pin the memo keys: a schedule recorded at one
queue depth never serves another, and an assignment of different content
never reuses a setup.  Every replay also passes the timing-model
invariants: no forced events, and every event timed exactly once.
"""

import dataclasses
import os

import pytest

from repro.config import HLSConfig, RuntimeConfig
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.assignment import ExecutionDomain, ThreadSpec
from repro.sim.timing import _trace_index
from repro.workloads import get_workload
from tests.conftest import PIPELINE_PROGRAM
from tests.replay_oracle import poll_replay
from tests.test_replay_scheduler import _compiled

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

#: (queue_latency, bus_latency, processor_op_cycles, memory_read_cycles,
#: loop_pipelining): a two-level fractional factorial design in eight runs,
#: so every factor takes each level four times and every pair of factors
#: meets in every combination of levels.
POINTS = [
    (2, 1, 5, 2, False),
    (7, 1, 5, 6, True),
    (2, 3, 5, 6, True),
    (7, 3, 5, 2, False),
    (2, 1, 1, 6, False),
    (7, 1, 1, 2, True),
    (2, 3, 1, 2, True),
    (7, 3, 1, 6, False),
]
DEPTHS = (1, 2, 8)
GRID = [(depth,) + point for depth in DEPTHS for point in POINTS]


def _simulator(config) -> TimingSimulator:
    depth, latency, bus, op_cycles, read_cycles, pipelining = config
    runtime = RuntimeConfig(
        queue_depth=depth,
        queue_latency=latency,
        bus_latency=bus,
        processor_op_cycles=op_cycles,
        memory_read_cycles=read_cycles,
    )
    return TimingSimulator(runtime, HLSConfig(loop_pipelining=pipelining))


def _fields(result):
    return dataclasses.asdict(result)


def _typed(result):
    """Every field with its type: ``repr`` tells ``1`` from ``1.0``."""
    return repr(dataclasses.asdict(result))


def _check_invariants(result):
    assert result.forced_events == 0
    assert sum(t.events_executed for t in result.threads.values()) == result.events


def _forget_memos(trace):
    trace._replay_index = None


def _programs():
    programs = [("pipeline", PIPELINE_PROGRAM)]
    programs += [(name, get_workload(name).source) for name in ("blowfish", "mips")]
    for file_name in sorted(os.listdir(CORPUS)):
        if file_name.endswith(".c"):
            with open(os.path.join(CORPUS, file_name), encoding="utf-8") as fh:
                programs.append((file_name[:-2], fh.read()))
    return programs


PROGRAMS = _programs()


@pytest.fixture(scope="module", params=[name for name, _ in PROGRAMS])
def case(request):
    """(trace, Twill assignment, {grid point: (oracle fields, cold typed fields)})."""
    name = request.param
    module, execution, dswp = _compiled(dict(PROGRAMS)[name], name)
    trace = execution.trace
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    expected = {}
    for config in GRID:
        sim = _simulator(config)
        _forget_memos(trace)
        cold = sim.simulate(trace, assignment)
        _check_invariants(cold)
        expected[config] = (_fields(poll_replay(sim, trace, assignment)), _typed(cold))
    return trace, assignment, expected


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_memoised_replays_match_oracle(case, order):
    trace, assignment, expected = case
    _forget_memos(trace)
    grid = GRID if order == "forward" else GRID[::-1]
    for config in grid:
        result = _simulator(config).simulate(trace, assignment)
        _check_invariants(result)
        oracle, cold = expected[config]
        assert _fields(result) == oracle, config
        assert _typed(result) == cold, config
    setup = _trace_index(trace).setup(assignment)
    if len(setup.populated) > 1:
        assert sorted(setup.schedules) == sorted(DEPTHS)


def test_schedule_never_serves_another_depth(monkeypatch):
    module, execution, dswp = _compiled(PIPELINE_PROGRAM, "pipeline")
    trace = execution.trace
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    served = []
    recorded = []
    real_retime = TimingSimulator._retime
    real_schedule = TimingSimulator._schedule

    def retime_spy(self, index, setup, schedule, timelines):
        served.append((self.runtime.queue_depth, schedule, setup.schedules))
        return real_retime(self, index, setup, schedule, timelines)

    def schedule_spy(self, index, setup):
        recorded.append(self.runtime.queue_depth)
        return real_schedule(self, index, setup)

    monkeypatch.setattr(TimingSimulator, "_retime", retime_spy)
    monkeypatch.setattr(TimingSimulator, "_schedule", schedule_spy)
    depths = (1, 8, 1, 8, 2)
    for depth in depths:
        sim = TimingSimulator(RuntimeConfig(queue_depth=depth, queue_latency=5))
        result = sim.simulate(trace, assignment)
        assert _fields(result) == _fields(poll_replay(sim, trace, assignment))
    assert recorded == [1, 8, 2]
    assert [depth for depth, _, _ in served] == list(depths)
    for depth, schedule, schedules in served:
        assert schedules[depth] is schedule
    assert served[0][1] is served[2][1] and served[1][1] is served[3][1]
    assert len({id(schedule) for _, schedule, _ in served}) == 3


def test_assignment_memo_is_keyed_by_content():
    module, execution, dswp = _compiled(PIPELINE_PROGRAM, "pipeline")
    trace = execution.trace
    index = _trace_index(trace)
    twill = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    setup = index.setup(twill)
    # Rebuilt from scratch, the same content hits the memo ...
    assert index.setup(ThreadAssignment.from_partitioning(module, dswp.partitioning)) is setup

    # ... and so does one that differs only on an instruction the trace
    # never runs ...
    other_module, _, _ = _compiled(PIPELINE_PROGRAM, "pipeline")
    unrun = next(inst for fn in other_module.defined_functions() for inst in fn.instructions())
    padded = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    padded.assign_instruction(unrun, 1)
    assert index.setup(padded) is setup

    # ... while moving an executed instruction to another thread misses it.
    moved = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    executed = trace.events[0].inst
    moved.assign_instruction(executed, 1 if moved._map[executed] == 0 else 0)
    assert index.setup(moved) is not setup
    relabelled = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    relabelled.threads[0] = ThreadSpec(0, ExecutionDomain.HARDWARE, "fabric")
    assert index.setup(relabelled) is not setup

    sim = TimingSimulator()
    for assignment in (twill, padded, moved, relabelled, twill):
        result = sim.simulate(trace, assignment)
        _check_invariants(result)
        assert _fields(result) == _fields(poll_replay(sim, trace, assignment))


@pytest.mark.parametrize("name", ["pipeline", "blowfish"])
def test_one_populated_thread_matches_closed_form(name):
    """All events on the CPU of a two-thread assignment: Σ count × cost."""
    module, execution, _ = _compiled(dict(PROGRAMS)[name], name)
    trace = execution.trace
    assignment = ThreadAssignment(
        [
            ThreadSpec(0, ExecutionDomain.SOFTWARE, "microblaze"),
            ThreadSpec(1, ExecutionDomain.HARDWARE, "idle"),
        ]
    )
    for fn in module.defined_functions():
        for inst in fn.instructions():
            assignment.assign_instruction(inst, 0)
    sim = TimingSimulator()
    result = sim.simulate(trace, assignment)
    _check_invariants(result)
    closed_form = sum(
        sim.software.opcode_cost(event.opcode) for event in trace.events
    )
    assert result.total_cycles == closed_form
    assert result.threads[1].events_executed == 0
    assert result.queue_count == result.queue_transfers == result.bus_transfers == 0
    assert _fields(result) == _fields(poll_replay(sim, trace, assignment))


def test_cyclic_wait_forces_progress_and_is_recorded():
    """A queue-full / operand cycle: the fallback matches the oracle.

    Thread 0 produces two values of one instruction for thread 1 through a
    depth-1 queue; thread 1's first event waits on thread 0's third event.
    Thread 0 cannot enqueue its second value until thread 1 dequeues, and
    thread 1 cannot start until thread 0 gets past it: only forcing the
    oldest blocked event makes progress.  The forced schedule is as
    deterministic as any other, so the second replay re-times it.
    """
    from repro.interp.trace import Trace, TraceEvent
    from repro.ir.instructions import BinaryOp

    module, execution, _ = _compiled(PIPELINE_PROGRAM, "pipeline")
    ops = [inst for fn in module.defined_functions() for inst in fn.instructions()
           if isinstance(inst, BinaryOp)][:5]
    x, y, p, q, r = ops
    trace = Trace()
    for seq, (inst, deps) in enumerate(
        [(x, ()), (x, ()), (y, ()), (p, (2,)), (q, (0,)), (r, (1,))]
    ):
        trace.append(TraceEvent(seq=seq, inst=inst, function="main", deps=deps))
    assignment = ThreadAssignment(
        [
            ThreadSpec(0, ExecutionDomain.SOFTWARE, "microblaze"),
            ThreadSpec(1, ExecutionDomain.HARDWARE, "fabric"),
        ]
    )
    for inst in (x, y):
        assignment.assign_instruction(inst, 0)
    for inst in (p, q, r):
        assignment.assign_instruction(inst, 1)

    sim = TimingSimulator(RuntimeConfig(queue_depth=1))
    oracle = poll_replay(sim, trace, assignment)
    assert oracle.forced_events == 1
    for _ in range(2):
        result = sim.simulate(trace, assignment)
        assert _fields(result) == _fields(oracle)
        assert sum(t.events_executed for t in result.threads.values()) == result.events
    assert _trace_index(trace).setup(assignment).schedules[1].forced_events == 1
