"""Record once, re-time many: memoised replays against the poll oracle.

A multi-thread replay records the scheduler's visit order per (trace,
assignment content, queue depth) and re-times every later replay of that
group from the recording; a replay whose config key was seen before is
served from the result memo without re-timing.  These tests hold every
replay — first, re-timed or served — equal field for field to the poll
engine in ``tests/replay_oracle.py``, and type for type to a replay with
the memos dropped, over a grid of runtime and HLS configurations in both
call orders.  They also pin the memo keys: a schedule recorded at one
queue depth never serves another, an assignment of different content
never reuses a setup, and a config that differs in any field the replay
reads never reuses a result.  Every replay also passes the timing-model
invariants: no forced events, and every event timed exactly once.
"""

import dataclasses
import os

import pytest

from repro.config import HLSConfig, RuntimeConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.costmodel.software import SoftwareCostModel
from repro.ir.instructions import Opcode
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


def _scribble(result):
    """Overwrite everything mutable in *result*: no later replay may see it."""
    for timeline in result.threads.values():
        for field in dataclasses.fields(timeline):
            if field.name != "spec":
                setattr(timeline, field.name, -1)
    result.threads.clear()


def _replay_twice(trace, assignment, grid, expected):
    """Replay each config of *grid* twice, each time from a new simulator.

    The second replay of a config is a memo hit; both must equal the oracle
    and, type for type, the cold replay in *expected*, although the first
    result is scribbled over before the second is made.
    """
    for config in grid:
        oracle, cold = expected[config]
        for _ in range(2):
            result = _simulator(config).simulate(trace, assignment)
            _check_invariants(result)
            assert _fields(result) == oracle, config
            assert _typed(result) == cold, config
            _scribble(result)


def _expected(trace, assignment):
    """{grid point: (oracle fields, cold typed fields)} for *assignment*."""
    expected = {}
    for config in GRID:
        sim = _simulator(config)
        _forget_memos(trace)
        cold = sim.simulate(trace, assignment)
        _check_invariants(cold)
        expected[config] = (_fields(poll_replay(sim, trace, assignment)), _typed(cold))
    return expected


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
    return trace, assignment, _expected(trace, assignment)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_memoised_replays_match_oracle(case, order):
    trace, assignment, expected = case
    _forget_memos(trace)
    _replay_twice(trace, assignment, GRID if order == "forward" else GRID[::-1], expected)
    setup = _trace_index(trace).setup(assignment)
    if len(setup.populated) > 1:
        assert sorted(setup.schedules) == sorted(DEPTHS)
        assert len(setup.results) == len(GRID)


def test_single_thread_memo_matches_oracle():
    """Both baselines interleaved on one trace: each is served only its own."""
    module, execution, _ = _compiled(PIPELINE_PROGRAM, "pipeline")
    trace = execution.trace
    baselines = [
        (assignment, _expected(trace, assignment))
        for assignment in (
            ThreadAssignment.pure_software(module),
            ThreadAssignment.pure_hardware(module),
        )
    ]
    for grid in (GRID, GRID[::-1]):
        _forget_memos(trace)
        for config in grid:
            for assignment, expected in baselines:
                _replay_twice(trace, assignment, [config], expected)
        assert len(_trace_index(trace).results) == 2 * len(GRID)


@pytest.mark.parametrize(
    "kind, replay",
    [
        ("twill", "_retime"),
        ("pure_software", "_replay_single_software"),
        ("pure_hardware", "_replay_single_hardware"),
    ],
)
def test_each_distinct_config_replays_once(kind, replay, monkeypatch):
    """Equal content served from the memo: a rebuilt assignment, new simulators."""
    module, execution, dswp = _compiled(PIPELINE_PROGRAM, "pipeline")
    trace = execution.trace
    calls = []
    real = getattr(TimingSimulator, replay)

    def spy(self, *args):
        calls.append(repr((self.runtime, self.hls)))
        return real(self, *args)

    monkeypatch.setattr(TimingSimulator, replay, spy)
    _forget_memos(trace)
    for config in GRID + GRID[::-1] + GRID:
        if kind == "twill":
            assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        else:
            assignment = getattr(ThreadAssignment, kind)(module)
        _simulator(config).simulate(trace, assignment)
    assert len(calls) == len(set(calls)) == len(GRID)


#: A grid point at which, between them, the pipeline and blowfish Twill
#: replays change with every field of the memo key.
KEY_BASE = (8, 7, 3, 5, 2, False)


def _key_variants(sim):
    """{key field: a simulator with only that field of *sim*'s config changed}."""
    runtime, hls = sim.runtime, sim.hls
    variants = {
        field: TimingSimulator(dataclasses.replace(runtime, **{field: value}), hls)
        for field, value in (
            ("queue_depth", runtime.queue_depth + 1),
            ("queue_latency", runtime.queue_latency + 3),
            # The bus latency cancels out of the bus-slot arithmetic: only
            # its type can reach a result (an int slot floor or a float one).
            ("bus_latency", float(runtime.bus_latency)),
            ("coherency_delay", runtime.coherency_delay + 3),
            ("memory_read_cycles", runtime.memory_read_cycles + 3),
            ("processor_op_cycles", runtime.processor_op_cycles + 3),
            ("memory_write_cycles", runtime.memory_write_cycles + 3),
        )
    }
    variants["issue_width"] = TimingSimulator(runtime, dataclasses.replace(hls, issue_width=2))
    variants["loop_pipelining"] = TimingSimulator(
        runtime, dataclasses.replace(hls, loop_pipelining=not hls.loop_pipelining)
    )
    variants["software"] = TimingSimulator(
        runtime, hls, software=SoftwareCostModel(cycles={Opcode.ADD: 9})
    )
    variants["hardware"] = TimingSimulator(
        runtime, hls, hardware=HardwareCostModel(latency={Opcode.ADD: 3})
    )
    return variants


def _fields_that_matter(trace, assignment):
    """The key fields whose change alters *assignment*'s replay at KEY_BASE.

    For every field, a replay under the changed config made after a warm
    memo (the base config replayed) must equal one on a forgotten index,
    and the base config must still be served its own result.
    """
    base = _simulator(KEY_BASE)
    _forget_memos(trace)
    cold = _typed(base.simulate(trace, assignment))
    changed = set()
    for field, sim in _key_variants(base).items():
        _forget_memos(trace)
        fresh = _typed(sim.simulate(trace, assignment))
        _forget_memos(trace)
        base.simulate(trace, assignment)
        assert _typed(sim.simulate(trace, assignment)) == fresh, field
        assert _typed(base.simulate(trace, assignment)) == cold, field
        if fresh != cold:
            changed.add(field)
    return changed


def test_result_memo_key_covers_every_field_the_replay_reads():
    changed = set()
    for name in ("pipeline", "blowfish"):
        module, execution, dswp = _compiled(dict(PROGRAMS)[name], name)
        assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        changed |= _fields_that_matter(execution.trace, assignment)
    # Every field moves one of the two replays, so a field left out of the
    # key would have served a stale result above.
    assert changed == set(_key_variants(_simulator(KEY_BASE)))


@pytest.mark.parametrize(
    "kind, reads",
    [
        ("pure_software", {"software"}),
        (
            "pure_hardware",
            {"memory_read_cycles", "memory_write_cycles", "issue_width", "loop_pipelining",
             "hardware"},
        ),
    ],
)
def test_single_thread_memo_key_covers_what_the_replay_reads(kind, reads):
    module, execution, _ = _compiled(PIPELINE_PROGRAM, "pipeline")
    assignment = getattr(ThreadAssignment, kind)(module)
    assert _fields_that_matter(execution.trace, assignment) == reads


def test_schedule_never_serves_another_depth(monkeypatch):
    module, execution, dswp = _compiled(PIPELINE_PROGRAM, "pipeline")
    trace = execution.trace
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    served = []
    recorded = []
    real_retime = TimingSimulator._retime
    real_schedule = TimingSimulator._schedule

    def retime_spy(self, index, setup, schedule, timelines, costs):
        served.append((self.runtime.queue_depth, schedule, setup.schedules))
        return real_retime(self, index, setup, schedule, timelines, costs)

    def schedule_spy(self, index, setup):
        recorded.append(self.runtime.queue_depth)
        return real_schedule(self, index, setup)

    monkeypatch.setattr(TimingSimulator, "_retime", retime_spy)
    monkeypatch.setattr(TimingSimulator, "_schedule", schedule_spy)
    # A repeated depth comes back at another latency: an equal config would
    # be served by the result memo without re-timing at all.
    points = ((1, 5), (8, 5), (1, 6), (8, 6), (2, 5))
    depths = tuple(depth for depth, _ in points)
    for depth, latency in points:
        sim = TimingSimulator(RuntimeConfig(queue_depth=depth, queue_latency=latency))
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
