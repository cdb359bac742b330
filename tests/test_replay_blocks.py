"""Block-granular pure-hardware replay against the poll oracle.

A pure-hardware replay runs every event on one FSM thread, which opens a
block occurrence only once the previous one has drained.  It times each
distinct block signature once (see ``_TraceIndex.block_signatures``) when
every time is exact in binary floating point, and runs the per-event loop
otherwise.  These tests hold:

* the signature: over the builtin workloads, the corpus and a fixed-seed
  ``tools/fuzz_csubset.py`` batch (optimised and not), every signature maps
  to exactly one in-occurrence structure — the static instructions, and
  their operands inside the occurrence as offsets;
* the block path: the default configuration and other dyadic ones (power
  of two issue widths, half- and quarter-cycle latencies) never enter the
  per-event loop, and equal the oracle;
* the fallback: an issue width of 3, a latency of 0.3 cycles, a latency so
  large that a time could round, and loop pipelining all take the per-event
  loop, and equal the oracle over the runtime grid, pure-hardware and
  Twill replays alike; so does a hand-built trace, whose occurrences need
  not follow the static code.
"""

import dataclasses
import os
import sys

import pytest

from repro.config import CompilerConfig, HLSConfig, RuntimeConfig
from repro.core.compiler import TwillCompiler
from repro.costmodel.hardware import HardwareCostModel
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir.instructions import Opcode
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.timing import _trace_index
from repro.workloads import all_workloads
from tests.replay_oracle import poll_replay
from tests.test_replay_retime import CORPUS, POINTS, PROGRAMS
from tests.test_replay_scheduler import _compiled

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from fuzz_csubset import MAX_STEPS, generate_program  # noqa: E402

FUZZ_SEEDS = range(12)
#: One loop-body block whose load reads the store just before it on even
#: iterations and an older store on odd ones: occurrences with the same
#: instructions but different memory deps inside them.
ALIASING_PROGRAM = """
int a[4];
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 16; i++) {
    a[i & 3] = i * 5;
    s = s * 3 + a[(i * 3) & 3];
  }
  print_int(s);
  return 0;
}
"""
ORACLE_PROGRAMS = ("pipeline", "blowfish", "aliasing")

#: Configurations whose every time is a multiple of the issue slot.
BLOCK_PATH = {
    "default": (HLSConfig(), None),
    "issue_width=1": (HLSConfig(issue_width=1), None),
    "issue_width=2": (HLSConfig(issue_width=2), None),
    "issue_width=16": (HLSConfig(issue_width=16), None),
    "dyadic latencies": (
        HLSConfig(),
        HardwareCostModel(latency={Opcode.ADD: 1.5, Opcode.ICMP: 0.25}),
    ),
}
#: Configurations the block path must refuse.
FALLBACK = {
    "issue_width=3": (HLSConfig(issue_width=3), None),
    "fractional latencies": (
        HLSConfig(),
        HardwareCostModel(latency={Opcode.ADD: 1.5, Opcode.ICMP: 0.3}),
    ),
    "huge latency": (HLSConfig(), HardwareCostModel(latency={Opcode.ADD: 2 ** 47})),
    "loop pipelining": (HLSConfig(loop_pipelining=True), None),
}


def _fields(result):
    return dataclasses.asdict(result)


def _simulator(hls, hardware, point=None):
    if point is None:
        return TimingSimulator(RuntimeConfig(), hls, hardware=hardware)
    latency, bus, op_cycles, read_cycles, _ = point
    runtime = RuntimeConfig(
        queue_latency=latency,
        bus_latency=bus,
        processor_op_cycles=op_cycles,
        memory_read_cycles=read_cycles,
    )
    return TimingSimulator(runtime, hls, hardware=hardware)


@pytest.fixture(scope="module", params=ORACLE_PROGRAMS)
def compiled(request):
    name = request.param
    source = ALIASING_PROGRAM if name == "aliasing" else dict(PROGRAMS)[name]
    module, execution, dswp = _compiled(source, name)
    return module, execution.trace, dswp


@pytest.fixture
def hardware_calls(monkeypatch):
    """{method: runs} of the pure-hardware replay and its per-event loop."""
    calls = {"_replay_single_hardware": 0, "_replay_hardware_events": 0}
    for name in calls:
        real = getattr(TimingSimulator, name)

        def spy(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(TimingSimulator, name, spy)
    return calls


@pytest.mark.parametrize("variant", sorted(BLOCK_PATH))
def test_dyadic_configs_take_the_block_path(compiled, variant, monkeypatch):
    def per_event_loop(self, *args):
        raise AssertionError("the per-event loop ran on a dyadic configuration")

    monkeypatch.setattr(TimingSimulator, "_replay_hardware_events", per_event_loop)
    module, trace, _ = compiled
    assignment = ThreadAssignment.pure_hardware(module)
    sim = _simulator(*BLOCK_PATH[variant])
    trace._replay_index = None
    result = sim.simulate(trace, assignment)
    assert _fields(result) == _fields(poll_replay(sim, trace, assignment))
    assert _trace_index(trace).signatures is not None


@pytest.mark.parametrize("variant", sorted(FALLBACK))
def test_inexact_configs_fall_back_and_match_the_oracle(compiled, variant, hardware_calls):
    module, trace, dswp = compiled
    assignments = {
        "pure_hw": ThreadAssignment.pure_hardware(module),
        "twill": ThreadAssignment.from_partitioning(module, dswp.partitioning),
    }
    trace._replay_index = None
    for point in POINTS:
        sim = _simulator(*FALLBACK[variant], point)
        for label, assignment in assignments.items():
            result = sim.simulate(trace, assignment)
            assert result.forced_events == 0
            oracle = poll_replay(sim, trace, assignment)
            assert _fields(result) == _fields(oracle), (variant, point, label)
    # Every pure-hardware replay ran event by event.
    assert hardware_calls["_replay_hardware_events"] == hardware_calls["_replay_single_hardware"]
    assert hardware_calls["_replay_single_hardware"] >= 1
    assert _trace_index(trace).signatures is None


def test_hand_built_trace_takes_the_per_event_loop(hardware_calls):
    """Two hand-built occurrences with one first instruction and one length
    but different instructions: the block path would time both alike."""
    from repro.interp.trace import Trace, TraceEvent

    module = compile_c(
        "int main(void) { int s = 1; int i;"
        " for (i = 0; i < 4; i++) { s = s * 3 + 5; } print_int(s); return 0; }"
    )
    insts = [inst for fn in module.defined_functions() for inst in fn.instructions()]
    mul = next(inst for inst in insts if inst.opcode is Opcode.MUL)
    add = next(inst for inst in insts if inst.opcode is Opcode.ADD and inst.parent is mul.parent)
    branch = mul.parent.instructions[-1]
    trace = Trace()
    for body in ([mul, mul, add, branch], [mul, add, add, branch]):
        for inst in body:
            seq = len(trace)
            deps = (seq - 1,) if seq and inst is not branch else ()
            trace.append(TraceEvent(seq=seq, inst=inst, function="main", deps=deps))
    assert list(trace.block_starts) == [0, 4]
    assignment = ThreadAssignment.pure_hardware(module)
    sim = TimingSimulator()
    result = sim.simulate(trace, assignment)
    assert _fields(result) == _fields(poll_replay(sim, trace, assignment))
    assert hardware_calls["_replay_hardware_events"] == 1


def _signature_traces():
    compiler = TwillCompiler(CompilerConfig())
    for workload in all_workloads():
        yield workload.name, compiler.compile_module(workload.source, workload.name)
    programs = []
    for file_name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, file_name), encoding="utf-8") as fh:
            programs.append((file_name[:-2], fh.read()))
    programs += [(f"fuzz{seed}", generate_program(seed)) for seed in FUZZ_SEEDS]
    programs.append(("aliasing", ALIASING_PROGRAM))
    for name, source in programs:
        yield f"{name}-opt", compiler.compile_module(source, name)
        yield f"{name}-unopt", compile_c(source, name)


def _structure(index, start, end):
    """What an occurrence's timing reads of it: each event's static number
    and its operands inside the occurrence, as offsets.  (An operand from
    outside is done by the occurrence's start; which ones a phi has depends
    on the edge taken, and never matters.)"""
    return tuple(
        (index.inst_no[i], tuple(dep - start for dep in index.deps_seq[i] if dep >= start))
        for i in range(start, end)
    )


def test_each_signature_is_one_in_occurrence_structure():
    occurrences = 0
    shared = 0
    for name, module in _signature_traces():
        trace = run_module(module, record_trace=True, max_steps=MAX_STEPS).trace
        index = _trace_index(trace)
        signature_of, first_seen = index.block_signatures()
        starts = index.block_starts
        ends = list(starts[1:]) + [index.n]
        assert len(signature_of) == len(starts), name
        structures = {}
        for k, sid in enumerate(signature_of):
            if sid not in structures:
                assert first_seen[sid] == k, name
            structure = _structure(index, starts[k], ends[k])
            assert structures.setdefault(sid, structure) == structure, (name, k)
        assert sorted(structures) == list(range(len(first_seen))), name
        occurrences += len(signature_of)
        shared += len(signature_of) - len(first_seen)
    # Signatures repeat: most occurrences reuse an earlier one's timing.
    assert shared > occurrences // 2
