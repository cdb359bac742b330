"""The columnar trace: what the interpreter records, and who reads it how.

The interpreter records each event straight into the trace's columns and
marks block occurrences as it enters blocks; the replay index and the
artifact codec read the columns.  These tests hold the columns to the
event-level definitions the replay oracle uses, check the
:class:`TraceEvent` read view, and pin that no report path — cold or warm —
builds a single event object, and a warm one no replay index either.  A
warm report, and the parent of a cold parallel one, does not even decode
the heavy part (module, trace, partitioning) of a cached compile artifact.
"""

import json
import os
import pickle

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.eval import experiments, heavy_codec
from repro.eval import harness as harness_module
from repro.eval.harness import EvaluationHarness
from repro.frontend import compile_c
from repro.interp import Profile, run_module
from repro.interp import trace as trace_module
from repro.interp.trace import Trace, TraceEvent
from repro.pdg.graph import ProgramDependenceGraph
from repro.sim import timing
from repro.workloads import all_workloads
from tests.conftest import PIPELINE_PROGRAM, SMALL_PROGRAM
from tests.replay_oracle import block_occurrences, printed_values

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

COLUMNS = ("inst", "deps", "dep_offsets", "mem_dep", "address", "value", "present", "block_starts")

RECURSIVE_PROGRAM = """
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main(void) {
  int i;
  for (i = 0; i < 6; i++) { print_int(fib(i)); }
  return 0;
}
"""


def _traces():
    """(name, trace) of every builtin workload, corpus file and test program."""
    compiler = TwillCompiler(CompilerConfig())
    for workload in all_workloads():
        module = compiler.compile_module(workload.source, workload.name)
        yield workload.name, run_module(module, record_trace=True).trace
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            module = compiler.compile_module(fh.read(), name[:-2])
        yield name, run_module(module, record_trace=True).trace
    # Unoptimised, so calls and returns stay (the compiler rejects recursion).
    for name, source in (
        ("recursive", RECURSIVE_PROGRAM),
        ("small", SMALL_PROGRAM),
        ("pipeline", PIPELINE_PROGRAM),
    ):
        yield name, run_module(compile_c(source, name), record_trace=True).trace


@pytest.fixture(scope="module")
def traces():
    return list(_traces())


def test_block_marks_and_prints_match_the_event_definitions(traces):
    """Block occurrences begin where the (function, block) changes or a
    terminator ran; prints are the print_int calls in program order."""
    for name, trace in traces:
        events = trace.events
        index = timing._TraceIndex(trace)
        assert list(index.block_occurrence) == block_occurrences(events), name
        assert index.prints == printed_values(events), name
        deps_seq = [
            e.deps + ((e.mem_dep,) if e.mem_dep is not None else ()) for e in events
        ]
        assert index.deps_seq == deps_seq, name


def test_appending_the_events_rebuilds_the_same_columns(traces):
    for name, trace in traces:
        rebuilt = Trace()
        for event in trace.events:
            rebuilt.append(event)
        for column in COLUMNS:
            assert getattr(rebuilt, column) == getattr(trace, column), (name, column)
        assert rebuilt.instructions == trace.instructions


def test_append_refuses_an_out_of_order_event(traces):
    _, trace = traces[0]
    event = trace.events[3]
    with pytest.raises(ValueError, match="appended at position 0"):
        Trace().append(event)


def test_events_are_the_rows_in_order(traces):
    _, trace = traces[0]
    events = trace.events
    assert all(isinstance(e, TraceEvent) for e in events)
    assert [e.seq for e in events] == list(range(len(trace)))
    assert list(trace) == events


def test_pickle_keeps_the_columns_and_leaves_the_replay_index_behind(traces):
    _, trace = traces[0]
    timing._trace_index(trace)
    copy = pickle.loads(pickle.dumps(trace))
    assert not hasattr(copy, "_replay_index")
    for column in COLUMNS:
        assert getattr(copy, column) == getattr(trace, column), column
    assert copy._numbers == {inst: no for no, inst in enumerate(copy.instructions)}


def test_profile_counts_come_from_the_instruction_column():
    module = TwillCompiler(CompilerConfig()).compile_module(PIPELINE_PROGRAM, "pipeline")
    trace = run_module(module, record_trace=True).trace
    profile = Profile.from_trace(module, trace)
    expected = {}
    for event in trace.events:
        expected[event.inst] = expected.get(event.inst, 0) + 1
    for fn in module.defined_functions():
        for inst in fn.instructions():
            assert profile.count(inst) == float(expected.get(inst, 0))


def _counting(monkeypatch, cls, counter, key):
    original = cls.__init__

    def init(self, *args, **kwargs):
        counter[key] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)


def test_warm_report_builds_no_events_and_no_replay_index(tmp_path, monkeypatch):
    built = {"events": 0, "indexes": 0}
    _counting(monkeypatch, trace_module.TraceEvent, built, "events")
    _counting(monkeypatch, timing._TraceIndex, built, "indexes")

    def report():
        harness = EvaluationHarness(
            config=CompilerConfig(), benchmarks=["blowfish", "adpcm"], cache_dir=str(tmp_path)
        )
        return json.dumps(experiments.run_report(harness), sort_keys=True)

    cold = report()
    assert built["indexes"] > 0  # the counters see the cold replays ...
    assert built["events"] == 0  # ... which read columns, never events
    built.update(events=0, indexes=0)
    warm = report()
    assert built == {"events": 0, "indexes": 0}
    assert warm == cold


def _report(cache_dir, parallel=None):
    harness = EvaluationHarness(
        config=CompilerConfig(), benchmarks=["blowfish", "adpcm"], cache_dir=str(cache_dir)
    )
    return json.dumps(experiments.run_report(harness, parallel=parallel), sort_keys=True)


def _counting_calls(monkeypatch, owner, name, counter, key):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _count_decodes_and_pdgs(monkeypatch):
    built = {"heavy": 0, "pdgs": 0, "keys": 0}
    _counting_calls(monkeypatch, heavy_codec, "decode_heavy", built, "heavy")
    _counting(monkeypatch, ProgramDependenceGraph, built, "pdgs")
    _counting_calls(monkeypatch, harness_module, "compile_key", built, "keys")
    return built


def test_warm_report_decodes_no_heavy_part_and_builds_no_pdg(tmp_path, monkeypatch):
    built = _count_decodes_and_pdgs(monkeypatch)
    cold = _report(tmp_path)
    assert built["pdgs"] > 0  # the counters see the cold DSWP runs
    assert built["keys"] == 2  # one compile key per workload
    built.update(heavy=0, pdgs=0, keys=0)
    warm = _report(tmp_path)
    assert built == {"heavy": 0, "pdgs": 0, "keys": 2}
    assert warm == cold


def test_cold_parallel_report_parent_decodes_no_heavy_part(tmp_path, monkeypatch):
    built = _count_decodes_and_pdgs(monkeypatch)
    parallel = _report(tmp_path / "parallel", parallel=2)
    # The workers compiled; the parent re-read each artifact they wrote but
    # only ever used its summary.
    assert built["heavy"] == 0 and built["pdgs"] == 0
    assert parallel == _report(tmp_path / "serial")
