"""Differential tests: interpreter vs timing-replay output agreement.

The tier-1 guarantee of the ingestion PR: for every builtin workload, the
functional interpreter and the timing simulation agree on the observable
output stream under the software-only, hybrid, and hardware-heavy hardware
configurations, every trace event is replayed exactly once, and no event
ever needs force-execution.  The fuzzed corpus programs get the same
treatment through the ingestion path.
"""

import pytest

from repro.eval import EvaluationHarness
from repro.ingest import difftest_all, difftest_workload, load_corpus
from repro.ingest.difftest import CONFIGS
from repro.workloads import all_workloads
from repro.workloads.base import WorkloadRegistry

BUILTINS = ("adpcm", "aes", "blowfish", "gsm", "jpeg", "mips", "mpeg2", "sha")
CONFIG_LABELS = tuple(label for label, _ in CONFIGS)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    return EvaluationHarness(cache_dir=str(tmp_path_factory.mktemp("difftest-cache")))


@pytest.fixture(scope="module")
def outcomes(harness):
    """One compile per builtin, shared by every parameterized assertion."""
    return {o.workload: o for o in difftest_all(harness, BUILTINS)}


def test_covers_all_builtins():
    assert tuple(sorted(w.name for w in all_workloads() if w.origin == "builtin")) == BUILTINS


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_outcome_is_clean(outcomes, name):
    outcome = outcomes[name]
    assert outcome.ok, outcome.failures
    assert outcome.origin == "builtin"
    assert outcome.events > 0
    assert outcome.outputs > 0


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("label", CONFIG_LABELS)
def test_builtin_agrees_under_config(outcomes, name, label):
    assert outcomes[name].configs[label] is True


def test_outcome_dict_shape(outcomes):
    payload = outcomes["blowfish"].to_dict()
    assert payload["workload"] == "blowfish"
    assert set(payload["configs"]) == set(CONFIG_LABELS)
    assert payload["failures"] == []


def test_replay_stream_matches_interpreter_exactly(harness):
    """Spot-check the raw invariant behind the difftest verdicts."""
    run = harness.run("sha")
    interp = [int(v) for v in run.result.outputs]
    trace = harness.compile_result("sha").execution.trace
    for _, attr in CONFIGS:
        timing = getattr(run.result.system, attr).timing
        assert list(timing.replay_outputs) == interp
        assert timing.forced_events == 0
        assert timing.events == len(trace.events)


def test_corpus_programs_difftest_clean(harness):
    before = set(WorkloadRegistry.names())
    reports = load_corpus("tests/corpus", harness=harness)
    try:
        assert len(reports) >= 4
        for report in reports:
            outcome = difftest_workload(harness, report.name)
            assert outcome.ok, outcome.failures
            assert outcome.origin == "ingested"
    finally:
        for name in set(WorkloadRegistry.names()) - before:
            WorkloadRegistry.unregister(name)
