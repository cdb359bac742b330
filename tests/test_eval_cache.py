"""Tests of the on-disk artifact cache and the parallel evaluation path.

Uses the two cheapest workloads (blowfish, mips) so the suite stays fast;
every harness here points at a pytest-managed temp directory so test runs
never touch (or depend on) a developer's ``.repro_cache/``.
"""

import dataclasses
import pickle

import pytest

from repro.config import CompilerConfig, RuntimeConfig
from repro.core.compiler import TwillCompiler
from repro.eval import cache as cache_module
from repro.eval.cache import ArtifactCache, compile_key, derived_key
from repro.eval.experiments import table_6_1, table_6_2
from repro.eval.harness import EvaluationHarness
from repro.sim.timing import TimingSimulator
from repro.workloads import get_workload

FAST = ["blowfish", "mips"]


def make_harness(tmp_path, **kwargs):
    return EvaluationHarness(benchmarks=FAST, cache_dir=str(tmp_path / "cache"), **kwargs)


# ---------------------------------------------------------------------------
# key scheme
# ---------------------------------------------------------------------------


def test_compile_key_depends_on_source_and_config():
    config = CompilerConfig()
    base = compile_key("int main(void) { return 0; }", config)
    assert base == compile_key("int main(void) { return 0; }", config)
    assert base != compile_key("int main(void) { return 1; }", config)
    changed = CompilerConfig(inline_threshold=config.inline_threshold + 1)
    assert base != compile_key("int main(void) { return 0; }", changed)
    # Nested sections participate in the hash too.
    nested = CompilerConfig()
    nested.runtime = dataclasses.replace(nested.runtime, queue_depth=16)
    assert base != compile_key("int main(void) { return 0; }", nested)


def test_derived_key_depends_on_kind_and_params():
    base = derived_key("abc", "runtime", {"queue_latency": 2})
    assert base == derived_key("abc", "runtime", {"queue_latency": 2})
    assert base != derived_key("abc", "runtime", {"queue_latency": 8})
    assert base != derived_key("abc", "split", {"queue_latency": 2})
    assert base != derived_key("def", "runtime", {"queue_latency": 2})


def test_config_content_hash_stability():
    assert CompilerConfig().content_hash() == CompilerConfig().content_hash()
    assert CompilerConfig().content_hash() != CompilerConfig(inline_threshold=1).content_hash()


def test_compile_key_depends_on_code_digest(monkeypatch):
    config = CompilerConfig()
    before = compile_key("int main(void) { return 0; }", config)
    # Simulate an edit to the compiler source: the memoised digest changes,
    # so every compile key must change with it.
    monkeypatch.setattr(cache_module, "_code_digest_cache", "0" * 64)
    assert compile_key("int main(void) { return 0; }", config) != before


# ---------------------------------------------------------------------------
# ArtifactCache store semantics
# ---------------------------------------------------------------------------


def test_cache_put_get_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    assert cache.get("0" * 64) is None
    cache.put("0" * 64, {"x": 1}, serializer="json")
    assert cache.get("0" * 64) == {"x": 1}
    assert cache.contains("0" * 64)
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["total_bytes"] > 0


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    path = cache.put("1" * 64, {"x": 1}, serializer="json")
    path.write_bytes(b"not json")
    assert cache.get("1" * 64) is None
    assert not path.exists()  # corrupt entries are evicted


def test_cache_clear(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.put("2" * 64, 1, serializer="json")
    cache.put("3" * 64, 2, serializer="json")
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # idempotent on an empty cache


def test_cache_clear_sweeps_orphaned_tmp_files(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    path = cache.put("4" * 64, 1, serializer="json")
    orphan = path.parent / "tmpdead.tmp"  # writer killed mid-put
    orphan.write_bytes(b"partial")
    stats = cache.stats()
    assert stats["orphaned_tmp"] == 1
    assert stats["total_bytes"] > path.stat().st_size  # orphan bytes counted
    assert cache.clear() == 1  # one real entry...
    assert not orphan.exists()  # ...and the orphan is swept too


class _PlantMarker:
    """Unpickling this creates the file *path*: a stand-in for a hostile
    pickle planted in a shared cache."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_a_planted_pickle_is_never_loaded_but_still_maintained(tmp_path):
    """Earlier versions wrote ``.pkl`` entries.  None is read any more, so
    a planted one runs no code; maintenance still counts and removes it."""
    cache = ArtifactCache(tmp_path / "c")
    marker = tmp_path / "marker"
    key = "5" * 64
    planted = cache.objects_dir / key[:2] / f"{key}.pkl"
    planted.parent.mkdir(parents=True)
    planted.write_bytes(pickle.dumps(_PlantMarker(marker)))

    assert cache.get(key) is None
    assert not cache.contains(key)
    assert not marker.exists()
    assert planted.exists()
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["total_bytes"] == planted.stat().st_size
    assert cache.prune(max_bytes=0)["removed_entries"] == 1
    assert not planted.exists()

    planted.write_bytes(pickle.dumps(_PlantMarker(marker)))
    assert cache.clear() == 1
    assert not planted.exists() and not marker.exists()


def test_put_refuses_an_unknown_serializer(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    with pytest.raises(ValueError, match="unknown serializer"):
        cache.put("6" * 64, {"x": 1}, serializer="pickle")
    assert cache.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# harness x cache integration
# ---------------------------------------------------------------------------


def test_disk_cache_hit_skips_compilation(tmp_path, monkeypatch):
    h1 = make_harness(tmp_path)
    cold = h1.run("blowfish")
    assert h1.cache.stats()["entries"] == 1

    # A fresh harness with the same config must load from disk: compiling
    # again would call TwillCompiler.compile_and_simulate, which we break.
    h2 = make_harness(tmp_path)
    monkeypatch.setattr(
        TwillCompiler,
        "compile_and_simulate",
        lambda *a, **k: pytest.fail("cache miss: compile_and_simulate was called"),
    )
    warm = h2.run("blowfish")
    assert warm.result.outputs == cold.result.outputs
    assert warm.result.system.twill.cycles == cold.result.system.twill.cycles


def test_config_change_invalidates_cache(tmp_path):
    h1 = make_harness(tmp_path)
    h1.run("blowfish")
    changed = CompilerConfig(inline_threshold=10)
    h2 = make_harness(tmp_path, config=changed)
    h2.run("blowfish")
    # Different config hash => different key => a second entry, not a reuse.
    assert h2.cache.stats()["entries"] == 2
    assert h1._compile_key("blowfish") != h2._compile_key("blowfish")


def test_use_cache_false_writes_nothing(tmp_path):
    h = make_harness(tmp_path, use_cache=False)
    h.run("blowfish")
    assert h.cache is None
    assert not (tmp_path / "cache").exists()


def test_derived_sweep_results_are_cached(tmp_path, monkeypatch):
    h1 = make_harness(tmp_path)
    runtime = RuntimeConfig(queue_latency=8)
    cycles = h1.twill_cycles_with_runtime("blowfish", runtime)
    split = h1.twill_cycles_with_split("blowfish", 0.4)

    h2 = make_harness(tmp_path)
    h2.run("blowfish")  # warm the compile artefact from disk
    # Any re-simulation (runtime sweep or split re-partition) bottoms out in
    # TimingSimulator.simulate; a derived-cache hit must never reach it.
    monkeypatch.setattr(
        TimingSimulator,
        "simulate",
        lambda *a, **k: pytest.fail("derived cache miss: a timing re-simulation ran"),
    )
    assert h2.twill_cycles_with_runtime("blowfish", runtime) == cycles
    assert h2.twill_cycles_with_split("blowfish", 0.4) == split



def test_a_flipped_digit_in_a_runtime_entry_is_a_corrupt_miss_and_recomputed(tmp_path):
    """A derived entry that still parses after a one-digit edit fails its
    checksum: the read is a miss, the entry is deleted, and the next run
    recomputes the point."""
    runtime = RuntimeConfig(queue_latency=8)
    cycles = make_harness(tmp_path).twill_cycles_with_runtime("blowfish", runtime)
    key = derived_key(
        compile_key(get_workload("blowfish").source, CompilerConfig()), "runtime", runtime.to_dict()
    )
    cache = ArtifactCache(tmp_path / "cache")
    path = cache._path(key, "json")
    data = bytearray(path.read_bytes())
    at = data.rindex(repr(cycles).encode("ascii"))  # the stored value's first digit
    data[at] = ord("9") if data[at] != ord("9") else ord("1")
    path.write_bytes(bytes(data))

    assert cache.get(key) is None
    assert not path.exists()
    path.write_bytes(bytes(data))
    again = make_harness(tmp_path)
    assert again.twill_cycles_with_runtime("blowfish", runtime) == cycles
    assert again.last_stats["executed"].get("runtime") == 1
    assert cache.get(key) == cycles

# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------


def test_parallel_run_all_matches_serial(tmp_path):
    serial = EvaluationHarness(benchmarks=FAST, use_cache=False)
    serial_runs = serial.run_all()

    par = make_harness(tmp_path)
    par_runs = par.run_all(parallel=2)

    assert [r.name for r in par_runs] == [r.name for r in serial_runs]
    for s, p in zip(serial_runs, par_runs):
        assert p.result.outputs == s.result.outputs
        assert p.result.system.twill.cycles == s.result.system.twill.cycles
        assert p.result.dswp_summary() == s.result.dswp_summary()

    # The rendered artefacts must be byte-identical across the two paths.
    assert table_6_1(par)["table"] == table_6_1(serial)["table"]
    assert table_6_2(par)["table"] == table_6_2(serial)["table"]


def test_parallel_run_warms_the_disk_cache(tmp_path, monkeypatch):
    h1 = make_harness(tmp_path)
    h1.run_all(parallel=2)
    assert h1.cache.stats()["entries"] == len(FAST)
    h2 = make_harness(tmp_path)
    monkeypatch.setattr(
        TwillCompiler,
        "compile_and_simulate",
        lambda *a, **k: pytest.fail("parallel run did not populate the disk cache"),
    )
    h2.run_all()


def test_parallel_one_equals_serial_path(tmp_path):
    h = make_harness(tmp_path)
    runs = h.run_all(parallel=1)  # must not spin up a pool
    assert [r.name for r in runs] == FAST


# ---------------------------------------------------------------------------
# shared() keying
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _reset_shared():
    yield
    EvaluationHarness.reset_shared()


def test_shared_returns_same_instance_for_same_key():
    assert EvaluationHarness.shared() is EvaluationHarness.shared()
    a = EvaluationHarness.shared(benchmarks=FAST)
    assert a is EvaluationHarness.shared(benchmarks=FAST)
    assert a.benchmark_names == FAST


def test_shared_keys_by_config_hash():
    default = EvaluationHarness.shared(benchmarks=FAST)
    changed = EvaluationHarness.shared(config=CompilerConfig(inline_threshold=10), benchmarks=FAST)
    assert default is not changed
    assert changed.config.inline_threshold == 10  # config no longer ignored


def test_shared_keys_by_benchmark_set():
    assert EvaluationHarness.shared(benchmarks=["mips"]) is not EvaluationHarness.shared(benchmarks=["gsm"])
    assert EvaluationHarness.shared(benchmarks=["mips"]).benchmark_names == ["mips"]


# ---------------------------------------------------------------------------
# functional check still guards cache loads
# ---------------------------------------------------------------------------


def test_cache_load_still_checks_functional_outputs(tmp_path):
    h1 = make_harness(tmp_path)
    h1.run("blowfish")
    # Corrupt the cached artefact's outputs: the next load must refuse it.
    key = h1._compile_key("blowfish")
    summary = h1.cache.get(key)
    summary.outputs[0] ^= 1
    h1.cache.put(key, summary, serializer="artifact")
    h2 = make_harness(tmp_path)
    with pytest.raises(AssertionError, match="functional outputs"):
        h2.run("blowfish")
