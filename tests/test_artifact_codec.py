"""Tests for the compile-artifact codec and the build the re-simulations read.

``repro.eval.heavy_codec`` serialises a compile's :class:`CompileSummary`
into one checksummed canonical JSON line behind a magic header, instead of
a pickle — loading it executes no code.  No heavy field is stored: a
runtime or design point builds the module, trace, profile, DSWP result and
LegUp result itself (:func:`repro.eval.worker.sweep_input`), and checks the
build's outputs and DSWP summary against the cached summary.
The contract is stronger than "fields survive": the build must drive every
downstream consumer (split re-simulation, partitioned timing replay,
report rows) to **byte-identical** output, because the re-simulations
serve it interchangeably with the compile's own result.  The rebuild
oracle compares every heavy field by instruction number: the printed
module, the trace columns, the memory image, the profile, the DSWP
partitions and queues.
"""

import dataclasses
import json
import os
import zlib
from collections import OrderedDict

import pytest

from repro.config import CompilerConfig, PartitionConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval import worker
from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, decode_compilation_result
from repro.eval.cache import ArtifactCache, compile_key
from repro.eval.harness import EvaluationHarness
from repro.eval.heavy_codec import encode_compilation_result
from repro.explore.evaluate import compute_explore_point
from repro.ir import verify_module
from repro.ir.printer import print_module
from repro.results import CompilationResult, CompileSummary
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.system import evaluate_with_partition, repartition
from repro.workloads import all_workloads, get_workload
from tests.conftest import SMALL_PROGRAM

BLOWFISH_KEY = compile_key(get_workload("blowfish").source, CompilerConfig())


@pytest.fixture(scope="module")
def compiled():
    compiler = TwillCompiler(CompilerConfig())
    return compiler, compiler.compile_and_simulate(
        get_workload("blowfish").source, name="blowfish"
    )


@pytest.fixture(scope="module")
def roundtripped(compiled, tmp_path_factory):
    """What a sweep point re-simulates when the compile came from the cache:
    a build of its own, checked against the cached summary."""
    _, result = compiled
    cache = ArtifactCache(tmp_path_factory.mktemp("rebuild"))
    cache.put(BLOWFISH_KEY, result.summary(), serializer="artifact")
    worker._SWEEP_INPUT_MEMO.pop(BLOWFISH_KEY, None)
    return worker.sweep_input("blowfish", CompilerConfig(), cache.spec, BLOWFISH_KEY)


@pytest.fixture
def empty_memo(monkeypatch):
    """A sweep-input memo of this test's own, so every sweep point builds."""
    monkeypatch.setattr(worker, "_SWEEP_INPUT_MEMO", OrderedDict())


def _canonical(document) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _summary(data: bytes):
    """The summary document of a payload."""
    return json.loads(data[len(ARTIFACT_MAGIC) + 9:])


def _payload(*documents, magic: bytes = ARTIFACT_MAGIC) -> bytes:
    """A payload with a valid checksum over *documents*, one line each."""
    body = b"\n".join(_canonical(document) for document in documents)
    return magic + b"%08x\n" % zlib.crc32(body) + body


def test_artifact_is_magic_checksum_and_summary(compiled):
    """The payload is the summary and nothing else: no source, trace,
    memory image or partition is stored."""
    _, result = compiled
    data = encode_compilation_result(result.summary())
    assert data.startswith(ARTIFACT_MAGIC) and ARTIFACT_MAGIC == b"repro-artifact-v7\n"
    crc, body = data[len(ARTIFACT_MAGIC):].split(b"\n", 1)
    assert crc == b"%08x" % zlib.crc32(body)
    assert b"\n" not in body
    summary = json.loads(body)
    assert sorted(summary) == ["dswp", "name", "outputs", "system"]
    assert summary["outputs"] == result.outputs
    assert summary["dswp"] == result.dswp.summary()
    # Canonical form: re-dumping with sorted keys reproduces the line.
    assert body == _canonical(summary)
    assert _payload(summary) == data
    assert len(data) < 8192


def test_module_text_roundtrips(compiled, roundtripped):
    _, result = compiled
    assert roundtripped.module is not result.module
    assert print_module(roundtripped.module) == print_module(result.module)


def test_summary_and_outputs_roundtrip(compiled, roundtripped):
    _, result = compiled
    summary = result.summary()
    decoded = decode_compilation_result(encode_compilation_result(summary))
    assert type(decoded) is CompileSummary and decoded == summary
    assert decoded.summary_dict() == result.summary_dict()
    assert decoded.report() == result.report()
    assert roundtripped.name == result.name
    assert roundtripped.outputs == result.outputs
    assert roundtripped.return_value == result.return_value
    assert roundtripped.system is None  # a build runs no replay


def test_trace_and_profile_roundtrip(compiled, roundtripped):
    _, result = compiled
    original, decoded = result.execution.trace, roundtripped.execution.trace
    assert len(decoded) == len(original)
    assert decoded.truncated == original.truncated
    # Event streams must align position-by-position on everything the
    # timing simulator reads: function, dependency edges, memory effects.
    for a, b in zip(original.events, decoded.events):
        assert a.function == b.function
        assert a.opcode is b.opcode
        assert a.deps == b.deps
        assert a.mem_dep == b.mem_dep
        assert a.address == b.address
        assert a.value == b.value
    for fn, decoded_fn in zip(
        result.module.functions.values(), roundtripped.module.functions.values()
    ):
        assert roundtripped.profile.function_total(decoded_fn) == result.profile.function_total(fn)
    assert roundtripped.profile.hottest_function() == result.profile.hottest_function()


def _split(result: CompilationResult, fraction: float) -> CompilationResult:
    """*result* re-partitioned at *fraction* and re-simulated."""
    config = CompilerConfig()
    dswp = repartition(result.module, result.profile, config, fraction)
    system = evaluate_with_partition(
        result.name, result.module, result.execution.trace, dswp, result.legup, config
    )
    return dataclasses.replace(result, dswp=dswp, system=system)


def test_decoded_result_drives_identical_resimulation(compiled, roundtripped):
    """The decisive test: downstream consumers can't tell the difference."""
    _, result = compiled
    for fraction in (0.1, 0.5, 0.9):
        fresh = _split(result, fraction)
        decoded = _split(roundtripped, fraction)
        assert json.dumps(decoded.summary_dict(), sort_keys=True) == json.dumps(
            fresh.summary_dict(), sort_keys=True
        )


def test_decoded_partitioning_replays_identically(compiled, roundtripped):
    _, result = compiled
    sim = TimingSimulator()
    trace = result.execution.trace
    fresh = sim.simulate(
        trace, ThreadAssignment.from_partitioning(result.module, result.dswp.partitioning)
    )
    decoded = sim.simulate(
        roundtripped.execution.trace,
        ThreadAssignment.from_partitioning(
            roundtripped.module, roundtripped.dswp.partitioning
        ),
    )
    assert dataclasses.asdict(decoded) == dataclasses.asdict(fresh)


# ---------------------------------------------------------------------------
# thread extractions
# ---------------------------------------------------------------------------

EXTRACTING = CompilerConfig(extract_threads=True)


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_thread_extraction_compile_round_trips_through_the_cache(name, tmp_path, empty_memo):
    """A compile with materialised thread extractions stores its summary
    with the codec, and a sweep point's build of it has the same threads,
    each pointing into the build's own module."""
    cache = ArtifactCache(tmp_path)
    key = compile_key(get_workload(name).source, EXTRACTING)
    summary = cache.get_or_compute(
        key, lambda: worker.compute_compile(name, EXTRACTING, key), serializer="artifact"
    )
    assert cache._path(key, "artifact").is_file()
    assert cache.get(key) == summary
    eager = worker._SWEEP_INPUT_MEMO.pop(key)  # the compile's own full result
    assert eager.summary() == summary
    built = worker.sweep_input(name, EXTRACTING, cache.spec, key)
    assert built is not eager and built.dswp.summary() == summary.dswp

    extractions = built.dswp.partitioning.extractions
    assert extractions and extractions.keys() == eager.dswp.partitioning.extractions.keys()
    for fn_name, extraction in extractions.items():
        assert extraction.threads
        for thread in extraction.threads:
            assert thread.function is built.module.get_function(thread.function.name)
            assert thread.source_function == fn_name
        source = set(built.module.get_function(fn_name).instructions())
        assert extraction.queue_map and all(v in source for v, _ in extraction.queue_map)
    # The rebuilt threads verify exactly as the extracted ones do.  (Some
    # extractions place a consume before a phi, which the verifier reports.)
    verdict = verify_module(eager.module, raise_on_error=False).errors
    assert verify_module(built.module, raise_on_error=False).errors == verdict


def test_cache_stores_artifact_entries(compiled, tmp_path):
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    path = cache.put("a" * 64, result.summary(), serializer="artifact")
    assert path is not None and path.suffix == ".art"
    loaded = cache.get("a" * 64)
    assert loaded == result.summary()
    assert json.dumps(loaded.summary_dict(), sort_keys=True) == json.dumps(
        result.summary_dict(), sort_keys=True
    )


def test_harness_run_stores_the_compile_artifact_with_the_codec(tmp_path):
    def harness():
        return EvaluationHarness(
            config=CompilerConfig(), benchmarks=["blowfish"], cache_dir=str(tmp_path)
        )

    cold = harness()
    cold_summary = cold.run("blowfish").result
    serializer, data = cold.cache.backend.get_blob(cold._compile_key("blowfish"))
    assert serializer == "artifact" and data.startswith(ARTIFACT_MAGIC)
    # So a later run reads it back through the codec, not pickle, and both
    # runs hold the summary only.
    warm = harness().run("blowfish").result
    assert type(cold_summary) is CompileSummary and warm == cold_summary


# ---------------------------------------------------------------------------
# the summary and the checksum
# ---------------------------------------------------------------------------


def test_decode_serves_the_summary_without_the_heavy_part(compiled, monkeypatch):
    _, result = compiled

    def refuse(*args, **kwargs):
        raise AssertionError("decoding a summary built the compile")

    monkeypatch.setattr(TwillCompiler, "build", refuse)
    decoded = decode_compilation_result(encode_compilation_result(result.summary()))
    assert decoded.name == result.name
    assert decoded.outputs == result.outputs
    assert decoded.dswp_summary() == result.dswp.summary()
    assert decoded.summary_dict() == result.summary_dict()
    assert decoded.report() == result.report()
    assert decoded.speedup_vs_software == result.system.speedup_vs_software
    for field in ("module", "execution", "profile", "legup"):
        assert not hasattr(decoded, field)


@pytest.fixture(scope="module")
def small_payload():
    result = TwillCompiler(CompilerConfig()).compile_and_simulate(SMALL_PROGRAM, name="small")
    return encode_compilation_result(result.summary())


@pytest.mark.parametrize("mask", [0x01, 0xFF])
def test_every_flipped_byte_fails_the_checksum(small_payload, mask):
    assert decode_compilation_result(small_payload).outputs
    assert small_payload.count(b"\n") == 2  # magic, checksum, summary
    for at in range(len(small_payload)):
        flipped = bytearray(small_payload)
        flipped[at] ^= mask
        with pytest.raises(ArtifactCodecError):
            decode_compilation_result(bytes(flipped))


def test_a_flipped_byte_in_the_cache_is_a_corrupt_miss_and_recomputed(compiled, tmp_path):
    _, result = compiled
    summary = result.summary()
    cache = ArtifactCache(tmp_path)
    key = "b" * 64
    path = cache.put(key, summary, serializer="artifact")
    data = bytearray(path.read_bytes())
    at = data.index(b'"outputs":[') + len(b'"outputs":[')  # a digit of the outputs
    data[at] ^= 0x01
    path.write_bytes(bytes(data))
    assert cache.get(key) is None  # a corrupt entry reads as a miss...
    assert not path.exists()  # ...and is deleted so the recompute replaces it
    path.write_bytes(bytes(data))
    computed = []

    def compute():
        computed.append(1)
        return summary

    assert cache.get_or_compute(key, compute, serializer="artifact") is summary
    assert computed == [1]
    assert cache.get(key) == summary


def _old_payload(version: str, summary, source: str) -> bytes:
    """A checksum-valid payload in the layout of an older *version*."""
    magic = b"repro-artifact-%s\n" % version.encode()
    inputs = {"source": source, "config": CompilerConfig().to_dict(), "structure": {}}
    tail = b"\n" + zlib.compress(b"")
    if version == "v3":  # the arrays base64-encoded inside the heavy JSON
        return _payload(summary, {"trace": {"events": ""}, "memory": {}}, magic=magic)
    if version == "v4":  # the module, profile and LegUp result, then a tail
        heavy = {"module": {"functions": []}, "profile": {"counts": []}, "legup": {}}
        return _payload(summary, heavy, magic=magic) + tail
    if version == "v5":  # the execution and the DSWP partitions, then a tail
        heavy = dict(inputs, execution={"steps": 1, "trace": None}, dswp={"functions": {}})
        return _payload(summary, heavy, magic=magic) + tail
    return _payload(summary, inputs, magic=magic)  # v6: the compile's inputs


@pytest.mark.parametrize("version", ["v3", "v4", "v5", "v6"])
def test_an_old_payload_is_a_bad_magic_miss_and_recomputed_once(compiled, tmp_path, version):
    """An entry in an older layout is never decoded, even with a valid
    checksum, and is recomputed once."""
    _, result = compiled
    summary = result.summary()
    old = _old_payload(version, _summary(encode_compilation_result(summary)), "int main() {}")
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(old)
    # The same lines under the current magic are no valid payload either.
    with pytest.raises(ArtifactCodecError):
        decode_compilation_result(ARTIFACT_MAGIC + old[len(b"repro-artifact-v3\n"):])
    cache = ArtifactCache(tmp_path)
    key = "e" * 64
    cache.backend.put_blob(key, "artifact", old)
    computed = []

    def compute():
        computed.append(1)
        return summary

    assert cache.get_or_compute(key, compute, serializer="artifact") is summary
    assert cache.get_or_compute(key, compute, serializer="artifact") == summary
    assert computed == [1]
    assert cache.backend.get_blob(key) == ("artifact", encode_compilation_result(summary))


# ---------------------------------------------------------------------------
# the build against the cached summary
# ---------------------------------------------------------------------------


def _bump_first_output(summary):
    summary["outputs"][0] += 1


def _bump_queue_count(summary):
    summary["dswp"]["queues"] += 1


#: Edits of the cached summary, under a valid checksum, that a sweep
#: point's build must refuse: functional outputs or a DSWP summary it does
#: not reproduce (as a run with ``args`` or a split re-simulation would
#: give).
SUMMARY_MUTATIONS = {
    "outputs": _bump_first_output,
    "dswp summary": _bump_queue_count,
}


def _harness(cache_dir) -> EvaluationHarness:
    return EvaluationHarness(config=CompilerConfig(), benchmarks=["blowfish"], cache_dir=str(cache_dir))


@pytest.mark.parametrize("mutation", sorted(SUMMARY_MUTATIONS))
def test_a_summary_the_rerun_does_not_reproduce_raises_on_first_access(
    tmp_path, empty_memo, mutation
):
    """A split point of a compile whose cached summary its build does not
    reproduce raises, naming the entry, and deletes it; the next run
    recomputes the compile and gets the fresh answer."""
    expected = _harness(tmp_path / "fresh").twill_cycles_with_split("blowfish", 0.5)
    cold = _harness(tmp_path / "cache")
    cold.run("blowfish")
    path = cold.cache._path(BLOWFISH_KEY, "artifact")
    summary = _summary(path.read_bytes())
    SUMMARY_MUTATIONS[mutation](summary)
    path.write_bytes(_payload(summary))
    assert decode_compilation_result(path.read_bytes()).name == "blowfish"  # the checksum holds
    worker._SWEEP_INPUT_MEMO.clear()

    with pytest.raises(ArtifactCodecError, match=BLOWFISH_KEY) as raised:
        _harness(tmp_path / "cache").twill_cycles_with_split("blowfish", 0.5)
    assert isinstance(raised.value, ReproError)
    assert not path.exists()
    worker._SWEEP_INPUT_MEMO.clear()
    assert _harness(tmp_path / "cache").twill_cycles_with_split("blowfish", 0.5) == expected
    assert decode_compilation_result(path.read_bytes()) == cold.run("blowfish").result


def test_a_split_resimulation_fails_its_first_heavy_read(compiled, tmp_path, empty_memo):
    """A split re-simulation partitions at another target than its config
    names, so a build cannot give its partitions back: its DSWP summary
    differs, and a point built against it says so."""
    _, result = compiled
    split = _split(result, 0.9)
    assert split.summary().dswp != result.summary().dswp
    cache = ArtifactCache(tmp_path)
    cache.put(BLOWFISH_KEY, split.summary(), serializer="artifact")
    point = CompilerConfig(partition=PartitionConfig(sw_fraction=0.5))
    with pytest.raises(ArtifactCodecError, match="differs from its stored outputs or DSWP"):
        compute_explore_point("blowfish", CompilerConfig(), cache.spec, point, BLOWFISH_KEY)
    assert not cache.contains(BLOWFISH_KEY)


# ---------------------------------------------------------------------------
# the rebuild oracle: a build against the compile's own result
# ---------------------------------------------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _sources():
    sources = [(w.name, w.source) for w in all_workloads()]
    for name in sorted(os.listdir(CORPUS)):
        if name.endswith(".c"):
            with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
                sources.append((name[:-2], fh.read()))
    return sources


CONFIGS = {"default": CompilerConfig(), "extracting": EXTRACTING}


@pytest.fixture(scope="module")
def compiled_and_built():
    """(eager result, a second build of it) of a builtin workload or corpus
    file under one of :data:`CONFIGS`, each made once per module."""
    sources = dict(_sources())
    memo = {}

    def get(config: str, name: str):
        if (config, name) not in memo:
            compiler = TwillCompiler(CONFIGS[config])
            eager = compiler.compile_and_simulate(sources[name], name=name)
            built = CompilationResult(name=name, system=None, **compiler.build(sources[name], name))
            memo[config, name] = eager, built
        return memo[config, name]

    return get


#: The trace's per-event columns.
COLUMNS = ("inst", "dep_offsets", "deps", "mem_dep", "address", "value", "present", "block_starts")


def _numbering(module):
    """Instruction -> its number in module, block and instruction order."""
    return {
        inst: no
        for no, inst in enumerate(
            i for fn in module.functions.values() for block in fn.blocks for i in block.instructions
        )
    }


def _heavy_shape(result):
    """Every heavy field of *result*, with instructions named by number, so
    results built on different copies of a module compare equal."""
    number = _numbering(result.module)
    execution = result.execution
    trace, memory = execution.trace, execution.memory
    partitioning = result.dswp.partitioning
    return {
        "module": print_module(result.module),
        "execution": (execution.return_value, execution.outputs, execution.steps),
        "trace": (
            [number[i] for i in trace.instructions],
            trace.functions,
            trace.truncated,
            [getattr(trace, column) for column in COLUMNS],
        ),
        "memory": (
            memory._bytes, memory.global_addresses, memory.global_sizes, memory._global_top,
            memory._stack_top, memory.load_count, memory.store_count,
        ),
        "profile": sorted((no, result.profile.count(i)) for i, no in number.items()),
        "partitions": {
            fn_name: (
                fp.sw_fraction,
                [
                    (p.index, p.kind, p.scc_indices, [number[i] for i in p.instructions],
                     p.sw_weight, p.hw_weight, p.target_weight, p.is_master)
                    for p in fp.partitions
                ],
                sorted((number[i], k) for i, k in fp.assignment.items()),
            )
            for fn_name, fp in partitioning.functions.items()
        },
        "queues": {
            fn_name: (
                allocation.semaphore_count,
                [
                    (number[d.value], number[d.consumer], d.producer_partition,
                     d.consumer_partition, d.kind, d.loop_case)
                    for d in allocation.deps
                ],
                [
                    (q.queue_id, number[q.value], q.producer_partition, q.consumer_partition,
                     q.width_bits, q.depth, [allocation.deps.index(d) for d in q.deps])
                    for q in allocation.queues
                ],
            )
            for fn_name, allocation in partitioning.queues.items()
        },
        "semaphores": partitioning.semaphores,
        "extractions": {
            fn_name: [thread.function.name for thread in extraction.threads]
            for fn_name, extraction in partitioning.extractions.items()
        },
        "legup": (result.legup.state_count(), result.legup.total_area),
    }


@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_v4_round_trip_keeps_trace_columns_and_memory_image(compiled_and_built, name):
    """Every trace column and the memory image of a build equal the
    compile's.  (v4 was the first format to keep them as arrays; since v6
    they are built again.)"""
    eager, built = compiled_and_built("default", name)
    recorded, rebuilt = eager.execution.trace, built.execution.trace
    assert rebuilt is not recorded
    for column in COLUMNS:
        assert getattr(rebuilt, column) == getattr(recorded, column), column
    numbers, rebuilt_numbers = _numbering(eager.module), _numbering(built.module)
    assert [rebuilt_numbers[i] for i in rebuilt.instructions] == [
        numbers[i] for i in recorded.instructions
    ]
    assert rebuilt.functions == recorded.functions
    assert rebuilt.truncated == recorded.truncated
    memory, image = eager.execution.memory, built.execution.memory
    assert image._bytes == memory._bytes
    for field in ("global_addresses", "global_sizes", "_global_top", "_stack_top",
                  "load_count", "store_count"):
        assert getattr(image, field) == getattr(memory, field), field


def _heavy_report_lines(result):
    """The report lines the summary stands in for, read off the heavy fields."""
    execution, partitioning = result.execution, result.dswp.partitioning
    return [
        f"functional outputs    : {len(execution.outputs)} values, "
        f"checksum 0x{execution.output_checksum:08x}",
        f"dynamic instructions  : {len(execution.trace)}",
        f"queues / semaphores   : {partitioning.total_queues} / {partitioning.total_semaphores}",
        f"hardware threads      : {partitioning.hardware_thread_count}",
    ]


@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_the_summary_reports_what_the_heavy_fields_say(compiled_and_built, name):
    """The report reads the output checksum, the trace length and the DSWP
    counts off the summary, and gets what the heavy fields say; the eager
    result and its decoded summary report the same text."""
    eager, _ = compiled_and_built("default", name)
    decoded = decode_compilation_result(encode_compilation_result(eager.summary()))
    assert decoded.report() == eager.report()
    assert decoded.report().splitlines()[1:5] == _heavy_report_lines(eager)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_rebuilt_module_prints_as_the_compiled_one(compiled_and_built, config, name):
    """The rebuild oracle: a second build of the same source and config
    prints its module exactly as the compiled one, and its trace columns,
    memory image, profile, DSWP partitions and queues, extracted threads
    and LegUp result equal the compile's."""
    eager, built = compiled_and_built(config, name)
    assert print_module(built.module) == print_module(eager.module)
    assert built.dswp.partitioning.extractions.keys() == eager.dswp.partitioning.extractions.keys()
    assert _heavy_shape(built) == _heavy_shape(eager)
    assert built.dswp.summary() == eager.summary().dswp
