"""Round-trip tests for the structured compile-artifact codec.

``repro.eval.heavy_codec`` serialises a :class:`CompilationResult` into a
checksummed summary line and one canonical inputs line (the compile's
source and config and a structural digest of its module) behind a magic
header, instead of a pickle — loading it executes no code.  No heavy field
is stored: the first heavy read re-runs the flow up to DSWP and LegUp on
the stored inputs.
The contract is stronger than "fields survive": a *decoded* result must
drive every downstream consumer (split re-simulation, partitioned timing
replay, report rows) to **byte-identical** output, because the cache
serves decoded artifacts interchangeably with freshly-computed ones.  The
rebuild oracle compares every heavy field by instruction number: the
printed module, the trace columns, the memory image, the profile, the DSWP
partitions and queues.  A decoded result is lazy: its heavy fields are
re-run on first access, and malformed inputs, or a re-run that does not
match the stored digest or summary, raise then.
"""

import dataclasses
import json
import os
import pickle
import sys
import zlib

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval import heavy_codec
from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, decode_compilation_result
from repro.eval.heavy_codec import encode_compilation_result
from repro.eval import worker
from repro.eval.cache import ArtifactCache, compile_key
from repro.eval.harness import EvaluationHarness
from repro.ir import verify_module
from repro.ir.printer import print_module
from repro.pdg.scc import condense
from repro.sim import ThreadAssignment, TimingSimulator
from repro.workloads import all_workloads, get_workload
from tests.conftest import SMALL_PROGRAM


@pytest.fixture(scope="module")
def compiled():
    compiler = TwillCompiler(CompilerConfig())
    return compiler, compiler.compile_and_simulate(
        get_workload("blowfish").source, name="blowfish"
    )


@pytest.fixture(scope="module")
def roundtripped(compiled):
    _, result = compiled
    return decode_compilation_result(encode_compilation_result(result))


def _canonical(document) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _parts(data: bytes):
    """(summary document, inputs document) of a payload."""
    summary, inputs = data[len(ARTIFACT_MAGIC) + 9:].split(b"\n")
    return json.loads(summary), json.loads(inputs)


def _payload(summary, inputs, magic: bytes = ARTIFACT_MAGIC) -> bytes:
    """A payload with a valid checksum over *summary* and *inputs*."""
    body = _canonical(summary) + b"\n" + _canonical(inputs)
    return magic + b"%08x\n" % zlib.crc32(body) + body


def _materialise(data: bytes):
    """Decode *data* and read a heavy field, which re-runs the compile."""
    return decode_compilation_result(data).module


def test_artifact_is_magic_checksum_summary_and_heavy_json(compiled):
    """The heavy line is the inputs the heavy fields are re-run from; no
    trace, memory image or partition is stored."""
    _, result = compiled
    data = encode_compilation_result(result)
    assert data.startswith(ARTIFACT_MAGIC) and ARTIFACT_MAGIC == b"repro-artifact-v6\n"
    crc, body = data[len(ARTIFACT_MAGIC):].split(b"\n", 1)
    assert crc == b"%08x" % zlib.crc32(body)
    summary_line, inputs_line = body.split(b"\n")
    summary, inputs = json.loads(summary_line), json.loads(inputs_line)
    assert sorted(summary) == ["dswp", "name", "outputs", "system"]
    assert sorted(inputs) == ["config", "source", "structure"]
    assert inputs["source"] == result.source == get_workload("blowfish").source
    assert CompilerConfig.from_dict(inputs["config"]) == result.config == CompilerConfig()
    assert inputs["structure"]["crc"] == zlib.crc32(print_module(result.module).encode("utf-8"))
    assert sorted(inputs["structure"]["instructions"]) == sorted(result.module.functions)
    assert summary["outputs"] == result.outputs
    assert summary["dswp"] == result.dswp.summary()
    # Canonical form: re-dumping with sorted keys reproduces both lines.
    assert summary_line == _canonical(summary) and inputs_line == _canonical(inputs)
    assert _payload(summary, inputs) == data
    assert len(data) < len(result.source) + 8192


def test_module_text_roundtrips(compiled, roundtripped):
    _, result = compiled
    assert print_module(roundtripped.module) == print_module(result.module)


def test_summary_and_outputs_roundtrip(compiled, roundtripped):
    _, result = compiled
    assert roundtripped.name == result.name
    assert roundtripped.outputs == result.outputs
    assert roundtripped.return_value == result.return_value
    assert json.dumps(roundtripped.summary_dict(), sort_keys=True) == json.dumps(
        result.summary_dict(), sort_keys=True
    )


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


def test_decoded_result_drives_identical_resimulation(compiled, roundtripped):
    """The decisive test: downstream consumers can't tell the difference."""
    compiler, result = compiled
    for fraction in (0.1, 0.5, 0.9):
        fresh = compiler.resimulate_with_split(result, fraction)
        decoded = compiler.resimulate_with_split(roundtripped, fraction)
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
def test_thread_extraction_compile_round_trips_through_the_cache(name, tmp_path):
    """A compile with materialised thread extractions is stored with the
    codec: it re-encodes to the eager result's bytes, and its threads and
    queue map point into the decoded module."""
    cache = ArtifactCache(tmp_path)
    key = compile_key(get_workload(name).source, EXTRACTING)
    eager = cache.get_or_compute(
        key, lambda: worker.compute_compile(name, EXTRACTING), serializer="artifact"
    )
    assert cache._path(key, "artifact").is_file()
    lazy = cache.get(key)
    assert encode_compilation_result(lazy) == encode_compilation_result(eager)

    extractions = lazy.dswp.partitioning.extractions
    assert extractions and extractions.keys() == eager.dswp.partitioning.extractions.keys()
    for fn_name, extraction in extractions.items():
        assert extraction.threads
        for thread in extraction.threads:
            assert thread.function is lazy.module.get_function(thread.function.name)
            assert thread.source_function == fn_name
        source = set(lazy.module.get_function(fn_name).instructions())
        assert extraction.queue_map and all(v in source for v, _ in extraction.queue_map)
    # The decoded threads verify exactly as the extracted ones do.  (Some
    # extractions place a consume before a phi, which the verifier reports.)
    verdict = verify_module(eager.module, raise_on_error=False).errors
    assert verify_module(lazy.module, raise_on_error=False).errors == verdict


def test_cache_stores_artifact_entries(compiled, tmp_path):
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    path = cache.put("a" * 64, result, serializer="artifact")
    assert path is not None and path.suffix == ".art"
    loaded = cache.get("a" * 64)
    assert loaded is not None
    assert json.dumps(loaded.summary_dict(), sort_keys=True) == json.dumps(
        result.summary_dict(), sort_keys=True
    )
    assert print_module(loaded.module) == print_module(result.module)


def test_harness_run_stores_the_compile_artifact_with_the_codec(tmp_path):
    def harness():
        return EvaluationHarness(
            config=CompilerConfig(), benchmarks=["blowfish"], cache_dir=str(tmp_path)
        )

    cold = harness()
    cold.run("blowfish")
    serializer, data = cold.cache.backend.get_blob(cold._compile_key("blowfish"))
    assert serializer == "artifact" and data.startswith(ARTIFACT_MAGIC)
    # So a later run reads it back through the lazy codec, not pickle.
    warm = harness().run("blowfish").result
    assert "_load" in vars(warm)


# ---------------------------------------------------------------------------
# laziness and the checksum
# ---------------------------------------------------------------------------


def _count_heavy_decodes(monkeypatch):
    calls = []
    original = heavy_codec.decode_heavy

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(heavy_codec, "decode_heavy", counting)
    return calls


def test_decode_serves_the_summary_without_the_heavy_part(compiled, monkeypatch):
    _, result = compiled
    heavy = _count_heavy_decodes(monkeypatch)
    lazy = decode_compilation_result(encode_compilation_result(result))
    assert lazy.name == result.name
    assert lazy.outputs == result.outputs
    assert lazy.dswp_summary() == result.dswp_summary()
    assert lazy.summary_dict() == result.summary_dict()
    assert lazy.speedup_vs_software == result.speedup_vs_software
    assert len(heavy) == 0
    outputs = lazy.outputs
    assert lazy.execution.outputs is outputs  # one list before and after
    assert len(heavy) == 1
    for field in ("module", "profile", "dswp", "legup"):
        assert getattr(lazy, field) is not None
    assert len(heavy) == 1  # the first access built all five fields
    assert lazy.dswp_summary() == result.dswp_summary()
    with pytest.raises(AttributeError):
        lazy.no_such_field


@pytest.fixture(scope="module")
def small_payload():
    result = TwillCompiler(CompilerConfig()).compile_and_simulate(SMALL_PROGRAM, name="small")
    return encode_compilation_result(result)


@pytest.mark.parametrize("mask", [0x01, 0xFF])
def test_every_flipped_byte_fails_the_checksum(small_payload, mask):
    assert decode_compilation_result(small_payload).outputs
    assert small_payload.count(b"\n") == 3  # magic, checksum, summary, inputs
    for at in range(len(small_payload)):
        flipped = bytearray(small_payload)
        flipped[at] ^= mask
        with pytest.raises(ArtifactCodecError):
            decode_compilation_result(bytes(flipped))


def test_a_flipped_byte_in_the_cache_is_a_corrupt_miss_and_recomputed(compiled, tmp_path):
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    key = "b" * 64
    path = cache.put(key, result, serializer="artifact")
    data = bytearray(path.read_bytes())
    at = data.index(b'"crc":') + len(b'"crc":')  # a digit inside the inputs
    data[at] ^= 0x01
    path.write_bytes(bytes(data))
    assert cache.get(key) is None  # a corrupt entry reads as a miss...
    assert not path.exists()  # ...and is deleted so the recompute replaces it
    path.write_bytes(bytes(data))
    computed = []

    def compute():
        computed.append(1)
        return result

    assert cache.get_or_compute(key, compute, serializer="artifact") is result
    assert computed == [1]
    assert cache.get(key).summary_dict() == result.summary_dict()


def test_a_v3_payload_is_a_bad_magic_miss(compiled, tmp_path):
    """v3 stored the arrays base64-encoded inside the heavy JSON; such an
    entry is never decoded, even with a valid checksum."""
    _, result = compiled
    summary, inputs = _parts(encode_compilation_result(result))
    v3 = _payload(summary, inputs, magic=b"repro-artifact-v3\n")
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(v3)
    cache = ArtifactCache(tmp_path)
    cache.backend.put_blob("e" * 64, "artifact", v3)
    assert cache.get("e" * 64) is None
    assert not cache._path("e" * 64, "artifact").exists()


def _assert_recomputed_once(cache, key, result):
    computed = []

    def compute():
        computed.append(1)
        return result

    assert cache.get_or_compute(key, compute, serializer="artifact") is result
    assert cache.get_or_compute(key, compute, serializer="artifact").name == result.name
    assert computed == [1]
    assert encode_compilation_result(cache.get(key)) == encode_compilation_result(result)


def test_a_v4_payload_is_a_bad_magic_miss_and_recomputed_once(compiled, tmp_path):
    """v4 stored the module, profile and LegUp result; such an entry is
    never decoded, even with a valid checksum, and is recomputed once."""
    _, result = compiled
    summary, _ = _parts(encode_compilation_result(result))
    heavy = {"module": {"functions": []}, "profile": {"counts": []}, "legup": {"schedules": {}}}
    v4 = _payload(summary, heavy, magic=b"repro-artifact-v4\n") + b"\n" + zlib.compress(b"")
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(v4)
    cache = ArtifactCache(tmp_path)
    key = "e" * 64
    cache.backend.put_blob(key, "artifact", v4)
    _assert_recomputed_once(cache, key, result)


def test_a_v5_payload_is_a_bad_magic_miss_and_recomputed_once(compiled, tmp_path):
    """v5 stored the execution and the DSWP partitions in its heavy line and
    the trace and memory image in a binary tail; such an entry is never
    decoded, even with a valid checksum, and is recomputed once."""
    _, result = compiled
    summary, inputs = _parts(encode_compilation_result(result))
    heavy = dict(inputs, execution={"steps": 1, "trace": None}, dswp={"functions": {}})
    v5 = _payload(summary, heavy, magic=b"repro-artifact-v5\n") + b"\n" + zlib.compress(b"")
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(v5)
    # The same lines under the current magic are no valid payload either.
    with pytest.raises(ArtifactCodecError):
        _materialise(ARTIFACT_MAGIC + v5[len(b"repro-artifact-v5\n"):])
    cache = ArtifactCache(tmp_path)
    key = "e" * 64
    cache.backend.put_blob(key, "artifact", v5)
    _assert_recomputed_once(cache, key, result)


def _edit_last_digit(source: str) -> str:
    """*source* with its last digit raised by one (mod 10): one character."""
    at = max(i for i, c in enumerate(source) if c.isdigit())
    return source[:at] + str((int(source[at]) + 1) % 10) + source[at + 1:]


def _tamper_digest(heavy):
    heavy["structure"]["crc"] ^= 1


def _first_function_count(heavy):
    counts = heavy["structure"]["instructions"]
    counts[min(counts)] += 1


#: Edits of the stored inputs and digest, under a valid checksum, that the
#: rebuild must refuse: a one-character source edit (``digit edit``), a
#: source that does not compile, and a config that builds another module.
INPUT_MUTATIONS = {
    "tampered digest": _tamper_digest,
    "instruction count": _first_function_count,
    "digit edit": lambda h: h.update(source=_edit_last_digit(h["source"])),
    "bad source": lambda h: h.update(source=h["source"].replace("{", "(", 1)),
    "inline config": lambda h: h["config"].update(inline_threshold=0),
    "missing field": lambda h: h.pop("structure"),
}


def _mutated(result, mutate) -> bytes:
    summary, inputs = _parts(encode_compilation_result(result))
    mutate(inputs)
    return _payload(summary, inputs)


def _bump_first_output(summary):
    summary["outputs"][0] += 1


def _bump_queue_count(summary):
    summary["dswp"]["queues"] += 1


#: Edits of the stored summary, under a valid checksum, that the re-run must
#: refuse: functional outputs or a DSWP summary it does not reproduce (as a
#: run with ``args`` or a split re-simulation would store).
SUMMARY_MUTATIONS = {
    "outputs": _bump_first_output,
    "dswp summary": _bump_queue_count,
}


def _summary_mutated(result, mutate) -> bytes:
    summary, inputs = _parts(encode_compilation_result(result))
    mutate(summary)
    return _payload(summary, inputs)


def _bad_payload(result, mutation: str) -> bytes:
    if mutation in SUMMARY_MUTATIONS:
        return _summary_mutated(result, SUMMARY_MUTATIONS[mutation])
    return _mutated(result, INPUT_MUTATIONS[mutation])


@pytest.mark.parametrize("mutation", sorted(INPUT_MUTATIONS))
def test_checksum_valid_bad_inputs_raise_on_first_access(compiled, mutation):
    data = _mutated(compiled[1], INPUT_MUTATIONS[mutation])
    lazy = decode_compilation_result(data)  # the checksum holds
    assert lazy.outputs == compiled[1].outputs
    for _ in range(2):  # and every later access raises too: no object ever
        with pytest.raises(ArtifactCodecError):
            lazy.module
    assert "_load" in vars(lazy)
    assert issubclass(ArtifactCodecError, ReproError)


@pytest.mark.parametrize("mutation", sorted(SUMMARY_MUTATIONS))
def test_a_summary_the_rerun_does_not_reproduce_raises_on_first_access(compiled, mutation):
    _, result = compiled
    lazy = decode_compilation_result(_summary_mutated(result, SUMMARY_MUTATIONS[mutation]))
    assert lazy.name == result.name  # the checksum holds and the summary decodes
    for _ in range(2):
        with pytest.raises(ArtifactCodecError, match="differs from the stored summary"):
            lazy.execution
    assert "_load" in vars(lazy)


def test_a_split_resimulation_fails_its_first_heavy_read(compiled):
    """A split re-simulation partitions at another target than its config
    names, so the re-run cannot give its partitions back: its DSWP summary
    differs, and the first heavy read says so."""
    compiler, result = compiled
    split = compiler.resimulate_with_split(result, 0.9)
    assert split.dswp_summary() != result.dswp_summary()
    with pytest.raises(ArtifactCodecError, match="differs from the stored summary"):
        _materialise(encode_compilation_result(split))


def test_every_one_digit_source_edit_is_refused(small_payload):
    """Each digit of the small program is a loop bound, a constant or an
    array size, so each one-digit edit of the stored source compiles to
    another module (or none), and the printed-module digest refuses it."""
    summary, inputs = _parts(small_payload)
    edits = [i for i, c in enumerate(SMALL_PROGRAM) if c.isdigit()]
    assert len(edits) > 10
    for at in edits:
        source = SMALL_PROGRAM[:at] + str((int(SMALL_PROGRAM[at]) + 1) % 10) + SMALL_PROGRAM[at + 1:]
        lazy = decode_compilation_result(_payload(summary, dict(inputs, source=source)))
        with pytest.raises(ArtifactCodecError):
            lazy.module


@pytest.mark.parametrize("mutation", ["tampered digest", "digit edit", "outputs", "dswp summary"])
def test_a_checksum_valid_bad_rebuild_is_a_late_miss_and_recomputed_once(
    compiled, tmp_path, mutation
):
    """The rebuild fails only on the first heavy read, after the cache has
    served the entry: the entry is then dropped and recomputed once, and
    the result takes the recomputed heavy fields."""
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    key = "f" * 64
    cache.backend.put_blob(key, "artifact", _bad_payload(result, mutation))
    computed = []

    def compute():
        computed.append(1)
        return result

    lazy = cache.get_or_compute(key, compute, serializer="artifact")
    assert lazy is not result and computed == []  # a hit: only the summary was decoded
    assert lazy.module is result.module  # the failed rebuild recomputed it
    assert lazy.execution is result.execution and "_load" not in vars(lazy)
    assert computed == [1]
    assert cache.get_or_compute(key, compute, serializer="artifact").module is not None
    assert computed == [1]  # the recomputed entry is a hit that rebuilds
    assert encode_compilation_result(cache.get(key)) == encode_compilation_result(result)


# ---------------------------------------------------------------------------
# the rebuild oracle: a lazy result against the eager one
# ---------------------------------------------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _sources():
    from repro.workloads import all_workloads

    sources = [(w.name, w.source) for w in all_workloads()]
    for name in sorted(os.listdir(CORPUS)):
        if name.endswith(".c"):
            with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
                sources.append((name[:-2], fh.read()))
    return sources


CONFIGS = {"default": CompilerConfig(), "extracting": EXTRACTING}


@pytest.fixture(scope="module")
def compiled_payload():
    """(eager result, its payload) of a builtin workload or corpus file
    under one of :data:`CONFIGS`, each compiled once per module."""
    sources = dict(_sources())
    memo = {}

    def get(config: str, name: str):
        if (config, name) not in memo:
            result = TwillCompiler(CONFIGS[config]).compile_and_simulate(sources[name], name=name)
            memo[config, name] = result, encode_compilation_result(result)
        return memo[config, name]

    return get


@pytest.fixture(scope="module")
def eager_payloads(compiled_payload):
    """(eager result, its payload) of every builtin workload and corpus file."""
    return {name: compiled_payload("default", name) for name, _ in _sources()}


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
        "inputs": (result.source, result.config),
    }


def _pdg_shapes(result):
    """Per partitioned function, by instruction number: the PDG's edges as
    read through its adjacency, and the SCCs recomputed from them."""
    number = _numbering(result.module)
    shapes = {}
    for fn_name, fp in result.dswp.partitioning.functions.items():
        pdg = fp.pdg
        edges = {
            (number[e.tail], number[e.head], e.kind)
            for node in pdg.nodes
            for e in pdg.successors(node)
        }
        sccs = [
            (sorted(number[i] for i in scc.instructions), sorted(scc.successors))
            for scc in condense(pdg)
        ]
        shapes[fn_name] = edges, sccs
    return shapes


@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_v4_round_trip_keeps_trace_columns_and_memory_image(eager_payloads, name):
    """Every trace column and the memory image of a decoded result equal
    the recorded ones, and re-encoding gives the payload back byte for
    byte.  (v4 was the first format to keep them as arrays; since v6 the
    heavy read re-runs them.)"""
    eager, data = eager_payloads[name]
    lazy = decode_compilation_result(data)
    recorded, decoded = eager.execution.trace, lazy.execution.trace
    assert decoded is not recorded
    for column in COLUMNS:
        assert getattr(decoded, column) == getattr(recorded, column), column
    numbers, decoded_numbers = _numbering(eager.module), _numbering(lazy.module)
    assert [decoded_numbers[i] for i in decoded.instructions] == [
        numbers[i] for i in recorded.instructions
    ]
    assert decoded.functions == recorded.functions
    assert decoded.truncated == recorded.truncated
    memory, image = eager.execution.memory, lazy.execution.memory
    assert image._bytes == memory._bytes
    for field in ("global_addresses", "global_sizes", "_global_top", "_stack_top",
                  "load_count", "store_count"):
        assert getattr(image, field) == getattr(memory, field), field
    assert encode_compilation_result(lazy) == data


@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_pickle_eq_and_replace_of_a_lazy_result_equal_the_eager_result(eager_payloads, name):
    """:func:`_heavy_shape` is the equality oracle: module, execution, trace,
    memory, profile, partitions, queues and LegUp.  Re-encoding gives the
    payload back.  A pickled eager result also keeps every function's PDG
    adjacency and SCC shape."""
    eager, data = eager_payloads[name]
    expected = _heavy_shape(eager)
    decoded = decode_compilation_result(data)
    assert _heavy_shape(decoded) == expected
    assert encode_compilation_result(decoded) == data

    pickled_eager = pickle.loads(pickle.dumps(eager))
    assert encode_compilation_result(pickled_eager) == data
    assert _heavy_shape(pickled_eager) == expected
    shapes = _pdg_shapes(eager)
    for fn_name, (edges, _) in shapes.items():
        assert len(edges) == len(eager.dswp.partitioning.functions[fn_name].pdg.edges)
    assert _pdg_shapes(pickled_eager) == shapes

    pickled = pickle.loads(pickle.dumps(decode_compilation_result(data)))
    assert "_load" in vars(pickled)  # a pickle is the payload, decoded lazily
    assert encode_compilation_result(pickled) == data

    lazy = decode_compilation_result(data)
    replaced = dataclasses.replace(lazy)
    assert "_load" not in vars(lazy)
    assert _heavy_shape(replaced) == expected

    lazy = decode_compilation_result(data)
    same = lazy
    assert lazy == same  # == reads every field, so it builds the heavy part
    assert "_load" not in vars(lazy)
    assert lazy == dataclasses.replace(lazy)
    assert lazy.summary_dict() == eager.summary_dict()
    assert lazy.dswp_summary() == eager.dswp_summary()
    assert lazy.outputs == eager.outputs


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", [n for n, _ in _sources()])
def test_rebuilt_module_prints_as_the_compiled_one(compiled_payload, config, name):
    """The rebuild oracle: the heavy read re-runs the compile from the
    stored source and config, and its module prints exactly as the compiled
    one; its trace columns, memory image, profile, DSWP partitions and
    queues, extracted threads and LegUp result equal the compile's; and the
    result re-encodes to the same bytes."""
    eager, data = compiled_payload(config, name)
    lazy = decode_compilation_result(data)
    assert print_module(lazy.module) == print_module(eager.module)
    assert lazy.dswp.partitioning.extractions.keys() == eager.dswp.partitioning.extractions.keys()
    assert _heavy_shape(lazy) == _heavy_shape(eager)
    assert encode_compilation_result(lazy) == data


@pytest.mark.parametrize("name", ["adpcm", "aes", "jpeg"])
def test_extracted_results_pickle_at_the_default_recursion_limit(compiled_payload, name):
    """A pickle holds the flat payload, not the IR graph, so the deepest
    extracted modules pickle without raising the recursion limit."""
    eager, data = compiled_payload("extracting", name)
    assert sys.getrecursionlimit() == 1000
    again = pickle.loads(pickle.dumps(eager))
    assert encode_compilation_result(again) == data
    assert print_module(again.module) == print_module(eager.module)
