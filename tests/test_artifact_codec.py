"""Round-trip tests for the structured compile-artifact codec.

``repro.eval.heavy_codec`` serialises a :class:`CompilationResult` into a
checksummed summary line, one canonical heavy JSON line and a binary tail
of byte-shuffled, deflated arrays (behind a magic header) instead of a
pickle — loading it executes no code.  The heavy line keeps the compile's
source and config, a structural digest of the module, the execution and
the DSWP partitions; the module, profile, extracted threads and LegUp
result are rebuilt from the source on the first heavy read.
The contract is stronger than "fields survive": a *decoded* result must
drive every downstream consumer (split re-simulation, partitioned timing
replay, report rows) to **byte-identical** output, because the cache
serves decoded artifacts interchangeably with freshly-computed ones.  The
rebuild oracle is the printed IR: a rebuilt module prints exactly as the
compiled one.  A decoded result is lazy: its heavy part is decoded on
first access, and a malformed one, or a rebuild that does not match the
stored digest, raises then.
"""

import dataclasses
import json
import os
import pickle
import sys
import zlib
from array import array
from itertools import accumulate

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval import heavy_codec
from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, decode_compilation_result
from repro.eval.heavy_codec import (
    _TRACE_COLUMNS,
    _dec_trace,
    _deflate,
    _enc_trace,
    _inflate,
    _instruction_index,
    _instruction_list,
    _trace_shapes,
    decode_dswp_result,
    encode_compilation_result,
    encode_dswp_result,
)
from repro.eval import worker
from repro.eval.cache import ArtifactCache, compile_key
from repro.eval.harness import EvaluationHarness
from repro.ir import verify_module
from repro.ir.printer import print_module
from repro.pdg.scc import condense
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.system import repartition
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
    """(summary line, heavy document, binary tail) of a payload."""
    summary, heavy, tail = data[len(ARTIFACT_MAGIC) + 9:].split(b"\n", 2)
    return summary, json.loads(heavy), tail


def _payload(summary: bytes, heavy, tail: bytes) -> bytes:
    """A payload with a valid checksum over *summary*, *heavy* and *tail*."""
    body = summary + b"\n" + _canonical(heavy) + b"\n" + tail
    return ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body


def _materialise(data: bytes):
    """Decode *data* and read a heavy field, which decodes the heavy part."""
    return decode_compilation_result(data).module


def test_artifact_is_magic_checksum_summary_and_heavy_json(compiled):
    _, result = compiled
    data = encode_compilation_result(result)
    assert data.startswith(ARTIFACT_MAGIC) and ARTIFACT_MAGIC == b"repro-artifact-v5\n"
    crc, body = data[len(ARTIFACT_MAGIC):].split(b"\n", 1)
    assert crc == b"%08x" % zlib.crc32(body)
    summary_line, heavy_line, tail = body.split(b"\n", 2)
    summary, heavy = json.loads(summary_line), json.loads(heavy_line)
    assert sorted(summary) == ["dswp", "name", "outputs", "system"]
    assert sorted(heavy) == ["config", "dswp", "execution", "source", "structure"]
    # The inputs the module, profile and LegUp result are rebuilt from.
    assert heavy["source"] == result.source == get_workload("blowfish").source
    assert CompilerConfig.from_dict(heavy["config"]) == result.config == CompilerConfig()
    assert heavy["structure"]["crc"] == zlib.crc32(print_module(result.module).encode("utf-8"))
    assert sorted(heavy["structure"]["instructions"]) == sorted(result.module.functions)
    assert "extractions" not in heavy["dswp"]
    # outputs and system live in the summary only.
    assert "outputs" not in heavy["execution"]
    assert summary["outputs"] == result.outputs
    assert summary["dswp"] == result.dswp.summary()
    # Canonical form: re-dumping with sorted keys reproduces both lines.
    assert summary_line == _canonical(summary) and heavy_line == _canonical(heavy)
    # The arrays are in the tail, one zlib stream; the heavy line keeps
    # only their lengths and the scalars.
    assert zlib.decompress(tail)
    assert sorted(heavy["execution"]["trace"]) == ["functions", "lengths", "truncated"]
    assert sorted(heavy["execution"]["memory"]) == [
        "global_addresses", "global_sizes", "global_top", "length", "loads", "stack_top", "stores"
    ]
    assert heavy["execution"]["memory"]["length"] == len(result.execution.memory._bytes)
    assert _payload(summary_line, heavy, tail) == data


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
# thread extractions and the DSWP-stage document
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


def _stage_document(result, sw_fraction=0.3):
    dswp = repartition(result.module, result.profile, CompilerConfig(), sw_fraction)
    return json.loads(json.dumps(encode_dswp_result(dswp))), dswp


def test_dswp_document_decodes_onto_the_callers_instructions(compiled):
    _, result = compiled
    document, fresh = _stage_document(result)
    decoded = decode_dswp_result(document, result.module, result.profile)
    assert encode_dswp_result(decoded) == document
    assert decoded.summary() == fresh.summary()
    for fn_name, fp in decoded.partitioning.functions.items():
        original = fresh.partitioning.functions[fn_name]
        for partition, expected in zip(fp.partitions, original.partitions):
            assert all(a is b for a, b in zip(partition.instructions, expected.instructions))


def _first_partition(document):
    return next(iter(document["dswp"]["functions"].values()))["partitions"][0]


def _first_queue(document):
    return next(q for q in document["dswp"]["queues"].values() if q["queues"])["queues"][0]


def _swap_partition_of_a_queue_value(document):
    queue = _first_queue(document)
    queue["pp"] = queue["cp"]


def _duplicate_an_instruction(document):
    insts = _first_partition(document)["insts"]
    insts[0] = insts[-1]


DSWP_DOCUMENT_DAMAGE = {
    "instruction count": lambda d: d.update(instructions=d["instructions"] + 1),
    "negative number": lambda d: _first_partition(d)["insts"].__setitem__(0, -1),
    "number out of range": lambda d: _first_partition(d)["insts"].__setitem__(0, 10**6),
    "number not an int": lambda d: _first_partition(d)["insts"].__setitem__(0, "7"),
    "instruction twice": _duplicate_an_instruction,
    "queue end elsewhere": _swap_partition_of_a_queue_value,
    "missing section": lambda d: d["dswp"].pop("queues"),
    "unknown kind": lambda d: _first_partition(d).update(kind="fpga"),
}


@pytest.mark.parametrize("damage", sorted(DSWP_DOCUMENT_DAMAGE))
def test_malformed_dswp_document_raises_codec_error(compiled, damage):
    """Damage under a valid checksum (a writer bug) is caught by the checks
    on instruction numbers, partitions and queue ends."""
    _, result = compiled
    document, _ = _stage_document(result)
    DSWP_DOCUMENT_DAMAGE[damage](document)
    document["crc"] = zlib.crc32(_canonical(document["dswp"]))
    with pytest.raises(ArtifactCodecError):
        decode_dswp_result(document, result.module, result.profile)


def test_damaged_dswp_document_fails_its_checksum(compiled):
    """A queue end moved to another instruction of the same partition passes
    every structural check; the checksum still refuses it."""
    _, result = compiled
    document, _ = _stage_document(result)
    function = next(f for f, q in document["dswp"]["queues"].items() if q["deps"])
    dep = document["dswp"]["queues"][function]["deps"][0]
    partition = next(
        p for p in document["dswp"]["functions"][function]["partitions"]
        if p["index"] == dep["pp"]
    )
    dep["value"] = next(i for i in partition["insts"] if i != dep["value"])
    with pytest.raises(ArtifactCodecError, match="checksum"):
        decode_dswp_result(document, result.module, result.profile)


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


def _scc_shape(components):
    return [
        (c.index, c.sw_weight, c.hw_weight, sorted(c.predecessors), sorted(c.successors),
         [i.name for i in c.instructions])
        for c in components
    ]


def test_decoded_partitioning_builds_its_pdg_on_first_read(compiled):
    _, result = compiled
    lazy = decode_compilation_result(encode_compilation_result(result))
    for name, decoded in lazy.dswp.partitioning.functions.items():
        assert "pdg" not in vars(decoded) and "components" not in vars(decoded)
        eager = result.dswp.partitioning.functions[name]
        assert _scc_shape(decoded.components) == _scc_shape(eager.components)
        assert sorted(
            (e.tail.name, e.head.name, e.kind.value) for e in decoded.pdg.edges
        ) == sorted((e.tail.name, e.head.name, e.kind.value) for e in eager.pdg.edges)
        # A pickle before the first read rebuilds them the same way afterwards.
        again = pickle.loads(pickle.dumps(lazy.dswp.partitioning.functions[name]))
        assert _scc_shape(again.components) == _scc_shape(eager.components)


@pytest.fixture(scope="module")
def small_payload():
    result = TwillCompiler(CompilerConfig()).compile_and_simulate(SMALL_PROGRAM, name="small")
    return encode_compilation_result(result)


@pytest.mark.parametrize("mask", [0x01, 0xFF])
def test_every_flipped_byte_fails_the_checksum(small_payload, mask):
    assert decode_compilation_result(small_payload).outputs
    assert _parts(small_payload)[2]  # the flips cover the binary tail too
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
    at = data.index(b'"steps":') + len(b'"steps":')  # a digit inside the heavy part
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


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_flipped_byte_in_the_tail_is_a_checksum_miss_and_recomputed_once(
    compiled, tmp_path, where
):
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    key = "c" * 64
    path = cache.put(key, result, serializer="artifact")
    data = bytearray(path.read_bytes())
    tail = len(data) - len(_parts(bytes(data))[2])
    at = {"first": tail, "middle": (tail + len(data)) // 2, "last": len(data) - 1}[where]
    data[at] ^= 0x01
    with pytest.raises(ArtifactCodecError, match="checksum"):
        decode_compilation_result(bytes(data))
    path.write_bytes(bytes(data))
    computed = []

    def compute():
        computed.append(1)
        return result

    assert cache.get_or_compute(key, compute, serializer="artifact") is result
    assert cache.get_or_compute(key, compute, serializer="artifact").name == result.name
    assert computed == [1]  # recomputed once, then a hit
    assert encode_compilation_result(cache.get(key)) == encode_compilation_result(result)


def test_a_v3_payload_is_a_bad_magic_miss(compiled, tmp_path):
    """v3 stored the arrays base64-encoded inside the heavy JSON; such an
    entry is never decoded, even with a valid checksum."""
    _, result = compiled
    summary, heavy, _ = _parts(encode_compilation_result(result))
    body = summary + b"\n" + _canonical(heavy)
    v3 = b"repro-artifact-v3\n" + b"%08x\n" % zlib.crc32(body) + body
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(v3)
    cache = ArtifactCache(tmp_path)
    cache.backend.put_blob("e" * 64, "artifact", v3)
    assert cache.get("e" * 64) is None
    assert not cache._path("e" * 64, "artifact").exists()


def test_a_v4_payload_is_a_bad_magic_miss_and_recomputed_once(compiled, tmp_path):
    """v4 stored the module, profile and LegUp result; such an entry is
    never decoded, even with a valid checksum, and is recomputed once."""
    _, result = compiled
    summary, heavy, tail = _parts(encode_compilation_result(result))
    for field in ("source", "config", "structure"):
        heavy.pop(field)
    heavy.update(module={"functions": []}, profile={"counts": []}, legup={"schedules": {}})
    body = summary + b"\n" + _canonical(heavy) + b"\n" + tail
    v4 = b"repro-artifact-v4\n" + b"%08x\n" % zlib.crc32(body) + body
    with pytest.raises(ArtifactCodecError, match="bad magic"):
        decode_compilation_result(v4)
    cache = ArtifactCache(tmp_path)
    key = "e" * 64
    cache.backend.put_blob(key, "artifact", v4)
    computed = []

    def compute():
        computed.append(1)
        return result

    assert cache.get_or_compute(key, compute, serializer="artifact") is result
    assert cache.get_or_compute(key, compute, serializer="artifact").name == result.name
    assert computed == [1]
    assert encode_compilation_result(cache.get(key)) == encode_compilation_result(result)


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
    summary, heavy, tail = _parts(encode_compilation_result(result))
    mutate(heavy)
    return _payload(summary, heavy, tail)


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


def test_every_one_digit_source_edit_is_refused(small_payload):
    """Each digit of the small program is a loop bound, a constant or an
    array size, so each one-digit edit of the stored source compiles to
    another module (or none), and the printed-module digest refuses it."""
    summary, heavy, tail = _parts(small_payload)
    edits = [i for i, c in enumerate(SMALL_PROGRAM) if c.isdigit()]
    assert len(edits) > 10
    for at in edits:
        source = SMALL_PROGRAM[:at] + str((int(SMALL_PROGRAM[at]) + 1) % 10) + SMALL_PROGRAM[at + 1:]
        lazy = decode_compilation_result(_payload(summary, dict(heavy, source=source), tail))
        with pytest.raises(ArtifactCodecError):
            lazy.module


@pytest.mark.parametrize("mutation", ["tampered digest", "digit edit"])
def test_a_checksum_valid_bad_rebuild_is_a_late_miss_and_recomputed_once(
    compiled, tmp_path, mutation
):
    """The rebuild fails only on the first heavy read, after the cache has
    served the entry: the entry is then dropped and recomputed once, and
    the result takes the recomputed heavy fields."""
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    key = "f" * 64
    cache.backend.put_blob(key, "artifact", _mutated(result, INPUT_MUTATIONS[mutation]))
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


def test_checksum_valid_bad_trace_in_the_cache_raises_on_first_access(compiled, tmp_path):
    document = _trace_document(compiled)
    data = _rewrite_columns(document, MUTATIONS["dep on a later event"])
    cache = ArtifactCache(tmp_path)
    cache.backend.put_blob("d" * 64, "artifact", data)
    lazy = cache.get("d" * 64)  # a hit: only the summary was decoded
    assert lazy.summary_dict() == compiled[1].summary_dict()
    with pytest.raises(ArtifactCodecError, match="trace block"):
        lazy.execution


# ---------------------------------------------------------------------------
# the trace block
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


@pytest.mark.parametrize("name,source", _sources(), ids=[n for n, _ in _sources()])
def test_trace_block_roundtrips_event_for_event(name, source):
    from repro.interp import run_module

    module = TwillCompiler(CompilerConfig()).compile_module(source, name)
    trace = run_module(module, record_trace=True).trace
    arrays = []
    document = json.loads(json.dumps(_enc_trace(trace, _instruction_index(module), arrays)))
    columns = _inflate(_deflate(arrays), _trace_shapes(document))
    decoded = _dec_trace(document, iter(columns), _instruction_list(module))
    assert len(decoded) == len(trace) > 0
    assert decoded.events == trace.events
    assert decoded.block_starts == trace.block_starts
    assert decoded.truncated == trace.truncated
    assert decoded.instruction_counts() == trace.instruction_counts()


def test_tail_round_trips_empty_and_one_byte_arrays():
    """Empty arrays take no bytes of the stream, wherever they stand."""
    arrays = [array("q"), array("B", b"xyz"), array("i"), array("q", [1, 2**40, -3]), array("B")]
    tail = _deflate(arrays)
    assert _inflate(tail, [(a.typecode, len(a)) for a in arrays]) == arrays
    assert _inflate(_deflate([array("q"), array("B")]), [("q", 0), ("B", 0)]) == [
        array("q"), array("B")
    ]


def _trace_document(compiled):
    """The heavy document of the blowfish artifact, plus its summary line
    under ``"summary"`` and its binary tail under ``"tail"`` for
    :func:`_encode_document`."""
    _, result = compiled
    summary, heavy, tail = _parts(encode_compilation_result(result))
    return {"summary": summary, "tail": tail, **heavy}


def _encode_document(document) -> bytes:
    heavy = dict(document)
    return _payload(heavy.pop("summary"), heavy, heavy.pop("tail"))


def _tail_layout(document):
    """(name, typecode, length) of each array in the tail, in tail order."""
    execution = document["execution"]
    memory = execution["memory"]["length"]
    layout = [
        (name, typecode, length)
        for (name, typecode), length in zip(_TRACE_COLUMNS, execution["trace"]["lengths"])
    ]
    return layout + [("memory gaps", "q", memory), ("memory bytes", "B", memory)]


def _unpack_tail(document):
    """The tail's arrays by name: inflate it, then put each column's byte
    planes back together."""
    raw = zlib.decompress(document["tail"])
    arrays = {}
    at = 0
    for name, typecode, length in _tail_layout(document):
        column = array(typecode)
        k = column.itemsize
        whole = bytearray(length * k)
        for j in range(k):
            whole[j::k] = raw[at + j * length:at + (j + 1) * length]
        column.frombytes(bytes(whole))
        arrays[name] = column
        at += length * k
    assert at == len(raw)
    return arrays


def _pack_tail(document, arrays):
    """Store *arrays* as the tail, byte plane by byte plane, and their
    lengths in the heavy document."""
    execution = document["execution"]
    execution["trace"]["lengths"] = [len(arrays[name]) for name, _ in _TRACE_COLUMNS]
    execution["memory"]["length"] = len(arrays["memory bytes"])
    planes = []
    for name, _, _ in _tail_layout(document):
        data = arrays[name].tobytes()
        k = arrays[name].itemsize
        planes.extend(data[j::k] for j in range(k))
    document["tail"] = zlib.compress(b"".join(planes), 1)


def _rewrite_columns(document, mutate):
    """Unpack the tail's arrays, let *mutate* edit them, re-pack them."""
    arrays = _unpack_tail(document)
    mutate(arrays)
    _pack_tail(document, arrays)
    return _encode_document(document)


def _set_tail(document, tail: bytes):
    document["tail"] = tail
    return _encode_document(document)


def test_trace_block_is_compressed_array_bytes(compiled):
    """The tail is one zlib stream of byte planes: byte 0 of every item of a
    column, then byte 1, and so on, column after column."""
    _, result = compiled
    document = _trace_document(compiled)
    trace = document["execution"]["trace"]
    assert sorted(trace) == ["functions", "lengths", "truncated"]
    raw = zlib.decompress(document["tail"])
    assert len(raw) == sum(length * array(t).itemsize for _, t, length in _tail_layout(document))
    recorded = result.execution.trace
    at = 4 * (trace["lengths"][0] + trace["lengths"][1])  # after static and static_fn
    inst = recorded.inst
    assert raw[at:at + len(inst)] == bytes(i & 0xFF for i in inst)
    assert raw[at + len(inst):at + 2 * len(inst)] == bytes((i >> 8) & 0xFF for i in inst)
    arrays = _unpack_tail(document)
    for name, _ in _TRACE_COLUMNS[2:]:
        assert arrays[name] == getattr(recorded, name)
    memory = result.execution.memory._bytes
    addresses = list(accumulate(arrays["memory gaps"]))
    assert addresses == sorted(memory)
    assert list(arrays["memory bytes"]) == [memory[a] for a in addresses]
    # And an untouched re-pack decodes to the same trace.
    decoded = decode_compilation_result(_rewrite_columns(document, lambda arrays: None))
    assert len(decoded.execution.trace) == len(recorded)


def _bad_tails(document):
    tail = document["tail"]
    raw = zlib.decompress(tail)
    flipped = bytearray(tail)
    flipped[len(flipped) // 2] ^= 0xFF
    return {
        "truncated": tail[: len(tail) // 2],
        "corrupted": bytes(flipped),
        "oversized": zlib.compress(raw + b"\0" * 8, 1),
        "undersized": zlib.compress(raw[:-4], 1),
        "trailing bytes": tail + b"\0",
        "empty": b"",
    }


@pytest.mark.parametrize(
    "kind", ["truncated", "corrupted", "oversized", "undersized", "trailing bytes", "empty"]
)
def test_damaged_trace_block_raises_codec_error(compiled, kind):
    """Under a valid checksum, a tail that ends early, inflates past its
    recorded lengths, runs on after its stream or is damaged raises on the
    first heavy read; the summary still decodes."""
    document = _trace_document(compiled)
    lazy = decode_compilation_result(_set_tail(document, _bad_tails(document)[kind]))
    assert lazy.outputs == compiled[1].outputs
    with pytest.raises(ArtifactCodecError, match="artifact tail"):
        lazy.module


def test_tail_that_is_not_a_zlib_stream_raises_codec_error(compiled):
    document = _trace_document(compiled)
    with pytest.raises(ArtifactCodecError, match="artifact tail"):
        _materialise(_set_tail(document, b"not*zlib!"))


def test_heavy_part_without_a_tail_raises_codec_error(compiled):
    summary, heavy, _ = _parts(encode_compilation_result(compiled[1]))
    body = summary + b"\n" + _canonical(heavy)
    data = ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body
    with pytest.raises(ArtifactCodecError, match="no binary tail"):
        _materialise(data)


def test_memory_image_with_a_repeated_address_raises_codec_error(compiled):
    def repeat_an_address(arrays):
        arrays["memory gaps"][1] = 0

    document = _trace_document(compiled)
    with pytest.raises(ArtifactCodecError, match="memory image"):
        _materialise(_rewrite_columns(document, repeat_an_address))


def _dep_at(distance):
    """Point the first dep of the first event with deps *distance* events on."""

    def mutate(columns):
        offsets = columns["dep_offsets"]
        i = next(i for i in range(len(offsets) - 1) if offsets[i + 1] > offsets[i])
        columns["deps"][offsets[i]] = i + distance

    return mutate


def _future_mem_dep(columns):
    i = next(i for i, m in enumerate(columns["mem_dep"]) if m >= 0)
    columns["mem_dep"][i] = i + 1


MUTATIONS = {
    "one column shorter": lambda c: c["mem_dep"].pop(),
    "offsets longer than the events": lambda c: c["dep_offsets"].append(len(c["deps"])),
    "offsets past the deps": lambda c: c["deps"].pop(),
    "instruction number out of range": lambda c: c["inst"].__setitem__(0, len(c["static"])),
    "negative instruction number": lambda c: c["inst"].__setitem__(0, -1),
    "static instruction out of range": lambda c: c["static"].__setitem__(0, 10**6),
    "function number out of range": lambda c: c["static_fn"].__setitem__(0, 99),
    "dep on its own event": _dep_at(0),
    "dep on a later event": _dep_at(1),
    "negative dep": lambda c: c["deps"].__setitem__(0, -1),
    "memory dep on a later event": _future_mem_dep,
    "bad presence flags": lambda c: c["present"].__setitem__(0, 7),
    "block starts not from event 0": lambda c: c["block_starts"].__setitem__(0, 1),
    "block starts past the end": lambda c: c["block_starts"].append(len(c["inst"])),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_inconsistent_trace_columns_raise_codec_error(compiled, mutation):
    document = _trace_document(compiled)
    data = _rewrite_columns(document, MUTATIONS[mutation])
    with pytest.raises(ArtifactCodecError, match="trace block"):
        _materialise(data)


# ---------------------------------------------------------------------------
# a lazy result against the eager one
# ---------------------------------------------------------------------------


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


def _pdg_shapes(result):
    """Per partitioned function, by instruction number: the PDG's edges as
    read through its adjacency, and the SCCs recomputed from them."""
    module = result.module
    number = {
        inst: no
        for no, inst in enumerate(i for fn in module.functions.values() for i in fn.instructions())
    }
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
    """Every decoded trace column and the memory image equal the recorded
    ones, and re-encoding gives the payload back byte for byte.  (The tail
    layout is v4's; v5 keeps it.)"""
    eager, data = eager_payloads[name]
    lazy = decode_compilation_result(data)
    recorded, decoded = eager.execution.trace, lazy.execution.trace
    for column, _ in _TRACE_COLUMNS[2:]:
        assert getattr(decoded, column) == getattr(recorded, column), column
    numbers, decoded_numbers = _instruction_index(eager.module), _instruction_index(lazy.module)
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
    """Re-encoding is the equality oracle: module, trace, profile, partitions,
    queues, schedules and system byte for byte.  A pickled eager result also
    keeps every function's PDG adjacency and SCC shape."""
    eager, data = eager_payloads[name]
    assert encode_compilation_result(decode_compilation_result(data)) == data

    pickled_eager = pickle.loads(pickle.dumps(eager))
    assert encode_compilation_result(pickled_eager) == data
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
    assert encode_compilation_result(replaced) == data

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
    """The rebuild oracle: the module rebuilt from the stored source, with
    its threads re-extracted when the config asks for them, prints exactly
    as the compiled one, and the result re-encodes to the same bytes."""
    eager, data = compiled_payload(config, name)
    lazy = decode_compilation_result(data)
    assert print_module(lazy.module) == print_module(eager.module)
    assert lazy.dswp.partitioning.extractions.keys() == eager.dswp.partitioning.extractions.keys()
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
