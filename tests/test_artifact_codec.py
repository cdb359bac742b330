"""Round-trip tests for the structured compile-artifact codec.

``repro.eval.heavy_codec`` serialises a full :class:`CompilationResult`
into a checksummed summary line and one canonical heavy JSON document
(behind a magic header) instead of a pickle — loading it executes no code.
The contract is stronger than "fields survive": a *decoded* result must
drive every downstream consumer (split re-simulation, partitioned timing
replay, report rows) to **byte-identical** output, because the cache
serves decoded artifacts interchangeably with freshly-computed ones.  A
decoded result is lazy: its heavy part is decoded on first access, and a
malformed one raises then.
"""

import base64
import dataclasses
import json
import os
import pickle
import zlib
from array import array

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval import heavy_codec
from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, decode_compilation_result
from repro.eval.heavy_codec import (
    _TRACE_COLUMNS,
    _dec_trace,
    _enc_trace,
    _instruction_index,
    _instruction_list,
    decode_dswp_result,
    encode_compilation_result,
    encode_dswp_result,
)
from repro.eval import worker
from repro.eval.cache import ArtifactCache, compile_key
from repro.eval.harness import EvaluationHarness
from repro.dswp.partitioner import PartitionKind
from repro.dswp.thread_extraction import ExtractedThread, ExtractionResult
from repro.ir import verify_module
from repro.ir.function import Function
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
    """(summary line, heavy document) of a payload."""
    summary, heavy = data[len(ARTIFACT_MAGIC) + 9:].split(b"\n", 1)
    return summary, json.loads(heavy)


def _payload(summary: bytes, heavy) -> bytes:
    """A payload with a valid checksum over *summary* and *heavy*."""
    body = summary + b"\n" + _canonical(heavy)
    return ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body


def _materialise(data: bytes):
    """Decode *data* and read a heavy field, which decodes the heavy part."""
    return decode_compilation_result(data).module


def test_artifact_is_magic_checksum_summary_and_heavy_json(compiled):
    _, result = compiled
    data = encode_compilation_result(result)
    assert data.startswith(ARTIFACT_MAGIC)
    crc, body = data[len(ARTIFACT_MAGIC):].split(b"\n", 1)
    assert crc == b"%08x" % zlib.crc32(body)
    summary_line, heavy_line = body.split(b"\n")
    summary, heavy = json.loads(summary_line), json.loads(heavy_line)
    assert sorted(summary) == ["dswp", "name", "outputs", "system"]
    assert sorted(heavy) == ["dswp", "execution", "legup", "module", "profile"]
    # outputs and system live in the summary only.
    assert "outputs" not in heavy["execution"]
    assert summary["outputs"] == result.outputs
    assert summary["dswp"] == result.dswp.summary()
    # Canonical form: re-dumping with sorted keys reproduces both lines.
    assert summary_line == _canonical(summary) and heavy_line == _canonical(heavy)
    assert _payload(summary_line, heavy) == data


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


def test_refuses_a_thread_extraction_outside_the_module(compiled):
    """An extracted thread is stored by its function's name, so a thread
    whose function the module does not hold cannot be encoded."""
    _, result = compiled
    module = result.dswp.partitioning.module
    main = module.get_function("main")
    detached = Function("main_dswp_0", main.function_type, [a.name for a in main.args])
    thread = ExtractedThread(detached, "main", 0, PartitionKind.SOFTWARE, True)
    with_extraction = dataclasses.replace(
        result,
        dswp=dataclasses.replace(
            result.dswp,
            partitioning=dataclasses.replace(
                result.dswp.partitioning,
                extractions={"main": ExtractionResult("main", [thread], 0, {})},
            ),
        ),
    )
    with pytest.raises(ArtifactCodecError, match="not a function of the module"):
        encode_compilation_result(with_extraction)
    assert issubclass(ArtifactCodecError, ReproError)


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


def _first(module, predicate):
    for fn in module["functions"]:
        for block in fn["blocks"]:
            for inst in block["insts"]:
                if predicate(inst):
                    return inst
    raise AssertionError("no such instruction")


def _set_first_operand(value):
    def mutate(module):
        inst = _first(module, lambda i: any(ref[0] == "i" for ref in i["x"]))
        ref = next(ref for ref in inst["x"] if ref[0] == "i")
        ref[1] = value

    return mutate


MODULE_MUTATIONS = {
    "unknown opcode": lambda m: _first(m, lambda i: True).__setitem__("op", "frobnicate"),
    "operand past the instructions": _set_first_operand(10**6),
    "negative operand": _set_first_operand(-1),
    "unknown callee": lambda m: _first(m, lambda i: "callee" in i).__setitem__("callee", "nowhere"),
    "unknown operand tag": lambda m: _first(m, lambda i: i["x"])["x"].__setitem__(0, ["?", 0]),
    "missing field": lambda m: m["functions"][0].pop("blocks"),
}


@pytest.mark.parametrize("mutation", sorted(MODULE_MUTATIONS))
def test_checksum_valid_bad_module_raises_on_first_access(compiled, mutation):
    document = _trace_document(compiled)
    MODULE_MUTATIONS[mutation](document["module"])
    lazy = decode_compilation_result(_encode_document(document))  # the checksum holds
    assert lazy.outputs == compiled[1].outputs
    for _ in range(2):  # and every later access raises too: no object ever
        with pytest.raises(ArtifactCodecError):
            lazy.module
    assert "_load" in vars(lazy)


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
    document = json.loads(json.dumps(_enc_trace(trace, _instruction_index(module))))
    decoded = _dec_trace(document, _instruction_list(module))
    assert len(decoded) == len(trace) > 0
    assert decoded.events == trace.events
    assert decoded.block_starts == trace.block_starts
    assert decoded.truncated == trace.truncated
    assert decoded.instruction_counts() == trace.instruction_counts()


def _trace_document(compiled):
    """The heavy document of the blowfish artifact, plus its summary line
    under ``"summary"`` for :func:`_encode_document`."""
    _, result = compiled
    summary, heavy = _parts(encode_compilation_result(result))
    return {"summary": summary, **heavy}


def _encode_document(document) -> bytes:
    heavy = dict(document)
    return _payload(heavy.pop("summary"), heavy)


def _rewrite_columns(document, mutate):
    """Decode the trace block's columns, let *mutate* edit them, re-encode."""
    trace = document["execution"]["trace"]
    raw = zlib.decompress(base64.b64decode(trace["block"]))
    columns = {}
    at = 0
    for (name, typecode), length in zip(_TRACE_COLUMNS, trace["lengths"]):
        column = array(typecode)
        size = length * column.itemsize
        column.frombytes(raw[at:at + size])
        columns[name] = column
        at += size
    mutate(columns)
    trace["lengths"] = [len(columns[name]) for name, _ in _TRACE_COLUMNS]
    raw = b"".join(columns[name].tobytes() for name, _ in _TRACE_COLUMNS)
    trace["block"] = base64.b64encode(zlib.compress(raw, 1)).decode("ascii")
    return _encode_document(document)


def _set_block(document, block: bytes):
    document["execution"]["trace"]["block"] = base64.b64encode(block).decode("ascii")
    return _encode_document(document)


def _compressed_block(document) -> bytes:
    return base64.b64decode(document["execution"]["trace"]["block"])


def test_trace_block_is_compressed_array_bytes(compiled):
    document = _trace_document(compiled)
    trace = document["execution"]["trace"]
    assert sorted(trace) == ["block", "functions", "lengths", "truncated"]
    raw = zlib.decompress(_compressed_block(document))
    itemsizes = [array(typecode).itemsize for _, typecode in _TRACE_COLUMNS]
    assert len(raw) == sum(k * size for k, size in zip(trace["lengths"], itemsizes))
    # And an untouched re-encode decodes to the same trace.
    _, result = compiled
    decoded = decode_compilation_result(_rewrite_columns(document, lambda columns: None))
    assert len(decoded.execution.trace) == len(result.execution.trace)


def _bad_blocks(document):
    block = _compressed_block(document)
    raw = zlib.decompress(block)
    flipped = bytearray(block)
    flipped[len(flipped) // 2] ^= 0xFF
    return {
        "truncated": block[: len(block) // 2],
        "corrupted": bytes(flipped),
        "oversized": zlib.compress(raw + b"\0" * 8, 1),
        "undersized": zlib.compress(raw[:-4], 1),
        "trailing bytes": block + b"\0",
        "empty": b"",
    }


@pytest.mark.parametrize(
    "kind", ["truncated", "corrupted", "oversized", "undersized", "trailing bytes", "empty"]
)
def test_damaged_trace_block_raises_codec_error(compiled, kind):
    document = _trace_document(compiled)
    data = _set_block(document, _bad_blocks(document)[kind])
    with pytest.raises(ArtifactCodecError, match="trace block"):
        _materialise(data)


def test_trace_block_that_is_not_base64_raises_codec_error(compiled):
    document = _trace_document(compiled)
    document["execution"]["trace"]["block"] = "not*base64!"
    with pytest.raises(ArtifactCodecError, match="trace block"):
        _materialise(_encode_document(document))


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


@pytest.fixture(scope="module")
def eager_payloads():
    """(eager result, its payload) of every builtin workload and corpus file."""
    compiler = TwillCompiler(CompilerConfig())
    out = {}
    for name, source in _sources():
        result = compiler.compile_and_simulate(source, name=name)
        out[name] = result, encode_compilation_result(result)
    return out


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
    assert "_load" not in vars(pickled)
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
