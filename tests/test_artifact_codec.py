"""Round-trip tests for the structured compile-artifact codec.

``repro.eval.artifact_codec`` serialises a full :class:`CompilationResult`
into one canonical JSON document (behind a magic header) instead of a
pickle — loading it executes no code.  The contract is stronger than
"fields survive": a *decoded* result must drive every downstream consumer
(split re-simulation, partitioned timing replay, report rows) to
**byte-identical** output, because the cache serves decoded artifacts
interchangeably with freshly-computed ones.
"""

import base64
import dataclasses
import json
import os
import zlib
from array import array

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval.artifact_codec import (
    _TRACE_COLUMNS,
    ARTIFACT_MAGIC,
    ArtifactCodecError,
    _dec_trace,
    _enc_trace,
    _instruction_index,
    _instruction_list,
    decode_compilation_result,
    encode_compilation_result,
)
from repro.eval.cache import ArtifactCache
from repro.ir.printer import print_module
from repro.sim import ThreadAssignment, TimingSimulator
from repro.workloads import get_workload


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


def test_artifact_is_magic_plus_canonical_json(compiled):
    _, result = compiled
    data = encode_compilation_result(result)
    assert data.startswith(ARTIFACT_MAGIC)
    document = json.loads(data[len(ARTIFACT_MAGIC):].decode("utf-8"))
    assert isinstance(document, dict)
    # Canonical form: re-dumping with sorted keys reproduces the payload.
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert data == ARTIFACT_MAGIC + canonical.encode("utf-8")


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


def test_refuses_materialised_thread_extractions(compiled):
    _, result = compiled
    with_extractions = dataclasses.replace(
        result,
        dswp=dataclasses.replace(
            result.dswp,
            partitioning=dataclasses.replace(
                result.dswp.partitioning, extractions={"stage_0": object()}
            ),
        ),
    )
    with pytest.raises(ArtifactCodecError, match="extraction"):
        encode_compilation_result(with_extractions)
    assert issubclass(ArtifactCodecError, ReproError)


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
    _, result = compiled
    data = encode_compilation_result(result)
    return json.loads(data[len(ARTIFACT_MAGIC):].decode("utf-8"))


def _encode_document(document) -> bytes:
    return ARTIFACT_MAGIC + json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


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
        decode_compilation_result(data)


def test_trace_block_that_is_not_base64_raises_codec_error(compiled):
    document = _trace_document(compiled)
    document["execution"]["trace"]["block"] = "not*base64!"
    with pytest.raises(ArtifactCodecError, match="trace block"):
        decode_compilation_result(_encode_document(document))


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
        decode_compilation_result(data)
