"""Structured serialisation of compile artifacts and DSWP results.

Everything the artifact cache stores is either plain JSON or this codec's
output, so loading an entry never executes stored code: decoding walks JSON
and rebuilds the object graph through a fixed table of IR classes.  The
format only depends on the documented IR/result classes, so entries are
inspectable with ``python -m json.tool`` and survive Python version bumps.

A cached :class:`repro.core.compiler.CompilationResult` is the largest
artifact the evaluation harness stores.  Its payload (``repro-artifact-v3``)
is four parts, in order:

1. the magic line ``repro-artifact-v3``;
2. a line holding the ``crc32`` of the rest of the payload, as 8 lowercase
   hex digits;
3. one summary JSON line: ``name``, ``outputs``, ``system`` (the three
   timing replays with area and power) and the DSWP summary — everything
   a report reads;
4. the heavy JSON document: ``module``, the rest of ``execution``,
   ``profile``, ``dswp`` and ``legup``.

Both JSON parts are canonical (sorted keys, no spaces), so ``python -m
json.tool`` inspects either line of any cached compile.  Decoding checks
the magic and the checksum and decodes the summary; it returns a *lazy*
result (:meth:`CompilationResult.lazy`) that parses and decodes the heavy
document on the first read of a heavy field.  So:

* any damaged byte fails the checksum, and the cache reads the entry as a
  corrupt miss and recomputes it;
* a heavy part that is malformed under a valid checksum (a writer bug)
  raises :class:`ArtifactCodecError` on first access;
* a warm report, which reads only the summary, decodes no heavy part.

Inside the heavy document, the dynamic trace — most of an artifact — is
one binary block: its columns' little-endian array bytes, concatenated,
zlib-compressed (level 1) and base64-encoded (see
:data:`repro.eval.heavy_codec._TRACE_COLUMNS`).
Encode and decode are ``tobytes``/``frombytes`` with no per-event Python
loop, and decode validates the columns with C-level passes before it
builds a trace.

A :class:`~repro.dswp.pipeline.DSWPResult` on its own (the explore
engine's DSWP-stage entry) is one JSON document,
:func:`repro.eval.heavy_codec.encode_dswp_result`: the same ``dswp``
section the heavy document holds, plus the instruction count of the module
it was computed on and a checksum of the section.  It is decoded onto the
caller's own module (:func:`repro.eval.heavy_codec.decode_dswp_result`),
so the partition points at the instructions the caller's trace replays.

The encoding strategy mirrors how the IR itself names things:

* every instruction of every defined function gets a **global index**
  (module function order → block order → instruction order); operands,
  the trace's static instruction table, profile counts, partitions,
  queues, thread extractions and HLS schedules all refer to instructions
  by that index instead of by object identity;
* extracted thread functions (``f_dswp_<k>``) are functions of the module,
  so an :class:`~repro.dswp.thread_extraction.ExtractedThread` is stored
  by its function's name;
* instruction-keyed maps (``FunctionPartitioning.assignment``,
  ``ExtractionResult.queue_map``, ``BlockSchedule.start_cycle``,
  ``Profile._counts``) are stored as lists of (instruction number,
  value) pairs, or not at all where the decoder re-derives them (the
  assignment is the inverse of the partitions' instruction lists);
* purely derived analysis state (the PDG and its SCC condensation inside
  each :class:`FunctionPartitioning`) is not stored: it is a deterministic
  function of the decoded function and profile, rebuilt on first read
  (:meth:`FunctionPartitioning.decoded`).

This module decodes the summary.  Encoding, the heavy decode and the DSWP
documents are in :mod:`repro.eval.heavy_codec`, which loads on the first
encode or heavy read; the module itself is encoded by
:mod:`repro.eval.module_codec`, the only part of the codec that needs the
IR classes.  Both import the DSWP, HLS and interpreter classes when they
run, so decoding a summary (all a warm report does) loads no compiler
stage and none of the heavy codec.
"""

from __future__ import annotations

import contextlib
import json
import zlib
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import ReproError
from repro.results import (
    AreaEstimate,
    CompilationResult,
    ConfigurationResult,
    ExecutionDomain,
    PowerEstimate,
    SystemResult,
    ThreadSpec,
    ThreadTimeline,
    TimingResult,
)

ARTIFACT_MAGIC = b"repro-artifact-v3\n"


class ArtifactCodecError(ReproError):
    """A compile artifact could not be encoded or decoded."""


# ---------------------------------------------------------------------------
# the summary's system (timing + area + power)
# ---------------------------------------------------------------------------


def _dec_area(data: Dict):
    return AreaEstimate(
        luts=data["luts"], dsps=data["dsps"], brams=data["brams"], detail=dict(data["detail"])
    )


def _dec_timing(data: Dict):
    threads = {}
    for tid, t in data["threads"]:
        spec = ThreadSpec(t["spec"][0], ExecutionDomain(t["spec"][1]), t["spec"][2])
        threads[tid] = ThreadTimeline(
            spec=spec,
            next_free=t["next_free"],
            busy_cycles=t["busy_cycles"],
            events_executed=t["events_executed"],
            finish_time=t["finish_time"],
            current_block=t["current_block"],
            block_max_done=t["block_max_done"],
        )
    return TimingResult(
        total_cycles=data["total_cycles"],
        threads=threads,
        queue_count=data["queue_count"],
        queue_transfers=data["queue_transfers"],
        producer_stall_cycles=data["producer_stall_cycles"],
        consumer_stall_cycles=data["consumer_stall_cycles"],
        bus_transfers=data["bus_transfers"],
        forced_events=data["forced_events"],
        events=data["events"],
        replay_outputs=tuple(data["replay_outputs"]),
    )


def _dec_power(data: Dict):
    return PowerEstimate(**data)


def _dec_configuration(data: Dict):
    return ConfigurationResult(
        name=data["name"],
        timing=_dec_timing(data["timing"]),
        area=_dec_area(data["area"]),
        power=_dec_power(data["power"]),
    )


def _dec_system(data: Dict):
    return SystemResult(
        benchmark=data["benchmark"],
        pure_software=_dec_configuration(data["pure_software"]),
        pure_hardware=_dec_configuration(data["pure_hardware"]),
        twill=_dec_configuration(data["twill"]),
        hw_thread_area=_dec_area(data["hw_thread_area"]),
        runtime_area=_dec_area(data["runtime_area"]),
    )


# ---------------------------------------------------------------------------
# decoding a payload
# ---------------------------------------------------------------------------


#: The DSWP summary's keys (:meth:`repro.dswp.pipeline.DSWPResult.summary`).
_DSWP_SUMMARY_KEYS = ("hw_threads", "queues", "semaphores", "sw_fraction", "sw_threads")

#: What decoding a malformed part under a valid checksum can raise.
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError, ReproError)


def _checked_body(data: bytes) -> bytes:
    """The payload after its checksum line, if magic and checksum hold."""
    if not data.startswith(ARTIFACT_MAGIC):
        raise ArtifactCodecError("not a repro artifact (bad magic)")
    start = len(ARTIFACT_MAGIC) + 9
    body = data[start:]
    if data[start - 9:start] != b"%08x\n" % zlib.crc32(body):
        raise ArtifactCodecError("artifact checksum mismatch")
    return body


@contextlib.contextmanager
def _malformed(part: str) -> Iterator[None]:
    """Turn what decoding a malformed *part* can raise into a codec error."""
    try:
        yield
    except ArtifactCodecError:
        raise
    except _MALFORMED as exc:
        raise ArtifactCodecError(f"{part}: {exc!r}") from exc


def _dec_summary(data: bytes) -> Tuple[str, List[int], Any, Dict[str, float]]:
    with _malformed("artifact summary"):
        summary = json.loads(data)
        name, outputs, dswp = summary["name"], summary["outputs"], summary["dswp"]
        system = _dec_system(summary["system"])
    if (
        not isinstance(name, str)
        or not isinstance(outputs, list)
        or not all(isinstance(v, int) for v in outputs)
        or not isinstance(dswp, dict)
        or sorted(dswp) != list(_DSWP_SUMMARY_KEYS)
    ):
        raise ArtifactCodecError("artifact summary: bad name, outputs or DSWP summary")
    return name, outputs, system, dswp


def decode_compilation_result(data: bytes):
    """Decode a v3 payload into a lazy :class:`CompilationResult`.

    Checks the magic and the checksum and decodes the summary now; the
    heavy part is decoded (and validated) on the first read of a heavy
    field, raising :class:`ArtifactCodecError` then if it is malformed.
    """
    body = _checked_body(data)
    end = body.find(b"\n")
    if end < 0:
        raise ArtifactCodecError("artifact has no summary line")
    name, outputs, system, dswp_summary = _dec_summary(body[:end])
    heavy = body[end + 1:]

    def load() -> Dict[str, Any]:
        from repro.eval.heavy_codec import decode_heavy

        return decode_heavy(heavy, outputs)

    return CompilationResult.lazy(name, system, outputs, dswp_summary, load)
