"""Structured serialisation of compile artifacts.

Everything the artifact cache stores is either plain JSON or this codec's
output, so loading an entry never executes stored code: decoding walks
JSON.  Entries survive Python version bumps, and every one starts its
payload with the ``crc32`` line of :func:`seal`, which :func:`unseal`
checks on every read.

A cached compile is its :class:`~repro.results.CompileSummary`.  Its
payload (``repro-artifact-v7``) is three lines, in order:

1. the magic line ``repro-artifact-v7``;
2. a line holding the ``crc32`` of the rest of the payload, as 8 lowercase
   hex digits;
3. one canonical summary JSON line (sorted keys, no spaces): ``name``,
   ``outputs``, ``system`` (the three timing replays with area and power)
   and the DSWP summary ``dswp`` — everything a report reads.

No heavy field is stored.  The re-simulations build the module, trace,
profile and LegUp result themselves
(:func:`repro.eval.worker.sweep_input`), and check the build against this
summary.  Decoding checks the magic and the checksum and decodes the
summary, so:

* any damaged byte fails the checksum, and the cache reads the entry as a
  corrupt miss and recomputes it;
* a summary that is malformed under a valid checksum (a writer bug) raises
  :class:`ArtifactCodecError`, which the cache also reads as a corrupt miss;
* a build whose outputs or DSWP summary differ from a valid summary makes
  :func:`~repro.eval.worker.sweep_input` delete the entry and raise.

This module decodes.  Encoding is in :mod:`repro.eval.heavy_codec`, which
a warm report never loads: it only decodes.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict

from repro.errors import ReproError
from repro.results import (
    AreaEstimate,
    CompileSummary,
    ConfigurationResult,
    ExecutionDomain,
    PowerEstimate,
    SystemResult,
    ThreadSpec,
    ThreadTimeline,
    TimingResult,
)

ARTIFACT_MAGIC = b"repro-artifact-v7\n"


class ArtifactCodecError(ReproError):
    """A compile artifact could not be decoded, or a build of its compile
    does not reproduce it."""


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
# decoding the payload
# ---------------------------------------------------------------------------


#: The DSWP summary's keys (:meth:`repro.dswp.pipeline.DSWPResult.summary`).
_DSWP_SUMMARY_KEYS = ("hw_threads", "queues", "semaphores", "sw_fraction", "sw_threads")


def seal(body: bytes) -> bytes:
    """*body* behind a line holding its ``crc32`` as 8 lowercase hex digits:
    how every cache entry stores its payload."""
    return b"%08x\n" % zlib.crc32(body) + body


def unseal(data: bytes) -> bytes:
    """The body of a payload framed by :func:`seal`; raises
    :class:`ArtifactCodecError` if the checksum does not match it."""
    body = data[9:]
    if data[:9] != b"%08x\n" % zlib.crc32(body):
        raise ArtifactCodecError("entry checksum mismatch")
    return body


def decode_compilation_result(data: bytes) -> CompileSummary:
    """Decode a v7 payload into its :class:`CompileSummary`; raises
    :class:`ArtifactCodecError` if the magic, the checksum or the summary
    is bad."""
    if not data.startswith(ARTIFACT_MAGIC):
        raise ArtifactCodecError("not a repro artifact (bad magic)")
    body = unseal(data[len(ARTIFACT_MAGIC):])
    try:
        summary = json.loads(body)
        name, outputs, dswp = summary["name"], summary["outputs"], summary["dswp"]
        system = _dec_system(summary["system"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactCodecError(f"artifact summary: {exc!r}") from exc
    if (
        not isinstance(name, str)
        or not isinstance(outputs, list)
        or not all(isinstance(v, int) for v in outputs)
        or not isinstance(dswp, dict)
        or sorted(dswp) != list(_DSWP_SUMMARY_KEYS)
    ):
        raise ArtifactCodecError("artifact summary: bad name, outputs or DSWP summary")
    return CompileSummary(name, outputs, system, dswp)
