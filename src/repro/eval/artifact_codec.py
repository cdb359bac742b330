"""Structured serialisation of compile artifacts.

Everything the artifact cache stores is either plain JSON or this codec's
output, so loading an entry never executes stored code: decoding walks
JSON, and rebuilds the heavy fields by re-running the compile on the
stored C source.  Entries are inspectable with ``python -m json.tool`` and
survive Python version bumps.

A cached :class:`repro.core.compiler.CompilationResult` is the largest
artifact the evaluation harness stores.  Its payload (``repro-artifact-v6``)
is four lines, in order:

1. the magic line ``repro-artifact-v6``;
2. a line holding the ``crc32`` of the rest of the payload, as 8 lowercase
   hex digits;
3. one summary JSON line: ``name``, ``outputs``, ``system`` (the three
   timing replays with area and power) and the DSWP summary — everything
   a report reads;
4. the inputs JSON line, the last of the payload: the C ``source``, the
   ``config`` (:meth:`~repro.config.CompilerConfig.to_dict`) and the
   module's ``structure`` digest.

No heavy field is stored: the cache key pins the source, the config and
the code, and the flow is deterministic up to the timing replays, so the
first heavy read re-runs it
(:meth:`~repro.core.compiler.TwillCompiler.build`, through
:func:`repro.eval.heavy_codec.decode_heavy`).  The re-run must reproduce
the ``structure`` digest (each function's instruction count and the
``crc32`` of the printed module) and the summary's ``outputs`` and DSWP
summary.

Both JSON lines are canonical (sorted keys, no spaces).  Decoding checks
the magic and the checksum and decodes the summary; it returns a *lazy*
result (:meth:`CompilationResult.lazy`) that re-runs the compile on the
first read of a heavy field.  So:

* any damaged byte fails the checksum, and the cache reads the entry as a
  corrupt miss and recomputes it;
* inputs that are malformed under a valid checksum (a writer bug), or a
  re-run that differs from the stored digest or summary, raise
  :class:`ArtifactCodecError` on first access; a result that
  :meth:`~repro.eval.cache.ArtifactCache.get_or_compute` served then
  drops the entry and recomputes it.  A result the re-run cannot give
  back (a split re-simulation, a run with ``args``) fails this way;
* a warm report, which reads only the summary, re-runs nothing.

This module decodes the summary.  Encoding and the heavy read are in
:mod:`repro.eval.heavy_codec`, which loads on the first encode or heavy
read and imports the compiler stages when it runs, so decoding a summary
(all a warm report does) loads no compiler stage and none of the heavy
codec.
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

ARTIFACT_MAGIC = b"repro-artifact-v6\n"


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
    """Decode a v6 payload into a lazy :class:`CompilationResult`.

    Checks the magic and the checksum and decodes the summary now; the
    heavy fields are re-run (and checked) on the first read of one,
    raising :class:`ArtifactCodecError` then if that fails.
    """
    body = _checked_body(data)
    end = body.find(b"\n")
    if end < 0:
        raise ArtifactCodecError("artifact has no summary line")
    name, outputs, system, dswp_summary = _dec_summary(body[:end])
    inputs = body[end + 1:]

    def load() -> Dict[str, Any]:
        from repro.eval.heavy_codec import decode_heavy

        return decode_heavy(inputs, name, outputs, dswp_summary)

    return CompilationResult.lazy(name, system, outputs, dswp_summary, load)
