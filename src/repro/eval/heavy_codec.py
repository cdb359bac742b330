"""The encoding half of the compile-artifact codec (format: :mod:`repro.eval.artifact_codec`).

Encodes a :class:`~repro.results.CompileSummary` into the v7 payload.  A
warm report only decodes summaries, which :mod:`repro.eval.artifact_codec`
does, so this module loads on the first encode: in a run that compiles.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.eval.artifact_codec import ARTIFACT_MAGIC, seal


# ---------------------------------------------------------------------------
# the summary's system (timing + area + power)
# ---------------------------------------------------------------------------


def _enc_area(area) -> Dict:
    return {"luts": area.luts, "dsps": area.dsps, "brams": area.brams, "detail": dict(area.detail)}


def _enc_timing(timing) -> Dict:
    return {
        "total_cycles": timing.total_cycles,
        "threads": [
            [
                tid,
                {
                    "spec": [t.spec.thread_id, t.spec.domain.value, t.spec.label],
                    "next_free": t.next_free,
                    "busy_cycles": t.busy_cycles,
                    "events_executed": t.events_executed,
                    "finish_time": t.finish_time,
                    "current_block": t.current_block,
                    "block_max_done": t.block_max_done,
                },
            ]
            for tid, t in timing.threads.items()
        ],
        "queue_count": timing.queue_count,
        "queue_transfers": timing.queue_transfers,
        "producer_stall_cycles": timing.producer_stall_cycles,
        "consumer_stall_cycles": timing.consumer_stall_cycles,
        "bus_transfers": timing.bus_transfers,
        "forced_events": timing.forced_events,
        "events": timing.events,
        "replay_outputs": list(timing.replay_outputs),
    }


def _enc_power(power) -> Dict:
    return {
        "microblaze_mw": power.microblaze_mw,
        "fabric_static_mw": power.fabric_static_mw,
        "fabric_dynamic_mw": power.fabric_dynamic_mw,
    }


def _enc_configuration(conf) -> Dict:
    return {
        "name": conf.name,
        "timing": _enc_timing(conf.timing),
        "area": _enc_area(conf.area),
        "power": _enc_power(conf.power),
    }


def _enc_system(system) -> Dict:
    return {
        "benchmark": system.benchmark,
        "pure_software": _enc_configuration(system.pure_software),
        "pure_hardware": _enc_configuration(system.pure_hardware),
        "twill": _enc_configuration(system.twill),
        "hw_thread_area": _enc_area(system.hw_thread_area),
        "runtime_area": _enc_area(system.runtime_area),
    }


# ---------------------------------------------------------------------------
# the payload
# ---------------------------------------------------------------------------


def encode_compilation_result(summary) -> bytes:
    """Encode a :class:`~repro.results.CompileSummary` into the v7 payload
    (see :mod:`repro.eval.artifact_codec`)."""
    body = json.dumps(
        {
            "name": summary.name,
            "outputs": list(summary.outputs),
            "system": _enc_system(summary.system),
            "dswp": summary.dswp,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return ARTIFACT_MAGIC + seal(body)
