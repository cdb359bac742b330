"""The heavy half of the compile-artifact codec (format: :mod:`repro.eval.artifact_codec`).

Encoding a :class:`~repro.results.CompilationResult`, and rebuilding its
heavy fields on the first read of one.  A warm report reads only artifact
summaries, which :mod:`repro.eval.artifact_codec` decodes, so this module
loads on the first encode or the first read of a heavy field.

An artifact stores no heavy field: the flow is deterministic up to the
timing replays, so :func:`decode_heavy` re-runs
:meth:`~repro.core.compiler.TwillCompiler.build` on the stored source and
config.  Two checks guard the re-run: the module's structural digest,
taken when the artifact was written, and the summary's functional outputs
and DSWP summary, which the re-run must reproduce.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Any, Dict, List

from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, _malformed

if TYPE_CHECKING:
    from repro.ir.module import Module


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
# public entry points
# ---------------------------------------------------------------------------


def _dumps(document: Dict) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _structure(module: Module) -> Dict[str, Any]:
    """The module's structural digest: each function's instruction count,
    and the ``crc32`` of the printed module, which names every opcode,
    operand, constant and global initialiser."""
    from repro.ir.printer import print_module

    return {
        "instructions": {
            name: sum(len(block.instructions) for block in fn.blocks)
            for name, fn in module.functions.items()
        },
        "crc": zlib.crc32(print_module(module).encode("utf-8")),
    }


def encode_compilation_result(result) -> bytes:
    """Encode a :class:`CompilationResult` into the v6 payload (see the module doc)."""
    summary = {
        "name": result.name,
        "outputs": list(result.outputs),
        "system": _enc_system(result.system),
        "dswp": result.dswp_summary(),
    }
    inputs = {
        "source": result.source,
        "config": result.config.to_dict(),
        "structure": _structure(result.module),
    }
    body = _dumps(summary) + b"\n" + _dumps(inputs)
    return ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body


def decode_heavy(
    data: bytes, name: str, outputs: List[int], dswp_summary: Dict[str, float]
) -> Dict[str, Any]:
    """The heavy fields of result *name*, re-run from its stored inputs.

    *data* is the payload's inputs line; *outputs* and *dswp_summary* are
    its summary's.  Runs :meth:`~repro.core.compiler.TwillCompiler.build`
    on the stored source and config, and raises :class:`ArtifactCodecError`
    if the inputs are malformed or the re-run differs from the stored
    structural digest, outputs or DSWP summary.  The lazy result
    :func:`repro.eval.artifact_codec.decode_compilation_result` returns
    calls this on the first read of a heavy field.
    """
    from repro.config import CompilerConfig
    from repro.core.compiler import TwillCompiler

    with _malformed("artifact inputs"):
        document = json.loads(data)
        config = CompilerConfig.from_dict(document["config"])
        fields = TwillCompiler(config).build(document["source"], name)
        structure = document["structure"]
    if _structure(fields["module"]) != structure:
        raise ArtifactCodecError("the rebuilt module differs from the stored structure")
    execution = fields["execution"]
    if execution.outputs != outputs or fields["dswp"].summary() != dswp_summary:
        raise ArtifactCodecError("the re-run differs from the stored summary")
    execution.outputs = outputs
    return fields
