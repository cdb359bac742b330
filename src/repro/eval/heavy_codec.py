"""The heavy half of the compile-artifact codec (format: :mod:`repro.eval.artifact_codec`).

Encoding a :class:`~repro.results.CompilationResult`, decoding the heavy
document of its payload (the IR module, the rest of the execution with its
trace block, the profile, DSWP and LegUp results), and the explore engine's
DSWP documents.  A warm report reads only artifact summaries, which
:mod:`repro.eval.artifact_codec` decodes, so this module loads on the first
encode or the first read of a heavy field.

Every instruction of every defined function gets a **global index**
(module function order → block order → instruction order); operands, the
trace's static instruction table, profile counts, partitions, queues,
thread extractions and HLS schedules all refer to instructions by that
index (see the format notes in :mod:`repro.eval.artifact_codec`).  The
module itself is encoded by :mod:`repro.eval.module_codec`, the only part
that needs the IR classes.
"""

from __future__ import annotations

import base64
import binascii
import json
import sys
import zlib
from array import array
from itertools import chain, islice, repeat
from operator import ge, gt, sub
from typing import TYPE_CHECKING, Any, Dict, List

from repro.eval.artifact_codec import (
    ARTIFACT_MAGIC,
    ArtifactCodecError,
    _dec_area,
    _malformed,
)

if TYPE_CHECKING:
    from repro.ir.instructions import Instruction
    from repro.ir.module import Module

_BIG_ENDIAN = sys.byteorder == "big"


# ---------------------------------------------------------------------------
# instruction numbering
# ---------------------------------------------------------------------------


def _instruction_index(module: Module) -> Dict[Instruction, int]:
    """Instruction -> global index, in module/block/instruction order."""
    return {inst: number for number, inst in enumerate(_instruction_list(module))}


def _instruction_list(module: Module) -> List[Instruction]:
    """Global index -> instruction, the inverse of :func:`_instruction_index`."""
    out: List[Instruction] = []
    for fn in module.functions.values():
        for block in fn.blocks:
            out.extend(block.instructions)
    return out


# ---------------------------------------------------------------------------
# execution (outputs + memory + trace)
# ---------------------------------------------------------------------------


def _enc_memory(memory) -> Dict:
    addrs = sorted(memory._bytes)
    return {
        "addrs": addrs,
        "bytes": [memory._bytes[a] for a in addrs],
        "global_addresses": memory.global_addresses,
        "global_sizes": memory.global_sizes,
        "global_top": memory._global_top,
        "stack_top": memory._stack_top,
        "loads": memory.load_count,
        "stores": memory.store_count,
    }


def _dec_memory(data: Dict):
    from repro.interp.memory import SimulatedMemory

    memory = SimulatedMemory()
    memory._bytes = dict(zip(data["addrs"], data["bytes"]))
    memory.global_addresses = dict(data["global_addresses"])
    memory.global_sizes = dict(data["global_sizes"])
    memory._global_top = data["global_top"]
    memory._stack_top = data["stack_top"]
    memory.load_count = data["loads"]
    memory.store_count = data["stores"]
    return memory


#: The trace block's arrays, in block order: (name, typecode).  ``static``
#: maps the trace's static numbers to global instruction indices and
#: ``static_fn`` to entries of the document's function-name table; the rest
#: are the :class:`~repro.interp.trace.Trace` columns of the same name.
_TRACE_COLUMNS = (
    ("static", "i"),
    ("static_fn", "i"),
    ("inst", "i"),
    ("dep_offsets", "i"),
    ("deps", "i"),
    ("mem_dep", "i"),
    ("address", "q"),
    ("value", "q"),
    ("present", "B"),
    ("block_starts", "i"),
)


def _enc_trace(trace, index: Dict[Instruction, int]) -> Dict:
    """The trace as one compressed block of little-endian column bytes."""
    fn_ids: Dict[str, int] = {}
    columns = {
        "static": array("i", [index[inst] for inst in trace.instructions]),
        "static_fn": array("i", [fn_ids.setdefault(f, len(fn_ids)) for f in trace.functions]),
    }
    lengths = []
    chunks = []
    for name, typecode in _TRACE_COLUMNS:
        column = columns[name] if name in columns else getattr(trace, name)
        if _BIG_ENDIAN:
            column = array(typecode, column)
            column.byteswap()
        lengths.append(len(column))
        chunks.append(column.tobytes())
    block = zlib.compress(b"".join(chunks), 1)
    return {
        "functions": list(fn_ids),
        "lengths": lengths,
        "block": base64.b64encode(block).decode("ascii"),
        "truncated": trace.truncated,
    }


def _dec_trace(data: Dict, instructions: List[Instruction]):
    """Rebuild the trace columns, validating them with C-level passes only."""
    from repro.interp.trace import Trace

    lengths = data["lengths"]
    if len(lengths) != len(_TRACE_COLUMNS) or not all(
        isinstance(k, int) and k >= 0 for k in lengths
    ):
        raise ArtifactCodecError("trace block: bad column lengths")
    sizes = [k * array(t).itemsize for k, (_, t) in zip(lengths, _TRACE_COLUMNS)]
    expected = sum(sizes)
    try:
        # One byte of headroom: a block that inflates past its lengths is
        # caught without inflating all of it.
        inflater = zlib.decompressobj()
        raw = inflater.decompress(base64.b64decode(data["block"], validate=True), expected + 1)
    except (binascii.Error, TypeError, ValueError, zlib.error) as exc:
        raise ArtifactCodecError(f"trace block: {exc}") from exc
    if len(raw) != expected or not inflater.eof or inflater.unused_data:
        raise ArtifactCodecError(f"trace block does not hold the {expected} bytes its lengths say")
    columns = {}
    at = 0
    for (name, typecode), size in zip(_TRACE_COLUMNS, sizes):
        column = array(typecode)
        column.frombytes(raw[at:at + size])
        if _BIG_ENDIAN:
            column.byteswap()
        columns[name] = column
        at += size
    functions = data["functions"]
    _check_trace(columns, len(functions), len(instructions))
    static = columns.pop("static")
    static_fn = columns.pop("static_fn")
    return Trace.from_columns(
        [instructions[i] for i in static],
        [functions[i] for i in static_fn],
        truncated=bool(data["truncated"]),
        **columns,
    )


def _check_trace(columns: Dict[str, array], n_functions: int, n_insts: int) -> None:
    """Reject columns that would make an inconsistent trace."""

    def bad(what: str) -> ArtifactCodecError:
        return ArtifactCodecError(f"trace block: {what}")

    static, static_fn = columns["static"], columns["static_fn"]
    inst, offsets, deps = columns["inst"], columns["dep_offsets"], columns["deps"]
    n = len(inst)
    if len(static_fn) != len(static) or any(
        len(columns[name]) != n for name in ("mem_dep", "address", "value", "present")
    ) or len(offsets) != n + 1:
        raise bad("column lengths disagree")
    if static and (min(static) < 0 or max(static) >= n_insts or len(set(static)) != len(static)):
        raise bad("static instruction out of range or repeated")
    if static_fn and (min(static_fn) < 0 or max(static_fn) >= n_functions):
        raise bad("function number out of range")
    if inst and (min(inst) < 0 or max(inst) >= len(static)):
        raise bad("instruction number out of range")
    ends = islice(offsets, 1, None)
    if offsets[0] != 0 or offsets[-1] != len(deps) or any(map(gt, offsets, ends)):
        raise bad("dep offsets not monotone over the deps")
    # The event each dep belongs to, as a C-level stream.
    owners = chain.from_iterable(map(repeat, range(n), map(sub, islice(offsets, 1, None), offsets)))
    if (deps and min(deps) < 0) or any(map(ge, deps, owners)):
        raise bad("a dep is not an earlier event")
    mem_dep = columns["mem_dep"]
    if (mem_dep and min(mem_dep) < -1) or any(map(ge, mem_dep, range(n))):
        raise bad("a memory dep is not an earlier event")
    if columns["present"] and max(columns["present"]) > 3:
        raise bad("bad presence flags")
    starts = columns["block_starts"]
    if (n and (not starts or starts[0] != 0)) or (starts and starts[-1] >= n) or any(
        map(ge, starts, islice(starts, 1, None))
    ):
        raise bad("block starts not strictly increasing from event 0")


def _enc_execution(execution, index: Dict[Instruction, int]) -> Dict:
    """Everything of the execution but its outputs, which the summary holds."""
    return {
        "return_value": execution.return_value,
        "steps": execution.steps,
        "trace": None if execution.trace is None else _enc_trace(execution.trace, index),
        "memory": _enc_memory(execution.memory),
    }


def _dec_execution(data: Dict, outputs: List[int], instructions: List[Instruction]):
    from repro.interp.interpreter import ExecutionResult

    return ExecutionResult(
        return_value=data["return_value"],
        outputs=outputs,
        steps=data["steps"],
        trace=None if data["trace"] is None else _dec_trace(data["trace"], instructions),
        memory=_dec_memory(data["memory"]),
    )


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def _enc_profile(profile, index: Dict[Instruction, int], instructions: List[Instruction]) -> Dict:
    counts = []
    for inst in instructions:
        c = profile._counts.get(inst)
        if c is not None:
            counts.append([index[inst], c])
    return {"counts": counts}


def _dec_profile(data: Dict, module: Module, instructions: List[Instruction]):
    from repro.interp.profile import Profile

    profile = Profile(module)
    profile._counts = {instructions[i]: c for i, c in data["counts"]}
    return profile


# ---------------------------------------------------------------------------
# DSWP
# ---------------------------------------------------------------------------


def _enc_dswp(dswp, index: Dict[Instruction, int]) -> Dict:
    import dataclasses

    partitioning = dswp.partitioning
    functions = {}
    for fn_name, fp in partitioning.functions.items():
        functions[fn_name] = {
            "sw_fraction": fp.sw_fraction,
            "partitions": [
                {
                    "index": p.index,
                    "kind": p.kind.value,
                    "sccs": list(p.scc_indices),
                    "insts": [index[i] for i in p.instructions],
                    "sw_weight": p.sw_weight,
                    "hw_weight": p.hw_weight,
                    "target_weight": p.target_weight,
                    "is_master": p.is_master,
                }
                for p in fp.partitions
            ],
        }
    queues = {}
    for fn_name, allocation in partitioning.queues.items():
        deps = [
            {
                "value": index[d.value],
                "consumer": index[d.consumer],
                "pp": d.producer_partition,
                "cp": d.consumer_partition,
                "kind": d.kind.value,
                "loop_case": d.loop_case.value,
            }
            for d in allocation.deps
        ]
        dep_pos = {id(d): i for i, d in enumerate(allocation.deps)}
        queues[fn_name] = {
            "deps": deps,
            "semaphore_count": allocation.semaphore_count,
            "queues": [
                {
                    "queue_id": q.queue_id,
                    "value": index[q.value],
                    "pp": q.producer_partition,
                    "cp": q.consumer_partition,
                    "width_bits": q.width_bits,
                    "depth": q.depth,
                    "deps": [dep_pos[id(d)] for d in q.deps],
                }
                for q in allocation.queues
            ],
        }
    return {
        "config": dataclasses.asdict(dswp.config),
        "functions": functions,
        "queues": queues,
        "semaphores": dict(partitioning.semaphores),
        "extractions": {
            fn_name: _enc_extraction(extraction, partitioning.module, index)
            for fn_name, extraction in partitioning.extractions.items()
        },
    }


def _enc_extraction(extraction, module: Module, index: Dict[Instruction, int]) -> Dict:
    """One function's extracted threads: each by its function's name, and
    the queue map keyed by instruction number."""
    for thread in extraction.threads:
        if module.functions.get(thread.function.name) is not thread.function:
            raise ArtifactCodecError(
                f"extracted thread {thread.function.name} is not a function of the module"
            )
    return {
        "threads": [
            {
                "function": t.function.name,
                "partition": t.partition_index,
                "kind": t.kind.value,
                "is_master": t.is_master,
                "reads": list(t.queue_reads),
                "writes": list(t.queue_writes),
            }
            for t in extraction.threads
        ],
        "queue_count": extraction.queue_count,
        "queue_map": [[index[v], p, q] for (v, p), q in extraction.queue_map.items()],
    }


def _at(instructions: List[Instruction], number: Any) -> Instruction:
    """Instruction *number*, refusing anything but an in-range int."""
    if type(number) is not int or not 0 <= number < len(instructions):
        raise ArtifactCodecError(f"bad instruction number {number!r}")
    return instructions[number]


def _check_cover(fn_name: str, fp) -> None:
    """Reject partitions that do not hold each of the function's
    instructions exactly once."""
    assignment = fp.assignment
    if len(assignment) != sum(len(p.instructions) for p in fp.partitions) or (
        assignment.keys() != set(fp.function.instructions())
    ):
        raise ArtifactCodecError(f"partitions of {fn_name} do not hold its instructions once each")


def _check_queue_ends(fn_name: str, fp, allocation) -> None:
    """Reject queues whose ends are not in the partitions they name."""
    ends = [(d.value, d.producer_partition) for d in allocation.deps]
    ends += [(d.consumer, d.consumer_partition) for d in allocation.deps]
    ends += [(q.value, q.producer_partition) for q in allocation.queues]
    if any(fp.assignment.get(inst) != partition for inst, partition in ends):
        raise ArtifactCodecError(f"queues of {fn_name} disagree with its partitions")


def _dec_dswp(data: Dict, module: Module, instructions: List[Instruction], profile):
    from repro.config import PartitionConfig
    from repro.dswp.loop_matching import LoopMatchCase
    from repro.dswp.partitioner import FunctionPartitioning, Partition, PartitionKind
    from repro.dswp.pipeline import DSWPResult, ModulePartitioning
    from repro.dswp.queues import CrossPartitionDep, QueueAllocation, QueueSpec
    from repro.interp.profile import Profile
    from repro.pdg.graph import DependenceKind
    from repro.pdg.weights import WeightModel

    config = PartitionConfig.from_dict(data["config"])
    # Mirror run_dswp's weight source: the dynamic profile when configured,
    # the static estimate otherwise.  Both are deterministic for the module.
    if config.use_profile_weights and profile is not None:
        weight_model = WeightModel(profile)
    else:
        weight_model = WeightModel(Profile.static_estimate(module))

    partitioning = ModulePartitioning(module=module)
    for fn_name, f in data["functions"].items():
        partitions = [
            Partition(
                index=p["index"],
                kind=PartitionKind(p["kind"]),
                scc_indices=list(p["sccs"]),
                instructions=[_at(instructions, i) for i in p["insts"]],
                sw_weight=p["sw_weight"],
                hw_weight=p["hw_weight"],
                target_weight=p["target_weight"],
                is_master=p["is_master"],
            )
            for p in f["partitions"]
        ]
        # The PDG and its SCC condensation are derived state, rebuilt from
        # the decoded function on first read.
        fp = FunctionPartitioning.decoded(
            module.get_function(fn_name), partitions, f["sw_fraction"], weight_model
        )
        _check_cover(fn_name, fp)
        partitioning.functions[fn_name] = fp
    for fn_name, q in data["queues"].items():
        deps = [
            CrossPartitionDep(
                value=_at(instructions, d["value"]),
                consumer=_at(instructions, d["consumer"]),
                producer_partition=d["pp"],
                consumer_partition=d["cp"],
                kind=DependenceKind(d["kind"]),
                loop_case=LoopMatchCase(d["loop_case"]),
            )
            for d in q["deps"]
        ]
        allocation = QueueAllocation(
            function=fn_name, deps=deps, semaphore_count=q["semaphore_count"]
        )
        for spec in q["queues"]:
            allocation.queues.append(
                QueueSpec(
                    queue_id=spec["queue_id"],
                    function=fn_name,
                    value=_at(instructions, spec["value"]),
                    producer_partition=spec["pp"],
                    consumer_partition=spec["cp"],
                    width_bits=spec["width_bits"],
                    depth=spec["depth"],
                    deps=[deps[i] for i in spec["deps"]],
                )
            )
        _check_queue_ends(fn_name, partitioning.functions[fn_name], allocation)
        partitioning.queues[fn_name] = allocation
    partitioning.semaphores = dict(data["semaphores"])
    for fn_name, e in data["extractions"].items():
        partitioning.extractions[fn_name] = _dec_extraction(fn_name, e, module, instructions)
    return DSWPResult(partitioning=partitioning, weight_model=weight_model, config=config)


def _dec_extraction(fn_name: str, data: Dict, module: Module, instructions: List[Instruction]):
    from repro.dswp.partitioner import PartitionKind
    from repro.dswp.thread_extraction import ExtractedThread, ExtractionResult

    return ExtractionResult(
        source_function=fn_name,
        threads=[
            ExtractedThread(
                function=module.get_function(t["function"]),
                source_function=fn_name,
                partition_index=t["partition"],
                kind=PartitionKind(t["kind"]),
                is_master=t["is_master"],
                queue_reads=list(t["reads"]),
                queue_writes=list(t["writes"]),
            )
            for t in data["threads"]
        ],
        queue_count=data["queue_count"],
        queue_map={(_at(instructions, v), p): q for v, p, q in data["queue_map"]},
    )


# ---------------------------------------------------------------------------
# HLS (LegUp baseline)
# ---------------------------------------------------------------------------


def _enc_area(area) -> Dict:
    return {"luts": area.luts, "dsps": area.dsps, "brams": area.brams, "detail": dict(area.detail)}


def _enc_legup(legup, index: Dict[Instruction, int]) -> Dict:
    schedules = {}
    for fn_name, schedule in legup.schedules.items():
        blocks = {}
        for block_name, bs in schedule.blocks.items():
            blocks[block_name] = {
                "states": [[index[i] for i in state.operations] for state in bs.states],
                "state_indices": [state.index for state in bs.states],
                "start": [
                    [index[inst], bs.start_cycle[inst]]
                    for inst in bs.block.instructions
                    if inst in bs.start_cycle
                ],
                "latency": bs.latency,
            }
        schedules[fn_name] = blocks
    bindings = {
        fn_name: {
            "units": [[op.value, n] for op, n in binding.units.items()],
            "total": [[op.value, n] for op, n in binding.total_operations.items()],
            "mux_luts": binding.mux_luts,
        }
        for fn_name, binding in legup.bindings.items()
    }
    return {
        "schedules": schedules,
        "bindings": bindings,
        "function_areas": {n: _enc_area(a) for n, a in legup.function_areas.items()},
        "memory_area": _enc_area(legup.memory_area),
    }


def _dec_legup(data: Dict, module: Module, instructions: List[Instruction]):
    from repro.hls.binding import BindingResult
    from repro.hls.legup import LegUpResult
    from repro.hls.scheduling import BlockSchedule, FSMSchedule, ScheduledState
    from repro.ir.instructions import Opcode

    legup = LegUpResult()
    for fn_name, blocks in data["schedules"].items():
        fn = module.get_function(fn_name)
        schedule = FSMSchedule(function=fn)
        for block_name, b in blocks.items():
            bs = BlockSchedule(
                block=fn.get_block(block_name),
                states=[
                    ScheduledState(index=idx, operations=[instructions[i] for i in ops])
                    for idx, ops in zip(b["state_indices"], b["states"])
                ],
                start_cycle={instructions[i]: c for i, c in b["start"]},
                latency=b["latency"],
            )
            schedule.blocks[block_name] = bs
        legup.schedules[fn_name] = schedule
    for fn_name, b in data["bindings"].items():
        legup.bindings[fn_name] = BindingResult(
            units={Opcode(op): n for op, n in b["units"]},
            total_operations={Opcode(op): n for op, n in b["total"]},
            mux_luts=b["mux_luts"],
        )
    legup.function_areas = {n: _dec_area(a) for n, a in data["function_areas"].items()}
    legup.memory_area = _dec_area(data["memory_area"])
    return legup


# ---------------------------------------------------------------------------
# system (timing + area + power)
# ---------------------------------------------------------------------------


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


def encode_compilation_result(result) -> bytes:
    """Encode a :class:`CompilationResult` into the v3 payload (see the module doc)."""
    from repro.eval.module_codec import encode_module

    index = _instruction_index(result.module)
    instructions = _instruction_list(result.module)
    summary = {
        "name": result.name,
        "outputs": list(result.outputs),
        "system": _enc_system(result.system),
        "dswp": result.dswp_summary(),
    }
    heavy = {
        "module": encode_module(result.module),
        "execution": _enc_execution(result.execution, index),
        "profile": _enc_profile(result.profile, index, instructions),
        "dswp": _enc_dswp(result.dswp, index),
        "legup": _enc_legup(result.legup, index),
    }
    body = _dumps(summary) + b"\n" + _dumps(heavy)
    return ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body


def decode_heavy(data: bytes, outputs: List[int]) -> Dict[str, Any]:
    """The five heavy fields of a result, rebuilt with every check above.

    *data* is the payload's heavy JSON line; the lazy result
    :func:`repro.eval.artifact_codec.decode_compilation_result` returns
    calls this on the first read of a heavy field.
    """
    from repro.eval.module_codec import decode_module

    with _malformed("artifact heavy part"):
        document = json.loads(data)
        module, instructions = decode_module(document["module"])
        profile = _dec_profile(document["profile"], module, instructions)
        return {
            "module": module,
            "execution": _dec_execution(document["execution"], outputs, instructions),
            "profile": profile,
            "dswp": _dec_dswp(document["dswp"], module, instructions, profile),
            "legup": _dec_legup(document["legup"], module, instructions),
        }


def encode_dswp_result(dswp) -> Dict:
    """A DSWP result as one JSON document that names instructions by their
    number in its module (the explore engine's DSWP-stage entry), with the
    ``crc32`` of its canonical ``dswp`` section."""
    index = _instruction_index(dswp.partitioning.module)
    section = _enc_dswp(dswp, index)
    return {"instructions": len(index), "crc": zlib.crc32(_dumps(section)), "dswp": section}


def decode_dswp_result(document: Dict, module: Module, profile):
    """Rebuild an :func:`encode_dswp_result` document onto *module*'s own
    instructions and *profile*.

    Raises :class:`ArtifactCodecError` if the document is malformed or
    damaged, was written for a module with another instruction count, or
    has partitions that do not hold each instruction exactly once.
    """
    instructions = _instruction_list(module)
    with _malformed("DSWP document"):
        if document["crc"] != zlib.crc32(_dumps(document["dswp"])):
            raise ArtifactCodecError("DSWP document checksum mismatch")
        if document["instructions"] != len(instructions):
            raise ArtifactCodecError("DSWP document was written for another module")
        return _dec_dswp(document["dswp"], module, instructions, profile)
