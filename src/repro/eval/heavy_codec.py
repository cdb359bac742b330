"""The heavy half of the compile-artifact codec (format: :mod:`repro.eval.artifact_codec`).

Encoding a :class:`~repro.results.CompilationResult`, decoding the heavy
part of its payload, and the explore engine's DSWP documents.  A warm
report reads only artifact summaries, which :mod:`repro.eval.artifact_codec`
decodes, so this module loads on the first encode or the first read of a
heavy field.

The heavy part stores what a rerun cannot give back cheaply: the compile's
inputs (the C source and the :class:`~repro.config.CompilerConfig`), the
interpreter's execution and the DSWP partitions and queues.  Everything
else is deterministic in the inputs, so :func:`decode_heavy` rebuilds it:
the IR module (front end and SSA passes), the profile, the threads
extracted from the partitions and the LegUp result.  A structural digest
of the module, taken when the artifact was written, guards the rebuild.

Every instruction of every defined function gets a **global index**
(module function order → block order → instruction order); the trace's
static instruction table, partitions and queues refer to instructions by
that index (see the format notes in :mod:`repro.eval.artifact_codec`).
Extracted threads are appended to the module after its source functions,
so the indices the trace and the partitions use are the same before and
after extraction.

The binary tail is every array of the artifact through one zlib stream
(level 1, :func:`_deflate`): the ten :data:`_TRACE_COLUMNS`, then the
memory image as the gaps between its sorted addresses and its byte
values.  Each column enters as its byte planes — byte ``j`` of every
item, then byte ``j + 1`` — because the high bytes of event numbers,
addresses and values barely change from item to item, and only split out
do they form runs zlib can find (the shuffle filter of HDF5 and Blosc).  The
heavy JSON holds only the columns' lengths; :func:`_inflate` inflates one
column at a time, never past its length, and refuses a tail that ends
early or runs on.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from itertools import accumulate, chain, islice, repeat
from operator import ge, gt, sub
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

from repro.eval.artifact_codec import ARTIFACT_MAGIC, ArtifactCodecError, _malformed

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
# the binary tail
# ---------------------------------------------------------------------------


def _deflate(columns: List[array]) -> bytes:
    """The binary tail: each column's little-endian bytes split into byte
    planes (plane ``j`` holds byte ``j`` of every item), all through one
    zlib stream at level 1."""
    deflater = zlib.compressobj(1)
    chunks = []
    for column in columns:
        if _BIG_ENDIAN:
            column = array(column.typecode, column)
            column.byteswap()
        raw = column.tobytes()
        k = column.itemsize
        chunks.extend(deflater.compress(raw[j::k]) for j in range(k))
    chunks.append(deflater.flush())
    return b"".join(chunks)


def _inflate(tail: bytes, shapes: List[Tuple[str, int]]) -> List[array]:
    """The tail's columns, one per (typecode, length) of *shapes*, each
    inflated no further than its length; the stream must end with the last."""
    inflater = zlib.decompressobj()
    columns = []
    try:
        for typecode, length in shapes:
            column = array(typecode)
            k = column.itemsize
            size = length * k
            planes = b""
            if size:
                planes = inflater.decompress(tail, size)
                tail = inflater.unconsumed_tail
            if len(planes) != size:
                raise ArtifactCodecError("artifact tail is shorter than its lengths say")
            if k > 1:
                raw = bytearray(size)
                view = memoryview(planes)
                for j in range(k):
                    raw[j::k] = view[j * length:(j + 1) * length]
                planes = raw
            column.frombytes(planes)
            if _BIG_ENDIAN:
                column.byteswap()
            columns.append(column)
        extra = inflater.decompress(tail, 1)
    except (OverflowError, ValueError, zlib.error) as exc:
        raise ArtifactCodecError(f"artifact tail: {exc}") from exc
    if extra or not inflater.eof or inflater.unused_data:
        raise ArtifactCodecError("artifact tail holds more than its lengths say")
    return columns


def _length(value: Any) -> int:
    if type(value) is not int or value < 0:
        raise ArtifactCodecError(f"artifact tail: bad column length {value!r}")
    return value


# ---------------------------------------------------------------------------
# execution (outputs + memory + trace)
# ---------------------------------------------------------------------------


def _enc_memory(memory, tail: List[array]) -> Dict:
    """The memory's scalars; its image goes to *tail* as the sorted
    addresses' gaps (``q``) and the byte values (``B``)."""
    addrs = sorted(memory._bytes)
    tail.append(array("q", map(sub, addrs, chain((0,), addrs))))
    tail.append(array("B", map(memory._bytes.__getitem__, addrs)))
    return {
        "length": len(addrs),
        "global_addresses": memory.global_addresses,
        "global_sizes": memory.global_sizes,
        "global_top": memory._global_top,
        "stack_top": memory._stack_top,
        "loads": memory.load_count,
        "stores": memory.store_count,
    }


def _dec_memory(data: Dict, columns: Iterator[array]):
    from repro.interp.memory import SimulatedMemory

    gaps, values = next(columns), next(columns)
    if len(gaps) > 1 and min(islice(gaps, 1, None)) < 1:
        raise ArtifactCodecError("memory image: addresses not increasing")
    memory = SimulatedMemory()
    memory._bytes = dict(zip(accumulate(gaps), values))
    memory.global_addresses = dict(data["global_addresses"])
    memory.global_sizes = dict(data["global_sizes"])
    memory._global_top = data["global_top"]
    memory._stack_top = data["stack_top"]
    memory.load_count = data["loads"]
    memory.store_count = data["stores"]
    return memory


#: The trace's columns in the tail, in order: (name, typecode).  ``static``
#: maps the trace's static numbers to global instruction indices and
#: ``static_fn`` to entries of the section's function-name table; the rest
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


def _enc_trace(trace, index: Dict[Instruction, int], tail: List[array]) -> Dict:
    """The trace's section; its columns go to *tail*."""
    fn_ids: Dict[str, int] = {}
    columns = {
        "static": array("i", [index[inst] for inst in trace.instructions]),
        "static_fn": array("i", [fn_ids.setdefault(f, len(fn_ids)) for f in trace.functions]),
    }
    ordered = [
        columns[name] if name in columns else getattr(trace, name) for name, _ in _TRACE_COLUMNS
    ]
    tail.extend(ordered)
    return {
        "functions": list(fn_ids),
        "lengths": [len(column) for column in ordered],
        "truncated": trace.truncated,
    }


def _trace_shapes(data: Dict) -> List[Tuple[str, int]]:
    lengths = data["lengths"]
    if len(lengths) != len(_TRACE_COLUMNS):
        raise ArtifactCodecError("trace block: bad column lengths")
    return [(typecode, _length(k)) for (_, typecode), k in zip(_TRACE_COLUMNS, lengths)]


def _dec_trace(data: Dict, columns: Iterator[array], instructions: List[Instruction]):
    """Rebuild the trace from its section and its tail columns, validating
    them with C-level passes only."""
    from repro.interp.trace import Trace

    named = {name: next(columns) for name, _ in _TRACE_COLUMNS}
    functions = data["functions"]
    _check_trace(named, len(functions), len(instructions))
    static = named.pop("static")
    static_fn = named.pop("static_fn")
    return Trace.from_columns(
        [instructions[i] for i in static],
        [functions[i] for i in static_fn],
        truncated=bool(data["truncated"]),
        **named,
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


def _enc_execution(execution, index: Dict[Instruction, int], tail: List[array]) -> Dict:
    """Everything of the execution but its outputs, which the summary holds;
    the trace's columns and the memory image go to *tail*."""
    return {
        "return_value": execution.return_value,
        "steps": execution.steps,
        "trace": None if execution.trace is None else _enc_trace(execution.trace, index, tail),
        "memory": _enc_memory(execution.memory, tail),
    }


def _execution_shapes(data: Dict) -> List[Tuple[str, int]]:
    """(typecode, length) of each tail column, in tail order."""
    shapes = [] if data["trace"] is None else _trace_shapes(data["trace"])
    length = _length(data["memory"]["length"])
    return shapes + [("q", length), ("B", length)]


def _dec_execution(
    data: Dict, outputs: List[int], instructions: List[Instruction], columns: Iterator[array]
):
    from repro.interp.interpreter import ExecutionResult

    return ExecutionResult(
        return_value=data["return_value"],
        outputs=outputs,
        steps=data["steps"],
        trace=None if data["trace"] is None else _dec_trace(data["trace"], columns, instructions),
        memory=_dec_memory(data["memory"], columns),
    )


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
    return DSWPResult(partitioning=partitioning, weight_model=weight_model, config=config)


# ---------------------------------------------------------------------------
# system (timing + area + power)
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
    """Encode a :class:`CompilationResult` into the v5 payload (see the module doc)."""
    index = _instruction_index(result.module)
    summary = {
        "name": result.name,
        "outputs": list(result.outputs),
        "system": _enc_system(result.system),
        "dswp": result.dswp_summary(),
    }
    tail: List[array] = []
    heavy = {
        "source": result.source,
        "config": result.config.to_dict(),
        "structure": _structure(result.module),
        "execution": _enc_execution(result.execution, index, tail),
        "dswp": _enc_dswp(result.dswp, index),
    }
    body = b"\n".join((_dumps(summary), _dumps(heavy), _deflate(tail)))
    return ARTIFACT_MAGIC + b"%08x\n" % zlib.crc32(body) + body


def decode_heavy(data: bytes, name: str, outputs: List[int]) -> Dict[str, Any]:
    """The heavy fields of result *name*: the stored ones decoded, the rest
    rebuilt from its source and config, with every check above.

    The rebuild runs the front end and SSA passes, decodes the execution
    and the partitions onto that module, picks the profile as the compile
    did, re-extracts the threads when the config asks for them and re-runs
    LegUp.  A module whose structural digest differs from the stored one
    raises :class:`ArtifactCodecError`.

    *data* is the payload after its summary line: the heavy JSON line and
    the binary tail.  The lazy result
    :func:`repro.eval.artifact_codec.decode_compilation_result` returns
    calls this on the first read of a heavy field.
    """
    from repro.config import CompilerConfig
    from repro.core.compiler import TwillCompiler
    from repro.dswp.pipeline import extract_partition_threads
    from repro.hls.legup import LegUpFlow

    line, newline, tail = data.partition(b"\n")
    with _malformed("artifact heavy part"):
        if not newline:
            raise ArtifactCodecError("artifact has no binary tail")
        document = json.loads(line)
        execution = document["execution"]
        columns = iter(_inflate(tail, _execution_shapes(execution)))
        source, config = document["source"], CompilerConfig.from_dict(document["config"])
        compiler = TwillCompiler(config)
        module = compiler.compile_module(source, name)
        instructions = _instruction_list(module)
        decoded = _dec_execution(execution, outputs, instructions, columns)
        profile = compiler.profile(module, decoded.trace)
        dswp = _dec_dswp(document["dswp"], module, instructions, profile)
        if config.extract_threads:
            extract_partition_threads(dswp.partitioning)
        if _structure(module) != document["structure"]:
            raise ArtifactCodecError("the rebuilt module differs from the stored structure")
        return {
            "module": module,
            "execution": decoded,
            "profile": profile,
            "dswp": dswp,
            "legup": LegUpFlow(config.hls).run(module),
            "source": source,
            "config": config,
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
