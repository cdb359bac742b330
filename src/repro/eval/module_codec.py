"""The JSON form of an IR module: the part of the artifact codec that needs the IR.

:func:`encode_module` writes a module's globals and functions, naming every
instruction operand by its global index (see
:mod:`repro.eval.artifact_codec`); :func:`decode_module` rebuilds the
module from that form through a fixed table of IR classes.  The heavy
encode and decode of :mod:`repro.eval.artifact_codec` import this module
when they run, so a warm report, which decodes only artifact summaries,
never loads the IR.

Reconstruction of instructions is two-pass because phi operands may
reference instructions that appear later in the block order: pass one
creates operand-less shells (via ``cls.__new__`` plus explicit field
initialisation), pass two appends operands through the normal
``append_operand`` path so def-use lists stay consistent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.eval.artifact_codec import ArtifactCodecError, _instruction_index
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPCODES,
    CAST_OPCODES,
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CmpPredicate,
    CondBranch,
    Consume,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Opcode,
    Phi,
    Produce,
    Return,
    Select,
    Store,
    Switch,
)
from repro.ir.module import Module
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VoidType,
    VOID,
)
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def _enc_type(ty: Type) -> Any:
    if isinstance(ty, VoidType):
        return "void"
    if isinstance(ty, IntType):
        return ["i", ty.bits, ty.signed]
    if isinstance(ty, PointerType):
        return ["p", _enc_type(ty.pointee)]
    if isinstance(ty, ArrayType):
        return ["a", _enc_type(ty.element), ty.count]
    if isinstance(ty, FunctionType):
        return ["f", _enc_type(ty.return_type), [_enc_type(p) for p in ty.param_types]]
    raise ArtifactCodecError(f"cannot encode type {ty!r}")


def _dec_type(data: Any) -> Type:
    if data == "void":
        return VOID
    tag = data[0]
    if tag == "i":
        return IntType(data[1], data[2])
    if tag == "p":
        return PointerType(_dec_type(data[1]))
    if tag == "a":
        return ArrayType(_dec_type(data[1]), data[2])
    if tag == "f":
        return FunctionType(_dec_type(data[1]), tuple(_dec_type(p) for p in data[2]))
    raise ArtifactCodecError(f"unknown type tag {tag!r}")


# ---------------------------------------------------------------------------
# the module codec
# ---------------------------------------------------------------------------


class _ValueCodec:
    """Encodes/decodes operand references against one module's index."""

    def __init__(self, module: Module, index: Dict[Instruction, int]):
        self.module = module
        self.index = index

    def encode(self, value: Value) -> Any:
        if isinstance(value, Instruction):
            return ["i", self.index[value]]
        if isinstance(value, Constant):
            return ["c", _enc_type(value.type), value.value]
        if isinstance(value, Argument):
            if value.parent is None:
                raise ArtifactCodecError(f"argument {value.name} has no parent function")
            return ["a", value.parent.name, value.index]
        if isinstance(value, GlobalVariable):
            return ["g", value.name]
        if isinstance(value, Function):
            return ["f", value.name]
        if isinstance(value, UndefValue):
            return ["u", _enc_type(value.type), value.name]
        raise ArtifactCodecError(f"cannot encode operand {value!r}")

    def decode(self, data: Any, instructions: List[Instruction]) -> Value:
        tag = data[0]
        if tag == "i":
            if data[1] < 0:  # would silently index from the end
                raise ArtifactCodecError(f"negative instruction index {data[1]}")
            return instructions[data[1]]
        if tag == "c":
            return Constant(_dec_type(data[1]), data[2])
        if tag == "a":
            return self.module.get_function(data[1]).args[data[2]]
        if tag == "g":
            return self.module.get_global(data[1])
        if tag == "f":
            return self.module.get_function(data[1])
        if tag == "u":
            return UndefValue(_dec_type(data[1]), name=data[2])
        raise ArtifactCodecError(f"unknown operand tag {tag!r}")


def _enc_instruction(inst: Instruction, codec: _ValueCodec, block_index: Dict[int, int]) -> Dict:
    record: Dict[str, Any] = {
        "op": inst.opcode.value,
        "n": inst.name,
        "t": _enc_type(inst.type),
        "x": [codec.encode(op) for op in inst._operands],
    }
    if isinstance(inst, ICmp):
        record["pred"] = inst.predicate.value
    elif isinstance(inst, Branch):
        record["tgt"] = block_index[id(inst.target)]
    elif isinstance(inst, CondBranch):
        record["tt"] = block_index[id(inst.true_target)]
        record["ft"] = block_index[id(inst.false_target)]
    elif isinstance(inst, Switch):
        record["dflt"] = block_index[id(inst.default)]
        record["cases"] = [[c, block_index[id(b)]] for c, b in inst.cases]
    elif isinstance(inst, Phi):
        record["inb"] = [block_index[id(b)] for b in inst.incoming_blocks]
    elif isinstance(inst, Call):
        record["callee"] = inst.callee.name
    elif isinstance(inst, (Produce, Consume)):
        record["q"] = inst.queue_id
    return record


_CLASS_BY_OPCODE: Dict[Opcode, type] = {
    Opcode.ICMP: ICmp,
    Opcode.SELECT: Select,
    Opcode.ALLOCA: Alloca,
    Opcode.LOAD: Load,
    Opcode.STORE: Store,
    Opcode.GEP: GetElementPtr,
    Opcode.BR: Branch,
    Opcode.CONDBR: CondBranch,
    Opcode.SWITCH: Switch,
    Opcode.RET: Return,
    Opcode.PHI: Phi,
    Opcode.CALL: Call,
    Opcode.PRODUCE: Produce,
    Opcode.CONSUME: Consume,
}


def _inst_class(opcode: Opcode) -> type:
    cls = _CLASS_BY_OPCODE.get(opcode)
    if cls is not None:
        return cls
    if opcode in BINARY_OPCODES:
        return BinaryOp
    if opcode in CAST_OPCODES:
        return Cast
    raise ArtifactCodecError(f"no instruction class for opcode {opcode!r}")


def _dec_instruction_shell(record: Dict, module: Module, blocks: List[BasicBlock]) -> Instruction:
    """Pass one: an operand-less instruction with every non-operand field set.

    Bypasses ``__init__`` (operands are not available yet — phis reference
    later instructions) and initialises the ``Value``/``Instruction`` fields
    by hand, exactly the set the constructors would have produced.
    """
    opcode = Opcode(record["op"])
    cls = _inst_class(opcode)
    inst = cls.__new__(cls)
    inst.type = _dec_type(record["t"])
    inst.name = record["n"]
    inst._uses = []
    inst.opcode = opcode
    inst.parent = None
    inst._operands = []
    if cls is ICmp:
        inst.predicate = CmpPredicate(record["pred"])
    elif cls is Alloca:
        inst.allocated_type = inst.type.pointee
    elif cls is Branch:
        inst.target = blocks[record["tgt"]]
    elif cls is CondBranch:
        inst.true_target = blocks[record["tt"]]
        inst.false_target = blocks[record["ft"]]
    elif cls is Switch:
        inst.default = blocks[record["dflt"]]
        inst.cases = [(c, blocks[b]) for c, b in record["cases"]]
    elif cls is Phi:
        inst.incoming_blocks = [blocks[b] for b in record["inb"]]
    elif cls is Call:
        inst.callee = module.get_function(record["callee"])
    elif cls in (Produce, Consume):
        inst.queue_id = record["q"]
    return inst


def encode_module(module: Module) -> Dict:
    index = _instruction_index(module)
    codec = _ValueCodec(module, index)
    globals_out = []
    for g in module.globals.values():
        globals_out.append(
            {
                "name": g.name,
                "type": _enc_type(g.value_type),
                "init": _enc_initializer(g.initializer),
                "const": g.is_const,
            }
        )
    functions_out = []
    for fn in module.functions.values():
        block_index = {id(b): i for i, b in enumerate(fn.blocks)}
        functions_out.append(
            {
                "name": fn.name,
                "type": _enc_type(fn.function_type),
                "params": [a.name for a in fn.args],
                "name_counter": fn._name_counter,
                "block_counter": fn._block_counter,
                "blocks": [
                    {
                        "name": block.name,
                        "insts": [_enc_instruction(i, codec, block_index) for i in block.instructions],
                    }
                    for block in fn.blocks
                ],
            }
        )
    return {"name": module.name, "globals": globals_out, "functions": functions_out}


def _enc_initializer(init: Any) -> Any:
    if init is None or isinstance(init, int):
        return init
    if isinstance(init, (list, tuple)):
        return [_enc_initializer(x) for x in init]
    raise ArtifactCodecError(f"cannot encode global initializer {init!r}")


def decode_module(data: Dict) -> Tuple[Module, List[Instruction]]:
    """Rebuild the module; also returns the global-index -> instruction list."""
    module = Module(data["name"])
    for g in data["globals"]:
        module.create_global(g["name"], _dec_type(g["type"]), g["init"], g["const"])
    # Functions first (operand-less), so calls and function-ref operands
    # resolve regardless of definition order.
    for f in data["functions"]:
        ftype = _dec_type(f["type"])
        if not isinstance(ftype, FunctionType):
            raise ArtifactCodecError(f"function {f['name']} has non-function type")
        module.create_function(f["name"], ftype, list(f["params"]))
    codec = _ValueCodec(module, {})
    instructions: List[Instruction] = []
    shells: List[Tuple[Instruction, Dict]] = []
    for f in data["functions"]:
        fn = module.get_function(f["name"])
        fn._name_counter = f["name_counter"]
        fn._block_counter = f["block_counter"]
        blocks = [fn.append_block(BasicBlock(b["name"])) for b in f["blocks"]]
        for block, b in zip(blocks, f["blocks"]):
            for record in b["insts"]:
                inst = _dec_instruction_shell(record, module, blocks)
                block.append(inst)
                instructions.append(inst)
                shells.append((inst, record))
    # Pass two: operands, now that every instruction exists.
    for inst, record in shells:
        for ref in record["x"]:
            inst.append_operand(codec.decode(ref, instructions))
    return module, instructions
