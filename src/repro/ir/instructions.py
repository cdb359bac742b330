"""Instruction set of the SSA intermediate representation.

The instruction set closely follows the LLVM subset that Twill's compiler
passes manipulate: integer arithmetic, comparisons, select, memory access
(alloca / load / store / getelementptr), casts, control flow (br / condbr /
switch / ret), phi nodes and calls.  Two extra instructions —
:class:`Produce` and :class:`Consume` — model the DSWP enqueue/dequeue
primitives that Twill's thread extraction inserts.

Operand management:  every instruction stores its operands in
``self._operands`` and keeps each operand's use list in sync through
:meth:`Instruction.set_operand`, which is what makes
``Value.replace_all_uses_with`` work.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.types import VOID, I1, IntType, PointerType, Type
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock
    from repro.ir.function import Function


class Opcode(str, Enum):
    """Every IR opcode.  The string value is used by the printer and the cost tables."""

    # arithmetic / bitwise
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    # comparisons and select
    ICMP = "icmp"
    SELECT = "select"
    # memory
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GEP = "getelementptr"
    # casts
    TRUNC = "trunc"
    ZEXT = "zext"
    SEXT = "sext"
    BITCAST = "bitcast"
    # control flow
    BR = "br"
    CONDBR = "condbr"
    SWITCH = "switch"
    RET = "ret"
    # SSA / calls
    PHI = "phi"
    CALL = "call"
    # DSWP communication primitives
    PRODUCE = "produce"
    CONSUME = "consume"


BINARY_OPCODES = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.SDIV,
    Opcode.UDIV,
    Opcode.SREM,
    Opcode.UREM,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.LSHR,
    Opcode.ASHR,
}

CAST_OPCODES = {Opcode.TRUNC, Opcode.ZEXT, Opcode.SEXT, Opcode.BITCAST}

TERMINATOR_OPCODES = {Opcode.BR, Opcode.CONDBR, Opcode.SWITCH, Opcode.RET}


class CmpPredicate(str, Enum):
    """Integer comparison predicates (signed and unsigned)."""

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    def is_signed(self) -> bool:
        return self in (CmpPredicate.SLT, CmpPredicate.SLE, CmpPredicate.SGT, CmpPredicate.SGE)

    def swapped(self) -> "CmpPredicate":
        """Predicate with operands swapped (a pred b  ==  b swapped(pred) a)."""
        table = {
            CmpPredicate.EQ: CmpPredicate.EQ,
            CmpPredicate.NE: CmpPredicate.NE,
            CmpPredicate.SLT: CmpPredicate.SGT,
            CmpPredicate.SLE: CmpPredicate.SGE,
            CmpPredicate.SGT: CmpPredicate.SLT,
            CmpPredicate.SGE: CmpPredicate.SLE,
            CmpPredicate.ULT: CmpPredicate.UGT,
            CmpPredicate.ULE: CmpPredicate.UGE,
            CmpPredicate.UGT: CmpPredicate.ULT,
            CmpPredicate.UGE: CmpPredicate.ULE,
        }
        return table[self]


class Instruction(Value):
    """Base class for all instructions.

    Instructions are values (their result can be used as an operand), belong
    to a basic block, and carry an ordered operand list.
    """

    opcode: Opcode

    def __init__(self, opcode: Opcode, type: Type, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(type, name=name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        self._operands: List[Value] = []
        for op in operands:
            self.append_operand(op)

    # -- operand management --------------------------------------------------

    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    def num_operands(self) -> int:
        return len(self._operands)

    def get_operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(self, index)

    def append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(self, index)

    def remove_operand(self, index: int) -> None:
        """Remove operand ``index``; later operand indices shift down by one."""
        self._operands[index]._remove_use(self, index)
        # Re-register the trailing operands under their new indices.
        for i in range(index + 1, len(self._operands)):
            self._operands[i]._remove_use(self, i)
        del self._operands[index]
        for i in range(index, len(self._operands)):
            self._operands[i]._add_use(self, i)

    def drop_all_operands(self) -> None:
        for i, op in enumerate(self._operands):
            op._remove_use(self, i)
        self._operands.clear()

    # -- structural queries ---------------------------------------------------

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    def is_cast(self) -> bool:
        return self.opcode in CAST_OPCODES

    def is_phi(self) -> bool:
        return self.opcode is Opcode.PHI

    def has_side_effects(self) -> bool:
        """True for instructions that must not be removed even if unused."""
        return self.opcode in (
            Opcode.STORE,
            Opcode.CALL,
            Opcode.RET,
            Opcode.BR,
            Opcode.CONDBR,
            Opcode.SWITCH,
            Opcode.PRODUCE,
            Opcode.CONSUME,
        )

    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # -- mutation helpers ------------------------------------------------------

    def erase_from_parent(self) -> None:
        """Detach this instruction from its block and drop its operand uses."""
        if self.is_used():
            raise IRError(f"cannot erase {self}: it still has uses")
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_operands()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.opcode.value} {self.short_name()}>"


# ---------------------------------------------------------------------------
# Concrete instructions
# ---------------------------------------------------------------------------


class BinaryOp(Instruction):
    """Two-operand integer arithmetic / bitwise instruction."""

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPCODES:
            raise IRError(f"{opcode} is not a binary opcode")
        if not isinstance(lhs.type, IntType):
            raise IRError(f"binary op operand must be integer, got {lhs.type!r}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name=name)

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class ICmp(Instruction):
    """Integer comparison producing an i1."""

    def __init__(self, predicate: CmpPredicate, lhs: Value, rhs: Value, name: str = ""):
        super().__init__(Opcode.ICMP, I1, [lhs, rhs], name=name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.get_operand(0)

    @property
    def rhs(self) -> Value:
        return self.get_operand(1)


class Select(Instruction):
    """``select cond, true_value, false_value`` — a data-flow conditional."""

    def __init__(self, cond: Value, tval: Value, fval: Value, name: str = ""):
        super().__init__(Opcode.SELECT, tval.type, [cond, tval, fval], name=name)

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    @property
    def true_value(self) -> Value:
        return self.get_operand(1)

    @property
    def false_value(self) -> Value:
        return self.get_operand(2)


class Alloca(Instruction):
    """Stack allocation of one object of ``allocated_type``; yields a pointer."""

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(Opcode.ALLOCA, PointerType(allocated_type), [], name=name)
        self.allocated_type = allocated_type


class Load(Instruction):
    """Load a scalar from a pointer."""

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"load requires a pointer operand, got {ptr.type!r}")
        pointee = ptr.type.pointee
        super().__init__(Opcode.LOAD, pointee, [ptr], name=name)

    @property
    def pointer(self) -> Value:
        return self.get_operand(0)


class Store(Instruction):
    """Store a scalar through a pointer.  Produces no value."""

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"store requires a pointer operand, got {ptr.type!r}")
        super().__init__(Opcode.STORE, VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    @property
    def pointer(self) -> Value:
        return self.get_operand(1)


class GetElementPtr(Instruction):
    """Pointer arithmetic over arrays: ``gep base, idx0[, idx1...]``.

    ``result_type`` must be supplied by the builder because element
    navigation through nested arrays depends on the base's value type.
    """

    def __init__(self, base: Value, indices: Sequence[Value], result_type: PointerType, name: str = ""):
        super().__init__(Opcode.GEP, result_type, [base, *indices], name=name)

    @property
    def base(self) -> Value:
        return self.get_operand(0)

    @property
    def indices(self) -> List[Value]:
        return self._operands[1:]


class Cast(Instruction):
    """Integer width/signedness conversion (trunc / zext / sext / bitcast)."""

    def __init__(self, opcode: Opcode, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPCODES:
            raise IRError(f"{opcode} is not a cast opcode")
        super().__init__(opcode, to_type, [value], name=name)

    @property
    def value(self) -> Value:
        return self.get_operand(0)


class Branch(Instruction):
    """Unconditional branch.  The target block is stored as ``target`` (not an operand)."""

    def __init__(self, target: "BasicBlock"):
        super().__init__(Opcode.BR, VOID, [])
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class CondBranch(Instruction):
    """Conditional branch on an i1 condition."""

    def __init__(self, cond: Value, true_target: "BasicBlock", false_target: "BasicBlock"):
        super().__init__(Opcode.CONDBR, VOID, [cond])
        self.true_target = true_target
        self.false_target = false_target

    @property
    def condition(self) -> Value:
        return self.get_operand(0)

    def successors(self) -> List["BasicBlock"]:
        return [self.true_target, self.false_target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.true_target is old:
            self.true_target = new
        if self.false_target is old:
            self.false_target = new


class Switch(Instruction):
    """Multi-way branch; lowered to a chain of CondBranches by the lower-switch pass."""

    def __init__(self, value: Value, default: "BasicBlock", cases: Sequence[Tuple[int, "BasicBlock"]] = ()):
        super().__init__(Opcode.SWITCH, VOID, [value])
        self.default = default
        self.cases: List[Tuple[int, "BasicBlock"]] = list(cases)

    @property
    def value(self) -> Value:
        return self.get_operand(0)

    def add_case(self, const: int, block: "BasicBlock") -> None:
        self.cases.append((const, block))

    def successors(self) -> List["BasicBlock"]:
        return [self.default] + [b for _, b in self.cases]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.default is old:
            self.default = new
        self.cases = [(c, new if b is old else b) for c, b in self.cases]


class Return(Instruction):
    """Return from the current function, optionally with a value."""

    def __init__(self, value: Optional[Value] = None):
        super().__init__(Opcode.RET, VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.get_operand(0) if self.num_operands() else None

    def successors(self) -> List["BasicBlock"]:
        return []

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:  # pragma: no cover
        pass


class Phi(Instruction):
    """SSA phi node.  Incoming blocks are kept parallel to the operand list."""

    def __init__(self, type: Type, name: str = ""):
        super().__init__(Opcode.PHI, type, [], name=name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise IRError(f"phi {self.short_name()} has no incoming value for block {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.remove_operand(i)
                del self.incoming_blocks[i]
                return
        raise IRError(f"phi {self.short_name()} has no incoming edge from {block.name}")

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming_blocks = [new if b is old else b for b in self.incoming_blocks]


class Call(Instruction):
    """Direct call.  ``callee`` is a Function (function pointers are unsupported,
    matching Twill's documented restriction)."""

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        super().__init__(Opcode.CALL, callee.return_type, list(args), name=name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return list(self._operands)


class Produce(Instruction):
    """DSWP enqueue: send ``value`` into hardware queue ``queue_id``."""

    def __init__(self, queue_id: int, value: Value):
        super().__init__(Opcode.PRODUCE, VOID, [value])
        self.queue_id = queue_id

    @property
    def value(self) -> Value:
        return self.get_operand(0)


class Consume(Instruction):
    """DSWP dequeue: receive a value of ``type`` from hardware queue ``queue_id``."""

    def __init__(self, queue_id: int, type: Type, name: str = ""):
        super().__init__(Opcode.CONSUME, type, [], name=name)
        self.queue_id = queue_id


# ---------------------------------------------------------------------------
# Constant folding helper (shared by constprop and the interpreter)
# ---------------------------------------------------------------------------


def evaluate_binary(opcode: Opcode, type: IntType, a: int, b: int) -> int:
    """Evaluate a binary opcode on Python ints, with C semantics for the given type.

    Division and remainder follow C's truncation-toward-zero semantics.
    Raises ZeroDivisionError for division by zero (the interpreter converts
    that into a trap).
    """
    if opcode is Opcode.ADD:
        r = a + b
    elif opcode is Opcode.SUB:
        r = a - b
    elif opcode is Opcode.MUL:
        r = a * b
    elif opcode in (Opcode.SDIV, Opcode.UDIV):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if opcode is Opcode.UDIV:
            ua = a & ((1 << type.bits) - 1)
            ub = b & ((1 << type.bits) - 1)
            r = ua // ub
        else:
            q = abs(a) // abs(b)
            r = q if (a >= 0) == (b >= 0) else -q
    elif opcode in (Opcode.SREM, Opcode.UREM):
        if b == 0:
            raise ZeroDivisionError("remainder by zero")
        if opcode is Opcode.UREM:
            ua = a & ((1 << type.bits) - 1)
            ub = b & ((1 << type.bits) - 1)
            r = ua % ub
        else:
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            r = a - q * b
    elif opcode is Opcode.AND:
        r = a & b
    elif opcode is Opcode.OR:
        r = a | b
    elif opcode is Opcode.XOR:
        r = a ^ b
    elif opcode is Opcode.SHL:
        r = a << (b & (type.bits - 1))
    elif opcode is Opcode.LSHR:
        ua = a & ((1 << type.bits) - 1)
        r = ua >> (b & (type.bits - 1))
    elif opcode is Opcode.ASHR:
        r = type.wrap(a) >> (b & (type.bits - 1))
    else:
        raise IRError(f"not a binary opcode: {opcode}")
    return type.wrap(r)


def evaluate_icmp(predicate: CmpPredicate, type: IntType, a: int, b: int) -> int:
    """Evaluate an integer comparison with C semantics; returns 0 or 1."""
    if predicate.is_signed() or predicate in (CmpPredicate.EQ, CmpPredicate.NE):
        sa, sb = type.wrap(a), type.wrap(b)
    else:
        mask = (1 << type.bits) - 1
        sa, sb = a & mask, b & mask
    table = {
        CmpPredicate.EQ: sa == sb,
        CmpPredicate.NE: sa != sb,
        CmpPredicate.SLT: sa < sb,
        CmpPredicate.SLE: sa <= sb,
        CmpPredicate.SGT: sa > sb,
        CmpPredicate.SGE: sa >= sb,
        CmpPredicate.ULT: sa < sb,
        CmpPredicate.ULE: sa <= sb,
        CmpPredicate.UGT: sa > sb,
        CmpPredicate.UGE: sa >= sb,
    }
    return 1 if table[predicate] else 0
