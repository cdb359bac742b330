"""Functional interpreter for the SSA IR.

Executes a module starting from ``main`` (or any named function), producing
the program outputs, an optional dynamic :class:`~repro.interp.trace.Trace`
and memory statistics.  Semantics follow C on a 32-bit machine: two's
complement wrap-around, truncation toward zero for division, and traps on
division by zero.

**Decode.**  Each function is decoded once per :class:`Interpreter`, on its
first call, and kept under its ``Function`` object.  Every block reachable
from the entry becomes its body ops and its terminator op.  An op holds its
kind, a cell for its trace number (``-1`` until its first execution
numbers it), its static instruction, its dep slots (the slots of its
instruction and argument operands, in ``_operands`` order), its result
slot, its operand slots and whatever decode could fold: binary and compare
functions with their wrap masks, GEP strides, cast masks, and branch
targets as block indices.  A block's leading phis become one copy list per
predecessor edge, keyed by the predecessor ``BasicBlock``.

**Slots.**  Every value a function reads gets a slot.  Constants, ``undef``
and globals (resolved to this run's addresses) are filled in once, in the
function's frame template; instruction and argument slots start out as
``None``, which is how a read before the definition is caught.  A frame is
two lists indexed by slot: values, copied from the template on each call,
and producing events.  No binding is keyed on an object's identity.

**Inline recording.**  A tracing run appends each event straight to the
trace's columns: the dep slots' events, then one entry per column.
Instructions are numbered in order of first execution through
``Trace._numbers``, as :meth:`Trace.record` numbers them.  Whether an event
begins a new block occurrence is read from a per-number table of the block
each numbered instruction keeps open (its parent block, or ``None`` for a
terminator) — the test :meth:`Trace.enter_block` makes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InterpreterError, InterpreterTrap
from repro.interp.memory import SimulatedMemory
from repro.interp.trace import HAS_ADDRESS, HAS_VALUE, Trace
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
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
    evaluate_binary,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType, IntType, PointerType, VoidType
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from repro.results import output_checksum


DEFAULT_MAX_STEPS = 20_000_000


@dataclass
class ExecutionResult:
    """Everything produced by one functional run."""

    return_value: Optional[int]
    outputs: List[int]
    steps: int
    trace: Optional[Trace]
    memory: SimulatedMemory

    @property
    def output_checksum(self) -> int:
        """Order-sensitive checksum of the printed outputs (FNV-1a style)."""
        return output_checksum(self.outputs)


# Op kinds.  An op is ``[kind, trace number, instruction, dep slots, result
# slot, ...]``; the comments list the rest.  Body ops, in the order the run
# loop tests them (most frequent first):
(
    _BINARY,  # lhs, rhs, fn, mask, sign, modulus
    _ICMP,  # lhs, rhs, compare, mask, sign, modulus
    _GEP,  # base, ((index slot, stride), ...)
    _LOAD,  # pointer, loaded type
    _CAST,  # value, pre-mask, pre-sign, pre-modulus, mask, sign, modulus
    _STORE,  # value, pointer, stored type
    _SELECT,  # condition, true value, false value
    _CALL,  # callee, argument slots, prints, returns a value
    _ALLOCA,  # allocated type
    _PRODUCE,  # value, queue id
    _CONSUME,  # queue id
    _UNSUPPORTED,  # error message
    # Terminators, one per block:
    _CONDBR,  # condition, true block index, false block index
    _BR,  # target block index
    _SWITCH,  # value, default block index, {case: block index}
    _RETURN,  # value slot or -1
) = range(16)

_SIMPLE_BINARY = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
}

_COMPARE = {
    CmpPredicate.EQ: operator.eq,
    CmpPredicate.NE: operator.ne,
    CmpPredicate.SLT: operator.lt,
    CmpPredicate.SLE: operator.le,
    CmpPredicate.SGT: operator.gt,
    CmpPredicate.SGE: operator.ge,
    CmpPredicate.ULT: operator.lt,
    CmpPredicate.ULE: operator.le,
    CmpPredicate.UGT: operator.gt,
    CmpPredicate.UGE: operator.ge,
}


def _wrap_masks(ty: IntType, signed: bool) -> Tuple[int, int, int]:
    """(mask, sign bit, modulus): ``v &= mask; if v & sign: v -= modulus`` wraps."""
    return (1 << ty.bits) - 1, (1 << (ty.bits - 1)) if signed else 0, 1 << ty.bits


def _binary_fn(opcode: Opcode, ty: IntType):
    """The unwrapped two-operand function of ``opcode`` (the caller wraps)."""
    simple = _SIMPLE_BINARY.get(opcode)
    if simple is not None:
        return simple
    mask, sign, _ = _wrap_masks(ty, ty.signed)
    shift = ty.bits - 1
    if opcode is Opcode.SHL:
        return lambda a, b: a << (b & shift)
    if opcode is Opcode.LSHR:
        return lambda a, b: (a & mask) >> (b & shift)
    if opcode is Opcode.ASHR:
        return lambda a, b: ((a & mask) - ((a & sign) << 1)) >> (b & shift)
    # Division and remainder: rare, and their C semantics live in one place.
    return partial(evaluate_binary, opcode, ty)


class _Code:
    """One function's decoded form."""

    __slots__ = ("blocks", "template", "arg_slots", "slots")

    def __init__(
        self, blocks: List[list], template: list, arg_slots: List[int], slots: Dict[Value, int]
    ):
        self.blocks = blocks  # [block, phi edges, body ops, terminator op]; the entry first
        self.template = template
        self.arg_slots = arg_slots
        self.slots = slots


class Interpreter:
    """Interprets IR modules."""

    def __init__(
        self,
        module: Module,
        record_trace: bool = False,
        max_steps: int = DEFAULT_MAX_STEPS,
    ):
        self.module = module
        self.record_trace = record_trace
        self.max_steps = max_steps
        self.memory = SimulatedMemory()
        self.memory.load_globals(module)
        self.outputs: List[int] = []
        self.trace: Optional[Trace] = Trace() if record_trace else None
        self.steps = 0
        self._last_store_event: Dict[int, int] = {}
        # Queues used only when interpreting DSWP-transformed IR functionally.
        self.queues: Dict[int, List[int]] = {}
        self._code: Dict[Function, _Code] = {}
        # Trace number -> the block its events keep open (None: a terminator).
        self._open_block: List[Optional[BasicBlock]] = []

    # -- public API ---------------------------------------------------------------

    def run(self, function: str = "main", args: Sequence[int] = ()) -> ExecutionResult:
        fn = self.module.get_function(function)
        arg_values = list(args) + [0] * max(0, len(fn.args) - len(args))
        arg_events = [None] * len(arg_values) if self.trace is not None else None
        value, _ = self._call(fn, arg_values, arg_events)
        return ExecutionResult(
            return_value=value,
            outputs=list(self.outputs),
            steps=self.steps,
            trace=self.trace,
            memory=self.memory,
        )

    # -- decode ---------------------------------------------------------------------

    def _decode(self, fn: Function) -> _Code:
        entry_block = fn.entry_block
        if entry_block is None:
            raise InterpreterError(f"function {fn.name} has no entry block")
        slots: Dict[Value, int] = {}
        template: List[Optional[int]] = []
        addresses = self.memory.global_addresses

        def slot(value: Value) -> int:
            s = slots.get(value)
            if s is None:
                s = slots[value] = len(template)
                if isinstance(value, Constant):
                    template.append(value.value)
                elif isinstance(value, GlobalVariable):
                    template.append(addresses.get(value.name))
                elif isinstance(value, UndefValue):
                    template.append(0)
                else:  # set by the run, or never (a read of it raises)
                    template.append(None)
            return s

        # Branch targets are block indices, so the tables hold no cycle and
        # die with the run by reference counting.
        blocks: List[list] = []
        numbers: Dict[BasicBlock, int] = {}

        def block(bb: BasicBlock) -> int:
            n = numbers.get(bb)
            if n is None:
                n = numbers[bb] = len(blocks)
                blocks.append([bb, None, None, None])
            return n

        arg_slots = [slot(arg) for arg in fn.args]
        block(entry_block)
        for d in blocks:  # grows as terminators name new targets
            bb = d[0]
            d[1] = self._decode_phis(bb, slot)
            d[2] = body = []
            for inst in bb.instructions:
                cls = inst.__class__
                if cls is Phi:
                    continue
                deps = tuple(
                    slot(v) for v in inst._operands if isinstance(v, (Instruction, Argument))
                )
                op = self._decode_op(inst, cls, slot, block)
                op[1:1] = (-1, inst, deps, slot(inst))
                if cls is Return or cls is Branch or cls is CondBranch or cls is Switch:
                    d[3] = op
                    break
                body.append(op)
        return _Code(blocks, template, arg_slots, slots)

    @staticmethod
    def _decode_phis(bb: BasicBlock, slot) -> Optional[Dict[BasicBlock, list]]:
        """Predecessor -> copy ops of the block's leading phis, or None."""
        phis = bb.phis()
        if not phis:
            return None
        incoming = []
        for phi in phis:
            sources: Dict[BasicBlock, int] = {}
            for value, pred in phi.incoming():
                sources.setdefault(pred, slot(value))
            incoming.append(sources)
        edges = {}
        for pred in incoming[0]:
            if all(pred in sources for sources in incoming):
                edges[pred] = [
                    [None, -1, phi, None, slot(phi), sources[pred]]
                    for phi, sources in zip(phis, incoming)
                ]
        return edges

    def _decode_op(self, inst: Instruction, cls: type, slot, block) -> list:
        """An op without its common head (trace number, instruction, deps, result)."""
        operands = inst._operands
        if cls is Return:
            return [_RETURN, slot(operands[0]) if operands else -1]
        if cls is Branch:
            return [_BR, block(inst.target)]
        if cls is CondBranch:
            return [_CONDBR, slot(inst.condition), block(inst.true_target), block(inst.false_target)]
        if cls is Switch:
            cases: Dict[int, int] = {}
            for value, target in inst.cases:
                cases.setdefault(value, block(target))
            return [_SWITCH, slot(inst.value), block(inst.default), cases]
        if isinstance(inst, BinaryOp):
            ty = inst.type
            return [_BINARY, slot(inst.lhs), slot(inst.rhs), _binary_fn(inst.opcode, ty),
                    *_wrap_masks(ty, ty.signed)]
        if isinstance(inst, ICmp):
            ty = inst.lhs.type if isinstance(inst.lhs.type, IntType) else IntType(32, True)
            predicate = inst.predicate
            wrapped = predicate.is_signed() or predicate in (CmpPredicate.EQ, CmpPredicate.NE)
            return [_ICMP, slot(inst.lhs), slot(inst.rhs), _COMPARE[predicate],
                    *_wrap_masks(ty, wrapped and ty.signed)]
        if isinstance(inst, Select):
            return [_SELECT, *map(slot, operands)]
        if isinstance(inst, Alloca):
            return [_ALLOCA, inst.allocated_type]
        if isinstance(inst, Load):
            return [_LOAD, slot(inst.pointer), inst.type]
        if isinstance(inst, Store):
            return [_STORE, slot(inst.value), slot(inst.pointer), inst.value.type]
        if isinstance(inst, GetElementPtr):
            base_type = inst.base.type
            assert isinstance(base_type, PointerType)
            current = base_type.pointee
            strides = []
            for index in inst.indices:
                if isinstance(current, ArrayType):
                    current = current.element
                strides.append((slot(index), current.size_bytes()))
            return [_GEP, slot(inst.base), tuple(strides)]
        if isinstance(inst, Cast):
            src, dst = inst.value.type, inst.type
            assert isinstance(dst, (IntType, PointerType))
            pre = post = (-1, 0, 0)  # the identity
            if isinstance(dst, IntType):
                post = _wrap_masks(dst, dst.signed)
                if inst.opcode is Opcode.ZEXT and isinstance(src, IntType):
                    pre = _wrap_masks(src, False)
                elif inst.opcode is Opcode.SEXT and isinstance(src, IntType):
                    pre = _wrap_masks(src, src.signed)
            return [_CAST, slot(inst.value), *pre, *post]
        if isinstance(inst, Call):
            callee = inst.callee
            prints = callee.is_declaration() and callee.name == "print_int"
            return [_CALL, callee, tuple(map(slot, operands)), prints,
                    not isinstance(inst.type, VoidType)]
        if isinstance(inst, Produce):
            return [_PRODUCE, slot(inst.value), inst.queue_id]
        if isinstance(inst, Consume):
            return [_CONSUME, inst.queue_id]
        return [_UNSUPPORTED, f"cannot interpret instruction class {cls.__name__}"]

    # -- execution ----------------------------------------------------------------------

    def _call(
        self,
        fn: Function,
        arg_values: Sequence[int],
        arg_events: Optional[Sequence[Optional[int]]],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Execute ``fn``; returns (return value, producing event seq)."""
        code = self._code.get(fn)
        if code is None:
            if fn.is_declaration():
                return self._call_intrinsic(fn, arg_values, arg_events)
            code = self._code[fn] = self._decode(fn)
        vals = code.template[:]
        for s, value in zip(code.arg_slots, arg_values):
            vals[s] = value
        slots = code.slots
        name = fn.name
        max_steps = self.max_steps
        steps = self.steps
        memory = self.memory
        load = memory.load_typed
        store = memory.store_typed
        trace = self.trace
        rec = trace is not None
        if rec:
            evs: List[Optional[int]] = [None] * len(vals)
            for s, event in zip(code.arg_slots, arg_events):
                evs[s] = event
            number = self._number
            open_block = self._open_block
            last_store = self._last_store_event
            icol = trace.inst
            dcol = trace.deps
            dappend = dcol.append
            iappend = icol.append
            oappend = trace.dep_offsets.append
            mappend = trace.mem_dep.append
            aappend = trace.address.append
            vappend = trace.value.append
            pappend = trace.present.append
            sappend = trace.block_starts.append
            nev = len(icol)

        blocks = code.blocks
        block = blocks[0]
        prev: Optional[BasicBlock] = None
        try:
            while True:
                bb, edges, body, terminator = block
                if rec and (not nev or open_block[icol[-1]] is not bb):
                    sappend(nev)
                # Phis first, evaluated simultaneously from the incoming edge.
                if edges is not None:
                    copies = edges.get(prev)
                    if copies is None:
                        raise self._phi_error(bb, prev, vals, slots)
                    staged = [vals[c[5]] for c in copies]
                    if None in staged:
                        raise self._phi_error(bb, prev, vals, slots)
                    if rec:
                        staged_events = [evs[c[5]] for c in copies]
                    for i, c in enumerate(copies):
                        v = vals[c[4]] = staged[i]
                        if rec:
                            event = staged_events[i]
                            if event is not None:
                                dappend(event)
                            no = c[1]
                            if no < 0:
                                no = number(c, name)
                            iappend(no)
                            oappend(len(dcol))
                            mappend(-1)
                            aappend(0)
                            vappend(v)
                            pappend(HAS_VALUE)
                            evs[c[4]] = nev
                            nev += 1
                        steps += 1
                        if steps > max_steps:
                            raise InterpreterError(f"step limit exceeded ({max_steps})")
                prev = bb

                for op in body:
                    kind = op[0]
                    steps += 1
                    if steps > max_steps:
                        raise InterpreterError(f"step limit exceeded ({max_steps})")
                    mem = -1
                    address = 0
                    flags = HAS_VALUE
                    if kind == _BINARY:
                        a = vals[op[5]]
                        b = vals[op[6]]
                        if a is None or b is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        try:
                            v = op[7](a, b) & op[8]
                        except ZeroDivisionError as exc:
                            raise InterpreterTrap(f"division by zero in {name}") from exc
                        if v & op[9]:
                            v -= op[10]
                        vals[op[4]] = v
                    elif kind == _ICMP:
                        a = vals[op[5]]
                        b = vals[op[6]]
                        if a is None or b is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        mask = op[8]
                        sign = op[9]
                        a &= mask
                        if a & sign:
                            a -= op[10]
                        b &= mask
                        if b & sign:
                            b -= op[10]
                        v = vals[op[4]] = 1 if op[7](a, b) else 0
                    elif kind == _GEP:
                        address = vals[op[5]]
                        if address is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        for s, stride in op[6]:
                            index = vals[s]
                            if index is None:
                                raise self._undefined(vals, slots, op[2]._operands)
                            address += index * stride
                        v = vals[op[4]] = address
                        flags = HAS_ADDRESS | HAS_VALUE
                    elif kind == _LOAD:
                        address = vals[op[5]]
                        if address is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        v = vals[op[4]] = load(address, op[6])
                        if rec:
                            mem = last_store.get(address, -1)
                        flags = HAS_ADDRESS | HAS_VALUE
                    elif kind == _CAST:
                        v = vals[op[5]]
                        if v is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        v &= op[6]
                        if v & op[7]:
                            v -= op[8]
                        v &= op[9]
                        if v & op[10]:
                            v -= op[11]
                        vals[op[4]] = v
                    elif kind == _STORE:
                        address = vals[op[6]]
                        v = vals[op[5]]
                        if address is None or v is None:
                            raise self._undefined(vals, slots, reversed(op[2]._operands))
                        store(address, v, op[7])
                        flags = HAS_ADDRESS | HAS_VALUE
                        if rec:
                            last_store[address] = nev
                    elif kind == _SELECT:
                        cond = vals[op[5]]
                        if cond is None:
                            raise self._undefined(vals, slots, op[2]._operands[:1])
                        v = vals[op[6] if cond else op[7]]
                        if v is None:
                            raise self._undefined(vals, slots, (op[2]._operands[1 if cond else 2],))
                        vals[op[4]] = v
                    elif kind == _CALL:
                        args = [vals[s] for s in op[6]]
                        if None in args:
                            raise self._undefined(vals, slots, op[2]._operands)
                        # print_int is the program's observable output channel;
                        # recording the printed value on the Call event lets
                        # trace replays reproduce the output stream.
                        v = int(args[0]) if op[7] and args else None
                        if v is None:
                            flags = 0
                        events = [evs[s] for s in op[6]] if rec else None
                    elif kind == _ALLOCA:
                        address = v = vals[op[4]] = memory.allocate_stack(op[5])
                        flags = HAS_ADDRESS
                    elif kind == _PRODUCE:
                        v = vals[op[5]]
                        if v is None:
                            raise self._undefined(vals, slots, op[2]._operands)
                        self.queues.setdefault(op[6], []).append(v)
                    elif kind == _CONSUME:
                        queue = self.queues.setdefault(op[5], [])
                        if not queue:
                            raise InterpreterTrap(f"consume from empty queue {op[5]} in {name}")
                        v = vals[op[4]] = queue.pop(0)
                    else:
                        raise InterpreterError(op[5])

                    if rec:
                        for s in op[3]:
                            event = evs[s]
                            if event is not None:
                                dappend(event)
                        no = op[1]
                        if no < 0:
                            no = number(op, name)
                        iappend(no)
                        oappend(len(dcol))
                        mappend(mem)
                        aappend(address)
                        vappend(v if flags & HAS_VALUE else 0)
                        pappend(flags)
                        evs[op[4]] = nev
                        nev += 1
                    if kind == _CALL:
                        self.steps = steps
                        v, event = self._call(op[5], args, events)
                        steps = self.steps
                        if rec:
                            # The rest of this block is a new occurrence once a callee ran.
                            nev = len(icol)
                            if open_block[icol[-1]] is not op[2].parent:
                                sappend(nev)
                            # The call's consumers depend directly on the producer
                            # of the returned value (precise cross-function
                            # dataflow), else on the call event itself.
                            if event is not None:
                                evs[op[4]] = event
                        if op[8]:
                            vals[op[4]] = v if v is not None else 0

                op = terminator
                if op is None:
                    raise InterpreterError(
                        f"block {fn.name}/{bb.name} fell through without a terminator"
                    )
                kind = op[0]
                steps += 1
                if steps > max_steps:
                    raise InterpreterError(f"step limit exceeded ({max_steps})")
                v = None
                if kind == _CONDBR:
                    v = vals[op[5]]
                    if v is None:
                        raise self._undefined(vals, slots, op[2]._operands)
                    block = blocks[op[6] if v != 0 else op[7]]
                elif kind == _BR:
                    block = blocks[op[5]]
                elif kind == _SWITCH:
                    v = vals[op[5]]
                    if v is None:
                        raise self._undefined(vals, slots, op[2]._operands)
                    block = blocks[op[7].get(v, op[6])]
                elif op[5] >= 0:  # a return with a value
                    v = vals[op[5]]
                    if v is None:
                        raise self._undefined(vals, slots, op[2]._operands)
                if rec:
                    for s in op[3]:
                        event = evs[s]
                        if event is not None:
                            dappend(event)
                    no = op[1]
                    if no < 0:
                        no = number(op, name)
                    iappend(no)
                    oappend(len(dcol))
                    mappend(-1)
                    aappend(0)
                    if v is None:
                        vappend(0)
                        pappend(0)
                    else:
                        vappend(v)
                        pappend(HAS_VALUE)
                    nev += 1
                if kind == _RETURN:
                    return v, evs[op[5]] if rec and op[5] >= 0 else None
        finally:
            self.steps = steps

    def _number(self, op: list, function: str) -> int:
        """Number *op*'s instruction on its first execution (as ``Trace.record`` does)."""
        inst = op[2]
        trace = self.trace
        no = trace._numbers.get(inst)
        if no is None:
            no = trace._numbers[inst] = len(trace.instructions)
            trace.instructions.append(inst)
            trace.functions.append(function)
            self._open_block.append(None if inst.is_terminator() else inst.parent)
        op[1] = no
        return no

    # -- errors (off the hot path) -----------------------------------------------------------

    def _undefined(self, vals: list, slots: Dict[Value, int], operands) -> InterpreterError:
        """The error for the first operand, in evaluation order, that has no value."""
        for value in operands:
            if vals[slots[value]] is None:
                return self._operand_error(value)
        raise AssertionError("every operand has a value")  # pragma: no cover

    def _operand_error(self, value: Value) -> InterpreterError:
        if isinstance(value, (Instruction, Argument)):
            return InterpreterError(f"use of value {value.short_name()} before definition")
        if isinstance(value, Function):
            return InterpreterError("function pointers are not supported")
        if isinstance(value, GlobalVariable):
            self.memory.global_address(value.name)  # raises: not in this module
        return InterpreterError(f"cannot evaluate operand {value!r}")  # pragma: no cover

    def _phi_error(
        self, bb: BasicBlock, prev: Optional[BasicBlock], vals: list, slots: Dict[Value, int]
    ) -> Exception:
        """The error a phi run raises when entered from *prev*."""
        for phi in bb.phis():
            if prev is None:
                return InterpreterError(f"phi {phi.short_name()} in entry block")
            incoming = phi.incoming_value_for(prev)  # raises for a missing edge
            if vals[slots[incoming]] is None:
                return self._operand_error(incoming)
        raise AssertionError("the phi run has every incoming value")  # pragma: no cover

    # -- intrinsics ---------------------------------------------------------------------------

    def _call_intrinsic(
        self,
        fn: Function,
        arg_values: Sequence[int],
        arg_events: Optional[Sequence[Optional[int]]],
    ) -> Tuple[Optional[int], Optional[int]]:
        if fn.name == "print_int":
            self.outputs.append(int(arg_values[0]) if arg_values else 0)
            return None, arg_events[0] if arg_events else None
        if fn.name == "twill_checksum":
            return (int(arg_values[0]) if arg_values else 0), (arg_events[0] if arg_events else None)
        raise InterpreterError(f"call to undefined function '{fn.name}'")


def run_module(
    module: Module,
    function: str = "main",
    args: Sequence[int] = (),
    record_trace: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Convenience wrapper: interpret ``module`` and return the result."""
    return Interpreter(module, record_trace=record_trace, max_steps=max_steps).run(function, args)
