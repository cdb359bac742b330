"""Differential oracle for the interpreter: the original tree-walking engine.

:class:`OracleInterpreter` is the interpreter the package started from.  It
evaluates every operand through an ``isinstance`` chain, keys each frame's
SSA bindings on ``id()`` of the value objects, dispatches each instruction
through a class -> handler table and records each event through
:meth:`Trace.record <repro.interp.trace.Trace.record>` and
:meth:`Trace.enter_block <repro.interp.trace.Trace.enter_block>`.  It
shares nothing with ``repro.interp.interpreter``'s decoder and slot-indexed
loop but the result type, the simulated memory, the trace container and
the IR's constant-folding helpers, so it can disagree with the decoded
tables — a differing trace column, output, step count or error message is
a bug in one of the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InterpreterError, InterpreterTrap
from repro.interp.interpreter import DEFAULT_MAX_STEPS, ExecutionResult
from repro.interp.memory import SimulatedMemory
from repro.interp.trace import Trace
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
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
    evaluate_icmp,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType, IntType, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


class _Frame:
    """Per-call environment: SSA value bindings and their producing events."""

    __slots__ = ("values", "events")

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.events: Dict[int, Optional[int]] = {}


class OracleInterpreter:
    """Interprets IR modules (the reference engine)."""

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
        if self.trace is not None:
            # Record straight into the trace's columns.
            self._record = self.trace.record
        self.steps = 0
        self._last_store_event: Dict[int, int] = {}
        # Queues used only when interpreting DSWP-transformed IR functionally.
        self.queues: Dict[int, List[int]] = {}

    # -- public API ---------------------------------------------------------------

    def run(self, function: str = "main", args: Sequence[int] = ()) -> ExecutionResult:
        fn = self.module.get_function(function)
        arg_values = list(args) + [0] * max(0, len(fn.args) - len(args))
        value, _ = self._call(fn, arg_values, [None] * len(arg_values))
        return ExecutionResult(
            return_value=value,
            outputs=list(self.outputs),
            steps=self.steps,
            trace=self.trace,
            memory=self.memory,
        )

    # -- helpers --------------------------------------------------------------------

    def _record(
        self,
        inst: Instruction,
        fn_name: str,
        mem_dep: int = -1,
        address: Optional[int] = None,
        value: Optional[int] = None,
    ) -> Optional[int]:
        """Record one event (see :meth:`Trace.record`); untraced, a no-op.

        A tracing interpreter shadows this with its trace's ``record``.
        """
        return None

    def _operand_value(self, frame: _Frame, value: Value) -> int:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.memory.global_address(value.name)
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, (Instruction, Argument)):
            try:
                return frame.values[id(value)]
            except KeyError as exc:
                raise InterpreterError(
                    f"use of value {value.short_name()} before definition"
                ) from exc
        if isinstance(value, Function):
            raise InterpreterError("function pointers are not supported")
        raise InterpreterError(f"cannot evaluate operand {value!r}")  # pragma: no cover

    def _operand_event(self, frame: _Frame, value: Value) -> Optional[int]:
        if isinstance(value, (Instruction, Argument)):
            return frame.events.get(id(value))
        return None

    def _deps(self, frame: _Frame, operands: Sequence[Value]) -> None:
        """Write the producing events of *operands* into the trace's deps.

        Only instructions and arguments have producing events, and
        ``frame.events`` is keyed by the ids of exactly those (live) values,
        so a lookup needs no type test.
        """
        if self.trace is None:
            return
        get = frame.events.get
        append = self.trace.deps.append
        for op in operands:
            event = get(id(op))
            if event is not None:
                append(event)

    # -- execution ----------------------------------------------------------------------

    def _call(
        self,
        fn: Function,
        arg_values: Sequence[int],
        arg_events: Sequence[Optional[int]],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Execute ``fn``; returns (return value, producing event seq)."""
        if fn.is_declaration():
            return self._call_intrinsic(fn, arg_values, arg_events)
        frame = _Frame()
        for arg, value, event in zip(fn.args, arg_values, arg_events):
            frame.values[id(arg)] = value
            frame.events[id(arg)] = event

        block = fn.entry_block
        if block is None:
            raise InterpreterError(f"function {fn.name} has no entry block")
        prev_block: Optional[BasicBlock] = None
        trace = self.trace

        while True:
            if trace is not None:
                trace.enter_block(block)
            # Phis first, evaluated simultaneously from the incoming edge.
            phis = block.phis()
            if phis:
                staged: List[Tuple[Phi, int, Optional[int]]] = []
                for phi in phis:
                    if prev_block is None:
                        raise InterpreterError(f"phi {phi.short_name()} in entry block")
                    incoming = phi.incoming_value_for(prev_block)
                    value = self._operand_value(frame, incoming)
                    event = self._operand_event(frame, incoming)
                    staged.append((phi, value, event))
                for phi, value, event in staged:
                    frame.values[id(phi)] = value
                    if trace is not None and event is not None:
                        trace.deps.append(event)
                    seq = self._record(phi, fn.name, value=value)
                    frame.events[id(phi)] = seq if seq is not None else event
                    self.steps += 1
                    if self.steps > self.max_steps:
                        raise InterpreterError(f"step limit exceeded ({self.max_steps})")

            next_block: Optional[BasicBlock] = None
            dispatch = self._DISPATCH
            name = fn.name
            for inst in block.instructions:
                cls = inst.__class__
                tag = _CONTROL_TAGS.get(cls)
                if tag is not None:
                    if tag == _TAG_PHI:
                        continue
                    self.steps += 1
                    if self.steps > self.max_steps:
                        raise InterpreterError(f"step limit exceeded ({self.max_steps})")
                    if tag == _TAG_RETURN:
                        value = (
                            self._operand_value(frame, inst.value) if inst.value is not None else None
                        )
                        event = (
                            self._operand_event(frame, inst.value) if inst.value is not None else None
                        )
                        self._deps(frame, inst._operands)
                        self._record(inst, name, value=value)
                        return value, event
                    if tag == _TAG_BRANCH:
                        self._record(inst, name)
                        next_block = inst.target
                        break
                    if tag == _TAG_CONDBR:
                        cond = self._operand_value(frame, inst.condition)
                        self._deps(frame, (inst.condition,))
                        self._record(inst, name, value=cond)
                        next_block = inst.true_target if cond != 0 else inst.false_target
                        break
                    # _TAG_SWITCH
                    value = self._operand_value(frame, inst.value)
                    self._deps(frame, (inst.value,))
                    self._record(inst, name, value=value)
                    next_block = inst.default
                    for case_value, target in inst.cases:
                        if case_value == value:
                            next_block = target
                            break
                    break

                self.steps += 1
                if self.steps > self.max_steps:
                    raise InterpreterError(f"step limit exceeded ({self.max_steps})")
                handler = dispatch.get(cls)
                if handler is None:
                    handler = self._resolve_handler(cls)
                value, event = handler(self, frame, name, inst)
                if not inst.type.is_void():
                    frame.values[id(inst)] = value if value is not None else 0
                frame.events[id(inst)] = event

            if next_block is None:
                raise InterpreterError(f"block {fn.name}/{block.name} fell through without a terminator")
            prev_block, block = block, next_block

    # -- per-instruction semantics -------------------------------------------------------
    #
    # One handler per concrete instruction class, bound through a precomputed
    # dispatch table (class -> unbound handler) instead of a long isinstance
    # chain: the interpreter's inner loop does a single dict lookup per
    # executed instruction.  Subclasses of the known instruction classes are
    # resolved once via _resolve_handler and memoised into the table.

    def _exec_binary(self, frame: _Frame, name: str, inst: BinaryOp):
        lhs = self._operand_value(frame, inst.lhs)
        rhs = self._operand_value(frame, inst.rhs)
        assert isinstance(inst.type, IntType)
        try:
            value = evaluate_binary(inst.opcode, inst.type, lhs, rhs)
        except ZeroDivisionError as exc:
            raise InterpreterTrap(f"division by zero in {name}") from exc
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=value)
        return value, seq

    def _exec_icmp(self, frame: _Frame, name: str, inst: ICmp):
        lhs = self._operand_value(frame, inst.lhs)
        rhs = self._operand_value(frame, inst.rhs)
        ty = inst.lhs.type if isinstance(inst.lhs.type, IntType) else IntType(32, True)
        value = evaluate_icmp(inst.predicate, ty, lhs, rhs)
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=value)
        return value, seq

    def _exec_select(self, frame: _Frame, name: str, inst: Select):
        cond = self._operand_value(frame, inst.condition)
        value = self._operand_value(frame, inst.true_value if cond else inst.false_value)
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=value)
        return value, seq

    def _exec_alloca(self, frame: _Frame, name: str, inst: Alloca):
        address = self.memory.allocate_stack(inst.allocated_type)
        seq = self._record(inst, name, address=address)
        return address, seq

    def _exec_load(self, frame: _Frame, name: str, inst: Load):
        address = self._operand_value(frame, inst.pointer)
        value = self.memory.load_typed(address, inst.type)
        self._deps(frame, inst._operands)
        seq = self._record(
            inst, name, self._last_store_event.get(address, -1), address=address, value=value
        )
        return value, seq

    def _exec_store(self, frame: _Frame, name: str, inst: Store):
        address = self._operand_value(frame, inst.pointer)
        value = self._operand_value(frame, inst.value)
        self.memory.store_typed(address, value, inst.value.type)
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, address=address, value=value)
        if seq is not None:
            self._last_store_event[address] = seq
        return None, seq

    def _exec_gep(self, frame: _Frame, name: str, inst: GetElementPtr):
        address = self._operand_value(frame, inst.base)
        base_type = inst.base.type
        assert isinstance(base_type, PointerType)
        current = base_type.pointee
        for index_value in inst.indices:
            idx = self._operand_value(frame, index_value)
            if isinstance(current, ArrayType):
                current = current.element
            address += idx * current.size_bytes()
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, address=address, value=address)
        return address, seq

    def _exec_cast(self, frame: _Frame, name: str, inst: Cast):
        value = self._operand_value(frame, inst.value)
        src_type = inst.value.type
        dst_type = inst.type
        assert isinstance(dst_type, (IntType, PointerType))
        if isinstance(dst_type, PointerType):
            result = value
        else:
            if inst.opcode is Opcode.ZEXT and isinstance(src_type, IntType):
                raw = value & ((1 << src_type.bits) - 1)
                result = dst_type.wrap(raw)
            elif inst.opcode is Opcode.SEXT and isinstance(src_type, IntType):
                result = dst_type.wrap(src_type.wrap(value))
            else:  # trunc / bitcast
                result = dst_type.wrap(value)
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=result)
        return result, seq

    def _exec_call(self, frame: _Frame, name: str, inst: Call):
        arg_values = [self._operand_value(frame, a) for a in inst.args]
        arg_events = [self._operand_event(frame, a) for a in inst.args]
        # print_int is the program's observable output channel; recording
        # the printed value on the Call event lets trace replays (the
        # timing simulator) reproduce the output stream.
        printed = (
            int(arg_values[0])
            if inst.callee.is_declaration() and inst.callee.name == "print_int" and arg_values
            else None
        )
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=printed)
        result, result_event = self._call(inst.callee, arg_values, arg_events)
        if self.trace is not None:
            # The rest of this block is a new occurrence once a callee ran.
            self.trace.enter_block(inst.parent)
        # The call's consumers depend directly on the producer of the
        # returned value (precise cross-function dataflow); fall back to
        # the call event itself for declarations.
        return result, result_event if result_event is not None else seq

    def _exec_produce(self, frame: _Frame, name: str, inst: Produce):
        value = self._operand_value(frame, inst.value)
        self.queues.setdefault(inst.queue_id, []).append(value)
        self._deps(frame, inst._operands)
        seq = self._record(inst, name, value=value)
        return None, seq

    def _exec_consume(self, frame: _Frame, name: str, inst: Consume):
        queue = self.queues.setdefault(inst.queue_id, [])
        if not queue:
            raise InterpreterTrap(f"consume from empty queue {inst.queue_id} in {name}")
        value = queue.pop(0)
        seq = self._record(inst, name, value=value)
        return value, seq

    @classmethod
    def _resolve_handler(cls, inst_cls: type):
        """Resolve (and memoise) the handler for a subclass of a known class."""
        for known, handler in cls._DISPATCH_BASES:
            if issubclass(inst_cls, known):
                cls._DISPATCH[inst_cls] = handler
                return handler
        raise InterpreterError(f"cannot interpret instruction class {inst_cls.__name__}")

    def _execute_instruction(
        self, frame: _Frame, fn: Function, inst: Instruction
    ) -> Tuple[Optional[int], Optional[int]]:
        """Single-instruction entry point (kept for tests and tooling)."""
        handler = self._DISPATCH.get(inst.__class__)
        if handler is None:
            handler = self._resolve_handler(inst.__class__)
        return handler(self, frame, fn.name, inst)

    # -- intrinsics ---------------------------------------------------------------------------

    def _call_intrinsic(
        self,
        fn: Function,
        arg_values: Sequence[int],
        arg_events: Sequence[Optional[int]],
    ) -> Tuple[Optional[int], Optional[int]]:
        if fn.name == "print_int":
            self.outputs.append(int(arg_values[0]) if arg_values else 0)
            return None, arg_events[0] if arg_events else None
        if fn.name == "twill_checksum":
            return (int(arg_values[0]) if arg_values else 0), (arg_events[0] if arg_events else None)
        raise InterpreterError(f"call to undefined function '{fn.name}'")


# Control-flow tags: instruction classes the block loop must handle inline
# (they terminate the block or were already evaluated in the phi stage).
_TAG_RETURN = 0
_TAG_BRANCH = 1
_TAG_CONDBR = 2
_TAG_SWITCH = 3
_TAG_PHI = 4
_CONTROL_TAGS: Dict[type, int] = {
    Return: _TAG_RETURN,
    Branch: _TAG_BRANCH,
    CondBranch: _TAG_CONDBR,
    Switch: _TAG_SWITCH,
    Phi: _TAG_PHI,
}

# Precomputed dispatch table: concrete instruction class -> unbound handler.
OracleInterpreter._DISPATCH = {
    BinaryOp: OracleInterpreter._exec_binary,
    ICmp: OracleInterpreter._exec_icmp,
    Select: OracleInterpreter._exec_select,
    Alloca: OracleInterpreter._exec_alloca,
    Load: OracleInterpreter._exec_load,
    Store: OracleInterpreter._exec_store,
    GetElementPtr: OracleInterpreter._exec_gep,
    Cast: OracleInterpreter._exec_cast,
    Call: OracleInterpreter._exec_call,
    Produce: OracleInterpreter._exec_produce,
    Consume: OracleInterpreter._exec_consume,
}
# isinstance-ordered fallback pairs for subclasses of the known classes.
OracleInterpreter._DISPATCH_BASES = tuple(OracleInterpreter._DISPATCH.items())


def oracle_run(
    module: Module,
    function: str = "main",
    args: Sequence[int] = (),
    record_trace: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Interpret ``module`` with the reference engine."""
    return OracleInterpreter(module, record_trace=record_trace, max_steps=max_steps).run(
        function, args
    )
