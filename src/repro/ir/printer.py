"""Textual printer for IR modules, functions and instructions.

The format is intentionally close to LLVM assembly so dumps are easy to read
next to the thesis text.  The printer is deterministic: values are numbered
in program order, which makes golden-file tests stable.
"""

from __future__ import annotations

from typing import Dict, Optional

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
)
from repro.ir.module import Module
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


class IRPrinter:
    """Prints IR entities.  A fresh printer should be used per module/function."""

    def __init__(self) -> None:
        self._names: Dict[Value, str] = {}
        self._counter = 0

    # -- value naming ----------------------------------------------------------

    def _value_name(self, value: Value) -> str:
        if isinstance(value, Constant):
            return str(value.value)
        if isinstance(value, UndefValue):
            return "undef"
        if isinstance(value, GlobalVariable):
            return f"@{value.name}"
        if isinstance(value, Function):
            return f"@{value.name}"
        if isinstance(value, Argument):
            return f"%{value.name}"
        if value not in self._names:
            self._names[value] = f"%{value.name or 't'}"
        return self._names[value]

    def _typed(self, value: Value) -> str:
        return f"{value.type!r} {self._value_name(value)}"

    # -- instruction printing -----------------------------------------------------

    def format_instruction(self, inst: Instruction) -> str:
        name = self._value_name(inst)
        if isinstance(inst, BinaryOp):
            return f"{name} = {inst.opcode.value} {self._typed(inst.lhs)}, {self._value_name(inst.rhs)}"
        if isinstance(inst, ICmp):
            return (
                f"{name} = icmp {inst.predicate.value} "
                f"{self._typed(inst.lhs)}, {self._value_name(inst.rhs)}"
            )
        if isinstance(inst, Select):
            return (
                f"{name} = select {self._typed(inst.condition)}, "
                f"{self._typed(inst.true_value)}, {self._typed(inst.false_value)}"
            )
        if isinstance(inst, Alloca):
            return f"{name} = alloca {inst.allocated_type!r}"
        if isinstance(inst, Load):
            return f"{name} = load {self._typed(inst.pointer)}"
        if isinstance(inst, Store):
            return f"store {self._typed(inst.value)}, {self._typed(inst.pointer)}"
        if isinstance(inst, GetElementPtr):
            idx = ", ".join(self._value_name(i) for i in inst.indices)
            return f"{name} = getelementptr {self._typed(inst.base)}, [{idx}]"
        if isinstance(inst, Cast):
            return f"{name} = {inst.opcode.value} {self._typed(inst.value)} to {inst.type!r}"
        if isinstance(inst, Branch):
            return f"br label %{inst.target.name}"
        if isinstance(inst, CondBranch):
            return (
                f"br {self._typed(inst.condition)}, "
                f"label %{inst.true_target.name}, label %{inst.false_target.name}"
            )
        if isinstance(inst, Switch):
            cases = ", ".join(f"{c}: %{b.name}" for c, b in inst.cases)
            return f"switch {self._typed(inst.value)}, default %{inst.default.name} [{cases}]"
        if isinstance(inst, Return):
            if inst.value is None:
                return "ret void"
            return f"ret {self._typed(inst.value)}"
        if isinstance(inst, Phi):
            pairs = ", ".join(
                f"[ {self._value_name(v)}, %{b.name} ]" for v, b in inst.incoming()
            )
            return f"{name} = phi {inst.type!r} {pairs}"
        if isinstance(inst, Call):
            args = ", ".join(self._typed(a) for a in inst.args)
            if inst.type.is_void():
                return f"call void @{inst.callee.name}({args})"
            return f"{name} = call {inst.type!r} @{inst.callee.name}({args})"
        if isinstance(inst, Produce):
            return f"produce q{inst.queue_id}, {self._typed(inst.value)}"
        if isinstance(inst, Consume):
            return f"{name} = consume q{inst.queue_id} : {inst.type!r}"
        return f"{name} = {inst.opcode.value} <unknown format>"  # pragma: no cover

    # -- block / function / module printing -------------------------------------------

    def format_block(self, block: BasicBlock) -> str:
        lines = [f"{block.name}:"]
        for inst in block.instructions:
            lines.append(f"  {self.format_instruction(inst)}")
        return "\n".join(lines)

    def format_function(self, fn: Function) -> str:
        params = ", ".join(f"{a.type!r} %{a.name}" for a in fn.args)
        header = f"define {fn.return_type!r} @{fn.name}({params})"
        if fn.is_declaration():
            return f"declare {fn.return_type!r} @{fn.name}({params})"
        body = "\n\n".join(self.format_block(b) for b in fn.blocks)
        return f"{header} {{\n{body}\n}}"

    def format_module(self, module: Module) -> str:
        parts = [f"; module {module.name}"]
        for g in module.globals.values():
            const = "constant" if g.is_const else "global"
            parts.append(f"@{g.name} = {const} {g.value_type!r} {g.initializer!r}")
        for fn in module.functions.values():
            parts.append(self.format_function(fn))
        return "\n\n".join(parts) + "\n"


def print_module(module: Module) -> str:
    """Return a full textual dump of ``module``."""
    return IRPrinter().format_module(module)


def print_function(fn: Function) -> str:
    """Return a textual dump of a single function."""
    return IRPrinter().format_function(fn)


def print_instruction(inst: Instruction) -> str:
    """Return a one-line textual rendering of ``inst``."""
    return IRPrinter().format_instruction(inst)
