"""IR verifier: structural invariant checks run after the front end and
after every transform pass (when the pass manager is configured to do so).

The checks mirror the subset of LLVM's verifier that matters for this
project: every block ends in exactly one terminator, phi nodes agree with the
block's predecessors, operands belong to the same function, and call
signatures match.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import VerificationError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Call,
    CondBranch,
    Instruction,
    Phi,
    Return,
    Switch,
)
from repro.ir.module import Module
from repro.ir.printer import print_instruction
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerifierReport:
    """Collects verification failures so callers can see all of them at once."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise VerificationError("IR verification failed:\n  " + "\n  ".join(self.errors))


def _verify_block(fn: Function, block: BasicBlock, report: VerifierReport) -> None:
    ctx = f"{fn.name}/{block.name}"
    if not block.instructions:
        report.fail(f"{ctx}: block is empty")
        return
    term = block.terminator
    if term is None:
        report.fail(f"{ctx}: block does not end with a terminator")
    for i, inst in enumerate(block.instructions):
        if inst.parent is not block:
            report.fail(f"{ctx}: instruction '{print_instruction(inst)}' has wrong parent")
        if inst.is_terminator() and inst is not block.instructions[-1]:
            report.fail(f"{ctx}: terminator '{print_instruction(inst)}' is not last")
        if isinstance(inst, Phi) and i >= block.first_non_phi_index() and not isinstance(
            block.instructions[i], Phi
        ):  # pragma: no cover - defensive
            report.fail(f"{ctx}: phi '{print_instruction(inst)}' appears after non-phi")

    # Phi nodes must appear before any non-phi instruction.
    seen_non_phi = False
    for inst in block.instructions:
        if isinstance(inst, Phi):
            if seen_non_phi:
                report.fail(f"{ctx}: phi '{print_instruction(inst)}' after non-phi instruction")
        else:
            seen_non_phi = True


def _verify_phis(
    fn: Function, block: BasicBlock, preds: List[BasicBlock], report: VerifierReport
) -> None:
    ctx = f"{fn.name}/{block.name}"
    pred_set = set(preds)
    for phi in block.phis():
        incoming = phi.incoming_blocks
        incoming_set = set(incoming)
        if len(incoming_set) != len(incoming):
            report.fail(f"{ctx}: phi '{print_instruction(phi)}' has duplicate incoming blocks")
        for b in incoming:
            if b not in pred_set:
                report.fail(
                    f"{ctx}: phi '{print_instruction(phi)}' references non-predecessor {b.name}"
                )
        for p in preds:
            if p not in incoming_set:
                report.fail(
                    f"{ctx}: phi '{print_instruction(phi)}' missing incoming value for "
                    f"predecessor {p.name}"
                )


def _verify_operands(fn: Function, inst: Instruction, known_blocks: Set[int], report: VerifierReport) -> None:
    ctx = f"{fn.name}"
    for op in inst.operands:
        if isinstance(op, (Constant, GlobalVariable, UndefValue, Function)):
            continue
        if isinstance(op, Argument):
            if op.parent is not fn:
                report.fail(
                    f"{ctx}: '{print_instruction(inst)}' uses argument of another function"
                )
            continue
        if isinstance(op, Instruction):
            if op.parent is None or op.parent.parent is not fn:
                report.fail(
                    f"{ctx}: '{print_instruction(inst)}' uses instruction outside this function"
                )
            continue
        report.fail(f"{ctx}: '{print_instruction(inst)}' has unexpected operand {op!r}")

    # Branch targets must be blocks of this function.
    if isinstance(inst, Branch):
        targets = [inst.target]
    elif isinstance(inst, CondBranch):
        targets = [inst.true_target, inst.false_target]
    elif isinstance(inst, Switch):
        targets = inst.successors()
    else:
        targets = []
    for t in targets:
        if id(t) not in known_blocks:
            report.fail(f"{ctx}: branch '{print_instruction(inst)}' targets foreign block {t.name}")


def _verify_calls(fn: Function, inst: Call, report: VerifierReport) -> None:
    callee = inst.callee
    expected = len(callee.function_type.param_types)
    if len(inst.args) != expected:
        report.fail(
            f"{fn.name}: call to @{callee.name} passes {len(inst.args)} args, expected {expected}"
        )


def _verify_returns(fn: Function, report: VerifierReport) -> None:
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, Return):
            if fn.return_type.is_void() and term.value is not None:
                report.fail(f"{fn.name}: void function returns a value")
            if not fn.return_type.is_void() and term.value is None:
                report.fail(f"{fn.name}: non-void function returns without a value")


def verify_function(fn: Function, report: VerifierReport | None = None) -> VerifierReport:
    """Verify one function; returns the report (raises only if caller asks)."""
    own = report is None
    report = report or VerifierReport()
    if fn.is_declaration():
        return report
    known_blocks = {id(b) for b in fn.blocks}
    # Each block's predecessors in block order, each listed once (as
    # BasicBlock.predecessors() gives them), from one pass over the edges.
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in dict.fromkeys(block.successors()):
            if succ in preds:
                preds[succ].append(block)
    for block in fn.blocks:
        _verify_block(fn, block, report)
        _verify_phis(fn, block, preds[block], report)
        for inst in block.instructions:
            _verify_operands(fn, inst, known_blocks, report)
            if isinstance(inst, Call):
                _verify_calls(fn, inst, report)
    _verify_returns(fn, report)
    if own:
        report.raise_if_failed()
    return report


def verify_module(module: Module, raise_on_error: bool = True) -> VerifierReport:
    """Verify every function in ``module``.

    Returns the report; raises :class:`VerificationError` when
    ``raise_on_error`` is true and any check failed.
    """
    report = VerifierReport()
    for fn in module.functions.values():
        verify_function(fn, report)
    if raise_on_error:
        report.raise_if_failed()
    return report
