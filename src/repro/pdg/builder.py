"""PDG construction: data, memory, control and PHI-constant ("fake") edges.

Follows the thesis description (§3.1.1, §5.2 pass 2, §5.2.1):

* **data** — SSA def-use edges;
* **memory** — ordering edges between may-aliasing memory operations where
  at least one writes; when the two operations share a loop the edge is
  added in both directions so they land in the same SCC (a loop-carried
  read/write conflict must not be pipelined apart);
* **control** — from each conditional branch to every instruction of the
  blocks control-dependent on it (computed from the post-dominator tree);
* **fake** — the pair of edges between a phi node and the branch terminator
  of any incoming block that supplies a *constant*, which forces both onto
  the same partition (the LLVM-PHI problem of §5.2.1, Figure 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.alias import AliasAnalysis
from repro.analysis.dominators import DominatorTree, PostDominatorTree
from repro.analysis.loops import LoopInfo
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Call,
    CondBranch,
    Consume,
    Instruction,
    Load,
    Phi,
    Produce,
    Store,
    Switch,
)
from repro.ir.values import Constant
from repro.pdg.graph import DependenceKind, ProgramDependenceGraph


def build_pdg(
    fn: Function,
    alias: Optional[AliasAnalysis] = None,
    loop_info: Optional[LoopInfo] = None,
    postdom: Optional[PostDominatorTree] = None,
) -> ProgramDependenceGraph:
    """Build the full PDG for one function."""
    pdg = ProgramDependenceGraph(fn)
    alias = alias or AliasAnalysis()
    loop_info = loop_info or LoopInfo(fn)
    postdom = postdom or PostDominatorTree(fn)

    _add_data_edges(pdg)
    _add_memory_edges(pdg, fn, alias, loop_info)
    _add_control_edges(pdg, fn, postdom, loop_info)
    _add_phi_constant_edges(pdg, fn, loop_info)
    return pdg


# ---------------------------------------------------------------------------
# data dependences
# ---------------------------------------------------------------------------


def _add_data_edges(pdg: ProgramDependenceGraph) -> None:
    for inst in pdg.nodes:
        for op in inst.operands:
            if isinstance(op, Instruction):
                pdg.add_edge(op, inst, DependenceKind.DATA)


# ---------------------------------------------------------------------------
# memory dependences
# ---------------------------------------------------------------------------


def _memory_instructions(fn: Function) -> List[Instruction]:
    out: List[Instruction] = []
    for inst in fn.instructions():
        if isinstance(inst, (Load, Store)):
            out.append(inst)
        elif isinstance(inst, Call):
            out.append(inst)
        elif isinstance(inst, (Produce, Consume)):
            out.append(inst)
    return out


def _writes_memory(inst: Instruction) -> bool:
    return isinstance(inst, (Store, Call, Produce))


def _pointer_of(inst: Instruction):
    if isinstance(inst, Load):
        return inst.pointer
    if isinstance(inst, Store):
        return inst.pointer
    return None


def _may_conflict(a: Instruction, b: Instruction, alias: AliasAnalysis) -> bool:
    """Do ``a`` and ``b`` touch potentially-overlapping state with a write involved?"""
    if not (_writes_memory(a) or _writes_memory(b)):
        return False
    ptr_a, ptr_b = _pointer_of(a), _pointer_of(b)
    if ptr_a is not None and ptr_b is not None:
        return alias.may_alias(ptr_a, ptr_b)
    # Calls and queue operations conservatively conflict with everything that
    # involves a write (they may reach the same globals / ordered side effects).
    return True


def _program_order(a: Instruction, b: Instruction, domtree: DominatorTree) -> Tuple[Instruction, Instruction]:
    """Order two instructions by dominance (falling back to block list order)."""
    block_a, block_b = a.parent, b.parent
    assert block_a is not None and block_b is not None
    if block_a is block_b:
        if block_a.index_of(a) <= block_a.index_of(b):
            return a, b
        return b, a
    if domtree.dominates(block_a, block_b):
        return a, b
    if domtree.dominates(block_b, block_a):
        return b, a
    fn = block_a.parent
    assert fn is not None
    if fn.blocks.index(block_a) <= fn.blocks.index(block_b):
        return a, b
    return b, a


def _add_memory_edges(
    pdg: ProgramDependenceGraph,
    fn: Function,
    alias: AliasAnalysis,
    loop_info: LoopInfo,
) -> None:
    mem_insts = _memory_instructions(fn)
    if len(mem_insts) < 2:
        return
    domtree = DominatorTree(fn)
    for i, a in enumerate(mem_insts):
        for b in mem_insts[i + 1 :]:
            if not _may_conflict(a, b, alias):
                continue
            assert a.parent is not None and b.parent is not None
            common = loop_info.common_loop(a.parent, b.parent)
            if common is not None:
                # Loop-carried conflict: keep both in one SCC.
                pdg.add_edge(a, b, DependenceKind.MEMORY)
                pdg.add_edge(b, a, DependenceKind.MEMORY)
            else:
                first, second = _program_order(a, b, domtree)
                pdg.add_edge(first, second, DependenceKind.MEMORY)


# ---------------------------------------------------------------------------
# control dependences
# ---------------------------------------------------------------------------


def _control_dependence_map(
    fn: Function, postdom: PostDominatorTree
) -> Dict[int, List[BasicBlock]]:
    """Map id(branch block) -> blocks control-dependent on it (Ferrante et al.)."""
    result: Dict[int, List[BasicBlock]] = {}
    for block in fn.blocks:
        successors = block.successors()
        if len(successors) < 2:
            continue
        for succ in successors:
            # Walk up the post-dominator tree from succ until reaching the
            # post-dominator of `block`; every block on the way is control
            # dependent on `block`.
            runner: Optional[BasicBlock] = succ
            limit = postdom.immediate_post_dominator(block)
            visited = 0
            while runner is not None and runner is not limit and visited < len(fn.blocks) + 2:
                result.setdefault(id(block), [])
                if runner not in result[id(block)]:
                    result[id(block)].append(runner)
                runner = postdom.immediate_post_dominator(runner)
                visited += 1
    return result


def _add_control_edges(
    pdg: ProgramDependenceGraph,
    fn: Function,
    postdom: PostDominatorTree,
    loop_info: LoopInfo,
) -> None:
    cdep = _control_dependence_map(fn, postdom)
    for block in fn.blocks:
        branch = block.terminator
        if branch is None or not isinstance(branch, (CondBranch, Switch)):
            continue
        dependent_blocks = cdep.get(id(block), [])
        for dep_block in dependent_blocks:
            for inst in dep_block.instructions:
                pdg.add_edge(branch, inst, DependenceKind.CONTROL)
        # A conditional branch that closes a loop (its block is in the loop
        # and the header depends on it) creates the loop-carried control
        # cycle: the branch also depends on the loop body computing its
        # condition, which the data edges already provide.  To keep the loop
        # control in one SCC we add the back edge from the header's
        # instructions to the branch when the branch is a loop latch/exit.
        loop = loop_info.innermost_loop_of(block)
        if loop is not None and (block in loop.latches or block in loop.exiting_blocks()):
            for inst in loop.header.instructions:
                if isinstance(inst, Phi):
                    pdg.add_edge(branch, inst, DependenceKind.CONTROL)


# ---------------------------------------------------------------------------
# PHI-constant fake dependences (thesis §5.2.1, Figure 5.2)
# ---------------------------------------------------------------------------


def _add_phi_constant_edges(
    pdg: ProgramDependenceGraph, fn: Function, loop_info: LoopInfo
) -> None:
    for block in fn.blocks:
        enclosing_loop = loop_info.innermost_loop_of(block)
        is_header = enclosing_loop is not None and enclosing_loop.header is block
        for phi in block.phis():
            for value, pred in phi.incoming():
                if not isinstance(value, Constant):
                    continue
                if is_header and enclosing_loop is not None and not enclosing_loop.contains(pred):
                    # Loop-entry initial value: every partition replicates the
                    # loop-entry control flow, so no fake pinning is needed
                    # (otherwise consecutive loops could never be pipelined
                    # apart — the Figure 5.2 problem only arises for
                    # conditional constant selection inside the region).
                    continue
                branch = pred.terminator
                if branch is None or not isinstance(branch, (CondBranch, Switch)):
                    continue
                # Pair of fake dependencies (both directions) pins the phi and
                # the controlling branch onto the same partition.
                pdg.add_edge(branch, phi, DependenceKind.FAKE)
                pdg.add_edge(phi, branch, DependenceKind.FAKE)
