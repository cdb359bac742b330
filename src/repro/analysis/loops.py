"""Natural-loop analysis (the LLVM ``loops`` / ``loop-simplify`` analogue).

Loops are discovered from back edges in the dominator tree and organised
into a forest: each :class:`Loop` knows its header, its blocks, its parent
loop and its sub-loops.  The DSWP loop-matching rules (thesis §5.2.1,
Figure 5.3) query this structure to decide where enqueue/dequeue calls go
(preheaders and exit blocks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import predecessors_map, reachable_blocks
from repro.analysis.dominators import DominatorTree
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class Loop:
    """One natural loop."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: List[BasicBlock] = [header]
        self._block_set: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []
        self.latches: List[BasicBlock] = []

    # -- membership -------------------------------------------------------------

    def contains(self, block: BasicBlock) -> bool:
        return block in self._block_set

    def add_block(self, block: BasicBlock) -> None:
        if not self.contains(block):
            self.blocks.append(block)
            self._block_set.add(block)

    # -- structure ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Nesting depth, 1 for a top-level loop."""
        d = 1
        parent = self.parent
        while parent is not None:
            d += 1
            parent = parent.parent
        return d

    def preheaders(self) -> List[BasicBlock]:
        """Predecessors of the header that are outside the loop."""
        return [p for p in self.header.predecessors() if not self.contains(p)]

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are targets of edges leaving the loop."""
        exits: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains(succ) and succ not in exits:
                    exits.append(succ)
        return exits

    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with an edge leaving the loop."""
        out: List[BasicBlock] = []
        for block in self.blocks:
            if any(not self.contains(s) for s in block.successors()):
                out.append(block)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class LoopInfo:
    """The loop forest of one function."""

    def __init__(self, fn: Function, domtree: Optional[DominatorTree] = None):
        self.function = fn
        self.domtree = domtree or DominatorTree(fn)
        self.top_level: List[Loop] = []
        self._loop_of_block: Dict[BasicBlock, Loop] = {}
        self._compute()

    # -- construction --------------------------------------------------------------

    def _compute(self) -> None:
        blocks = reachable_blocks(self.function)
        preds = predecessors_map(self.function)
        # Find back edges: edge (latch -> header) where header dominates latch.
        headers: Dict[int, Loop] = {}
        order: List[Loop] = []
        for block in blocks:
            for succ in block.successors():
                if self.domtree.contains(succ) and self.domtree.dominates(succ, block):
                    loop = headers.get(id(succ))
                    if loop is None:
                        loop = Loop(succ)
                        headers[id(succ)] = loop
                        order.append(loop)
                    loop.latches.append(block)
                    self._collect_loop_body(loop, block, preds)
        # Establish nesting: sort by block count ascending so inner loops are
        # assigned to blocks first; a loop's parent is the smallest loop that
        # strictly contains its header (other than itself).
        for loop in sorted(order, key=lambda l: len(l.blocks)):
            for block in loop.blocks:
                self._loop_of_block.setdefault(block, loop)
        for loop in order:
            candidates = [
                other
                for other in order
                if other is not loop and other.contains(loop.header) and len(other.blocks) > len(loop.blocks)
            ]
            if candidates:
                parent = min(candidates, key=lambda l: len(l.blocks))
                loop.parent = parent
                parent.subloops.append(loop)
        self.top_level = [l for l in order if l.parent is None]

    def _collect_loop_body(self, loop: Loop, latch: BasicBlock, preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
        """Add to ``loop`` every block that can reach the latch without passing the header."""
        stack = [latch]
        while stack:
            block = stack.pop()
            if loop.contains(block):
                continue
            loop.add_block(block)
            for p in preds.get(block, []):
                if not loop.contains(p):
                    stack.append(p)

    # -- queries -----------------------------------------------------------------------

    def loops(self) -> List[Loop]:
        """All loops (outer loops first, then their sub-loops, recursively)."""
        out: List[Loop] = []

        def walk(loop: Loop) -> None:
            out.append(loop)
            for sub in loop.subloops:
                walk(sub)

        for top in self.top_level:
            walk(top)
        return out

    def innermost_loop_of(self, block: BasicBlock) -> Optional[Loop]:
        return self._loop_of_block.get(block)

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.innermost_loop_of(block)
        return loop.depth if loop else 0

    def common_loop(self, a: BasicBlock, b: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing both blocks, or None."""
        loop_a = self.innermost_loop_of(a)
        chain: List[Loop] = []
        while loop_a is not None:
            chain.append(loop_a)
            loop_a = loop_a.parent
        loop_b = self.innermost_loop_of(b)
        while loop_b is not None:
            for candidate in chain:
                if candidate is loop_b:
                    return candidate
            loop_b = loop_b.parent
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoopInfo {self.function.name}: {len(self.loops())} loops>"
