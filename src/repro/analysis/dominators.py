"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy algorithm).

The DSWP pass and mem2reg both need dominance information: mem2reg places
phi nodes on dominance frontiers, and the DSWP control-dependence edges are
derived from the post-dominator tree (an edge ``A -> B`` is a control
dependence when B post-dominates one successor of A but not A itself).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import postorder, predecessors_map, reachable_blocks
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class DominatorTree:
    """Forward dominator tree over the reachable blocks of a function."""

    def __init__(self, fn: Function):
        self.function = fn
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._level: Dict[BasicBlock, int] = {}
        self._compute()

    # -- construction -----------------------------------------------------------

    def _graph(self):
        """Return (root, blocks-in-postorder, predecessor-map) for the forward CFG."""
        root = self.function.entry_block
        order = postorder(self.function)
        preds = predecessors_map(self.function)
        return root, order, preds

    def _compute(self) -> None:
        root, order, preds = self._graph()
        if root is None:
            return
        # Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
        index = {b: i for i, b in enumerate(order)}  # postorder index
        rpo = list(reversed(order))
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in order}
        idom[root] = root

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[a] < index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] < index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is root:
                    continue
                candidates = [p for p in preds.get(block, []) if idom.get(p) is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = intersect(p, new_idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self.idom = {b: (None if b is root else idom[b]) for b in order if idom[b] is not None or b is root}
        self.children = {b: [] for b in self.idom}
        for block, parent in self.idom.items():
            if parent is not None:
                self.children[parent].append(block)
        # Depth levels for fast dominance queries.
        self._level = {}
        stack = [(root, 0)]
        while stack:
            block, level = stack.pop()
            self._level[block] = level
            for child in self.children.get(block, []):
                stack.append((child, level + 1))

    # -- queries -----------------------------------------------------------------

    @property
    def root(self) -> Optional[BasicBlock]:
        return self.function.entry_block

    def contains(self, block: BasicBlock) -> bool:
        return block in self.idom or block is self.root

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (every block dominates itself)."""
        if a is b:
            return True
        runner: Optional[BasicBlock] = b
        while runner is not None:
            runner = self.idom.get(runner)
            if runner is a:
                return True
        return False

    def depth(self, block: BasicBlock) -> int:
        return self._level.get(block, 0)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Cytron et al. dominance frontiers (used by mem2reg for phi placement)."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self.idom}
        preds = predecessors_map(self.function)
        for block in self.idom:
            block_preds = [p for p in preds.get(block, []) if p in self.idom]
            if len(block_preds) < 2:
                continue
            for p in block_preds:
                runner: Optional[BasicBlock] = p
                while runner is not None and runner is not self.idom.get(block):
                    frontier.setdefault(runner, set()).add(block)
                    runner = self.idom.get(runner)
        return frontier


class PostDominatorTree:
    """Post-dominator tree, computed over the reversed CFG.

    Functions with multiple return blocks are handled by treating the set of
    exit blocks as a virtual root (standard practice); queries against the
    virtual root return None for :meth:`immediate_post_dominator`.
    """

    def __init__(self, fn: Function):
        self.function = fn
        self.ipdom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._compute()

    def _compute(self) -> None:
        blocks = reachable_blocks(self.function)
        if not blocks:
            return
        exits = [b for b in blocks if not b.successors()]
        if not exits:
            # Infinite loop with no exit: fall back to the last block.
            exits = [blocks[-1]]
        succs = {b: b.successors() for b in blocks}
        # Reverse CFG: predecessors become successors.
        rev_succ: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in blocks}
        for b in blocks:
            for s in succs[b]:
                if s in rev_succ:
                    rev_succ[s].append(b)

        # Post-order over the reverse CFG starting from a virtual exit node.
        VIRTUAL = None  # represented implicitly
        seen: Set[int] = set()
        order: List[BasicBlock] = []
        stack: List[tuple[BasicBlock, bool]] = [(e, False) for e in reversed(exits)]
        while stack:
            block, processed = stack.pop()
            if processed:
                order.append(block)
                continue
            if id(block) in seen:
                continue
            seen.add(id(block))
            stack.append((block, True))
            for nxt in reversed(rev_succ[block]):
                if id(nxt) not in seen:
                    stack.append((nxt, False))

        index = {b: i for i, b in enumerate(order)}
        rpo = list(reversed(order))
        ipdom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in order}
        exit_set = set(id(e) for e in exits)

        def intersect(a: BasicBlock, b: BasicBlock) -> Optional[BasicBlock]:
            while a is not b:
                while index[a] < index[b]:
                    nxt = ipdom[a]
                    if nxt is None or nxt is a:
                        return b
                    a = nxt
                while index[b] < index[a]:
                    nxt = ipdom[b]
                    if nxt is None or nxt is b:
                        return a
                    b = nxt
            return a

        for e in exits:
            ipdom[e] = e
        changed = True
        while changed:
            changed = False
            for block in rpo:
                if id(block) in exit_set:
                    continue
                # "Predecessors" in the reverse CFG are forward successors.
                candidates = [s for s in succs[block] if s in ipdom and ipdom.get(s) is not None]
                if not candidates:
                    continue
                new_ipdom: Optional[BasicBlock] = candidates[0]
                for s in candidates[1:]:
                    if new_ipdom is None:
                        new_ipdom = s
                    else:
                        new_ipdom = intersect(s, new_ipdom)
                if ipdom.get(block) is not new_ipdom:
                    ipdom[block] = new_ipdom
                    changed = True

        self.ipdom = {}
        for b in order:
            if id(b) in exit_set:
                self.ipdom[b] = None  # exits are post-dominated only by the virtual root
            else:
                self.ipdom[b] = ipdom[b]
        self.children = {b: [] for b in order}
        for block, parent in self.ipdom.items():
            if parent is not None and parent in self.children:
                self.children[parent].append(block)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.ipdom

    def immediate_post_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.ipdom.get(block)
