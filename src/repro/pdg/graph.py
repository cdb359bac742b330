"""Program Dependence Graph data structure.

Nodes are IR instructions; each directed edge (tail -> head) means "the tail
must execute before the head" (thesis §3.1.1).  Edges are labelled with the
dependence kind: data (SSA def-use), memory (may-alias load/store ordering),
control (branch decides execution), or fake (the PHI-constant pairing edges
of §5.2.1 that pin a phi to its controlling branches).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction


class DependenceKind(str, Enum):
    """Why one instruction must precede another."""

    DATA = "data"
    MEMORY = "memory"
    CONTROL = "control"
    FAKE = "fake"


@dataclass(frozen=True)
class PDGEdge:
    """One dependence edge: ``tail`` must execute before ``head``."""

    tail: Instruction
    head: Instruction
    kind: DependenceKind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PDGEdge {self.kind.value}: {self.tail.opcode.value} -> {self.head.opcode.value}>"


class ProgramDependenceGraph:
    """Per-function dependence graph with SCC support."""

    def __init__(self, function: Function):
        self.function = function
        self.nodes: List[Instruction] = list(function.instructions())
        self._succ: Dict[Instruction, List[PDGEdge]] = {n: [] for n in self.nodes}
        self._pred: Dict[Instruction, List[PDGEdge]] = {n: [] for n in self.nodes}
        self.edges: List[PDGEdge] = []

    # -- construction ----------------------------------------------------------------

    def add_edge(self, tail: Instruction, head: Instruction, kind: DependenceKind) -> Optional[PDGEdge]:
        """Add a dependence edge (ignoring duplicates and foreign instructions)."""
        if tail not in self._succ or head not in self._succ:
            return None
        if tail is head:
            return None
        for existing in self._succ[tail]:
            if existing.head is head and existing.kind is kind:
                return existing
        edge = PDGEdge(tail, head, kind)
        self.edges.append(edge)
        self._succ[tail].append(edge)
        self._pred[head].append(edge)
        return edge

    # -- queries ------------------------------------------------------------------------

    def successors(self, node: Instruction) -> List[PDGEdge]:
        return list(self._succ.get(node, []))

    def predecessors(self, node: Instruction) -> List[PDGEdge]:
        return list(self._pred.get(node, []))

    def edge_count(self, kind: Optional[DependenceKind] = None) -> int:
        if kind is None:
            return len(self.edges)
        return sum(1 for e in self.edges if e.kind is kind)

    def depends_on(self, head: Instruction, tail: Instruction) -> bool:
        """Direct dependence query: does ``head`` depend on ``tail``?"""
        return any(e.tail is tail for e in self._pred.get(head, []))

    # -- strongly connected components -----------------------------------------------------

    def strongly_connected_components(self) -> List[List[Instruction]]:
        """Tarjan's algorithm (iterative).  Components are returned in reverse
        topological order of the condensation (i.e. a component appears after
        the components it depends on have appeared... Tarjan naturally emits
        them in reverse topological order of the DAG, which we then reverse so
        producers come first)."""
        index_counter = 0
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[Instruction] = []
        components: List[List[Instruction]] = []

        for root in self.nodes:
            if id(root) in index:
                continue
            # Iterative Tarjan with an explicit work stack of (node, iterator state).
            work: List[Tuple[Instruction, int]] = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    index[id(node)] = index_counter
                    lowlink[id(node)] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack.add(id(node))
                recurse = False
                succ_edges = self._succ[node]
                while edge_index < len(succ_edges):
                    successor = succ_edges[edge_index].head
                    edge_index += 1
                    if id(successor) not in index:
                        work[-1] = (node, edge_index)
                        work.append((successor, 0))
                        recurse = True
                        break
                    if id(successor) in on_stack:
                        lowlink[id(node)] = min(lowlink[id(node)], index[id(successor)])
                if recurse:
                    continue
                work[-1] = (node, edge_index)
                if edge_index >= len(succ_edges):
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[id(parent)] = min(lowlink[id(parent)], lowlink[id(node)])
                    if lowlink[id(node)] == index[id(node)]:
                        component: List[Instruction] = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(id(w))
                            component.append(w)
                            if w is node:
                                break
                        components.append(component)
        components.reverse()
        return components

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PDG {self.function.name}: {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges>"
        )
