"""SCC condensation of a PDG.

The DSWP partitioner never splits a strongly connected component (doing so
would create a cross-partition cycle and break the acyclic-pipeline
invariant, thesis §3.1.1), so partitioning operates on the condensation DAG
built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.ir.instructions import Instruction
from repro.pdg.graph import DependenceKind, ProgramDependenceGraph


@dataclass
class StronglyConnectedComponent:
    """One SCC of the PDG plus its weights and DAG adjacency."""

    index: int
    instructions: List[Instruction]
    sw_weight: float = 0.0
    hw_weight: float = 0.0
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)

    def size(self) -> int:
        return len(self.instructions)

    def contains(self, inst: Instruction) -> bool:
        return any(i is inst for i in self.instructions)

    def is_cyclic(self) -> bool:
        """True when this SCC has more than one instruction (a real cycle)."""
        return len(self.instructions) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SCC #{self.index} n={len(self.instructions)} "
            f"sw={self.sw_weight:.0f} hw={self.hw_weight:.0f}>"
        )


def condense(pdg: ProgramDependenceGraph) -> List[StronglyConnectedComponent]:
    """Collapse the PDG into its SCC DAG (in topological order)."""
    components = [
        StronglyConnectedComponent(index=idx, instructions=list(instructions))
        for idx, instructions in enumerate(pdg.strongly_connected_components())
    ]
    component_of = component_of_map(components)
    for edge in pdg.edges:
        tail_scc = component_of[edge.tail]
        head_scc = component_of[edge.head]
        if tail_scc == head_scc:
            continue
        components[tail_scc].successors.add(head_scc)
        components[head_scc].predecessors.add(tail_scc)
    return components


def component_of_map(components: List[StronglyConnectedComponent]) -> Dict[Instruction, int]:
    """Map instruction -> SCC index."""
    return {inst: scc.index for scc in components for inst in scc.instructions}


def topological_order(components: List[StronglyConnectedComponent]) -> List[int]:
    """Kahn topological order of the SCC DAG (indices into ``components``)."""
    indegree = {scc.index: len(scc.predecessors) for scc in components}
    ready = [i for i, d in indegree.items() if d == 0]
    order: List[int] = []
    by_index = {scc.index: scc for scc in components}
    while ready:
        ready.sort()
        current = ready.pop(0)
        order.append(current)
        for succ in by_index[current].successors:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    # Cycles cannot exist in a condensation; defensive fallback keeps everything.
    if len(order) != len(components):  # pragma: no cover
        missing = [scc.index for scc in components if scc.index not in order]
        order.extend(missing)
    return order
