"""Per-block liveness analysis for SSA values.

Used by the DSWP thread extraction (to find values that are live across
partition boundaries and therefore need a queue) and by the HLS scheduler
(to size the register/FF estimate in the area model).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.cfg import postorder, predecessors_map
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Argument, Value


class LivenessInfo:
    """Classic backward may-liveness over SSA values.

    ``live_in[b]`` / ``live_out[b]`` contain the SSA values (instructions and
    arguments) live at block entry / exit.  Phi operands are treated as live
    at the end of the corresponding predecessor (standard SSA convention).
    """

    def __init__(self, fn: Function):
        self.function = fn
        self.live_in: Dict[BasicBlock, Set[Value]] = {}
        self.live_out: Dict[BasicBlock, Set[Value]] = {}
        self._compute()

    @staticmethod
    def _is_trackable(value: Value) -> bool:
        return isinstance(value, (Instruction, Argument))

    def _compute(self) -> None:
        fn = self.function
        use: Dict[BasicBlock, Set[Value]] = {}
        defs: Dict[BasicBlock, Set[Value]] = {}
        phi_uses: Dict[BasicBlock, Set[Value]] = {b: set() for b in fn.blocks}

        for block in fn.blocks:
            u: Set[Value] = set()
            d: Set[Value] = set()
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    # Phi uses happen on the incoming edges, not in this block.
                    for value, pred in inst.incoming():
                        if self._is_trackable(value):
                            phi_uses.setdefault(pred, set()).add(value)
                else:
                    for op in inst.operands:
                        if self._is_trackable(op) and op not in d:
                            u.add(op)
                d.add(inst)
            use[block] = u
            defs[block] = d

        self.live_in = {b: set() for b in fn.blocks}
        self.live_out = {b: set() for b in fn.blocks}

        changed = True
        order = postorder(fn)  # backward analysis converges fastest in postorder
        while changed:
            changed = False
            for block in order:
                out: Set[Value] = set(phi_uses.get(block, set()))
                for succ in block.successors():
                    out |= self.live_in.get(succ, set())
                new_in = use[block] | (out - defs[block])
                if out != self.live_out[block] or new_in != self.live_in[block]:
                    self.live_out[block] = out
                    self.live_in[block] = new_in
                    changed = True

    # -- queries ------------------------------------------------------------------
