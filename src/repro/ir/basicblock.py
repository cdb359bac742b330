"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.errors import IRError
from repro.ir.instructions import Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class BasicBlock:
    """A labelled list of instructions.

    The block does not maintain explicit predecessor lists — predecessors are
    recomputed on demand from terminator successor references, which keeps
    CFG edits (splitting, merging, simplify-cfg) simple and always
    consistent.
    """

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- instruction list management ------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, existing: Instruction, inst: Instruction) -> Instruction:
        idx = self.instructions.index(existing)
        return self.insert(idx, inst)

    def remove_instruction(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    def index_of(self, inst: Instruction) -> int:
        return self.instructions.index(inst)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __bool__(self) -> bool:
        # A block is always truthy, even when empty — guards against the
        # classic ``block or other_block`` pitfall with ``__len__`` defined.
        return True

    # -- structure queries ------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def has_terminator(self) -> bool:
        return self.terminator is not None

    def phis(self) -> List[Phi]:
        out: List[Phi] = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                out.append(inst)
            else:
                break
        return out

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()  # type: ignore[attr-defined]

    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        preds: List["BasicBlock"] = []
        for block in self.parent.blocks:
            if self in block.successors():
                preds.append(block)
        return preds

    def is_entry(self) -> bool:
        return self.parent is not None and self.parent.entry_block is self

    # -- edits ------------------------------------------------------------------

    def replace_phi_uses_of_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """In every phi of this block rewrite references to predecessor ``old``."""
        for phi in self.phis():
            phi.replace_incoming_block(old, new)

    def erase(self) -> None:
        """Remove this block from its function, dropping all its instructions."""
        if self.parent is None:
            raise IRError(f"block {self.name} has no parent to erase from")
        for inst in list(self.instructions):
            inst.drop_all_operands()
            inst.parent = None
        self.instructions.clear()
        self.parent.remove_block(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
