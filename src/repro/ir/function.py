"""Functions: named, typed containers of basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Call, Instruction
from repro.ir.types import FunctionType, Type
from repro.ir.values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import Module


class Function(Value):
    """An IR function.

    A function with no blocks is a *declaration* (used for the few runtime
    intrinsics such as ``print_int``); everything else is a definition.
    """

    def __init__(
        self,
        name: str,
        type: FunctionType,
        param_names: Optional[List[str]] = None,
        parent: Optional["Module"] = None,
    ):
        super().__init__(type, name=name)
        self.function_type = type
        self.parent = parent
        self.blocks: List[BasicBlock] = []
        names = param_names or [f"arg{i}" for i in range(len(type.param_types))]
        if len(names) != len(type.param_types):
            raise IRError(
                f"function {name}: {len(names)} parameter names for "
                f"{len(type.param_types)} parameter types"
            )
        self.args: List[Argument] = [
            Argument(t, n, i, parent=self) for i, (t, n) in enumerate(zip(type.param_types, names))
        ]
        self._name_counter = 0
        self._block_counter = 0
        #: The function whose DSWP partition this one is, for a thread
        #: :class:`repro.dswp.thread_extraction.ThreadExtractor` appended.
        self.extracted_from: Optional[str] = None

    # -- basic properties -------------------------------------------------------

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def is_declaration(self) -> bool:
        return not self.blocks

    def short_name(self) -> str:
        return f"@{self.name}"

    # -- block management --------------------------------------------------------

    def append_block(self, block: BasicBlock) -> BasicBlock:
        block.parent = self
        self.blocks.append(block)
        return block

    def create_block(self, hint: str = "bb") -> BasicBlock:
        name = self.unique_block_name(hint)
        return self.append_block(BasicBlock(name, parent=self))

    def insert_block_after(self, existing: BasicBlock, block: BasicBlock) -> BasicBlock:
        block.parent = self
        idx = self.blocks.index(existing)
        self.blocks.insert(idx + 1, block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def unique_block_name(self, hint: str = "bb") -> str:
        existing = {b.name for b in self.blocks}
        if hint not in existing:
            return hint
        while True:
            self._block_counter += 1
            candidate = f"{hint}.{self._block_counter}"
            if candidate not in existing:
                return candidate

    def unique_value_name(self, hint: str = "v") -> str:
        self._name_counter += 1
        return f"{hint}{self._name_counter}"

    # -- traversal ----------------------------------------------------------------

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def callees(self) -> List["Function"]:
        """Functions directly called from this function (with repetition removed)."""
        seen: List[Function] = []
        for inst in self.instructions():
            if isinstance(inst, Call) and inst.callee not in seen:
                seen.append(inst.callee)
        return seen

    def call_sites(self) -> List[Call]:
        return [i for i in self.instructions() if isinstance(i, Call)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name} ({len(self.blocks)} blocks)>"
