"""Modules: the top-level IR container (functions + global variables)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.types import FunctionType, Type
from repro.ir.values import GlobalVariable


class Module:
    """A translation unit: named globals and named functions.

    The module preserves insertion order (so printed IR and layout of the
    simulated memory image are deterministic).
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    # -- functions -----------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"module already contains a function named {function.name}")
        function.parent = self
        self.functions[function.name] = function
        return function

    def create_function(
        self,
        name: str,
        type: FunctionType,
        param_names: Optional[List[str]] = None,
    ) -> Function:
        return self.add_function(Function(name, type, param_names, parent=self))

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise IRError(f"module has no function named {name}") from exc

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration()]

    # -- globals --------------------------------------------------------------

    def add_global(self, g: GlobalVariable) -> GlobalVariable:
        if g.name in self.globals:
            raise IRError(f"module already contains a global named {g.name}")
        self.globals[g.name] = g
        return g

    def create_global(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[object] = None,
        is_const: bool = False,
    ) -> GlobalVariable:
        return self.add_global(GlobalVariable(name, value_type, initializer, is_const))

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError as exc:
            raise IRError(f"module has no global named {name}") from exc

    def has_global(self, name: str) -> bool:
        return name in self.globals

    # -- traversal ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
