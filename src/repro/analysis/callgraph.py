"""Call graph construction and queries.

Twill rejects recursion (no stack in hardware) and needs bottom-up call
order both for inlining decisions and for the DSWP master/slave function
handling; both come from this module.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import UnsupportedFeatureError
from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.module import Module


class CallGraph:
    """Direct-call graph of a module."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[str, List[str]] = {}
        self.callers: Dict[str, List[str]] = {}
        self.call_counts: Dict[tuple, int] = {}
        self._compute()

    def _compute(self) -> None:
        for fn in self.module.functions.values():
            self.callees.setdefault(fn.name, [])
            self.callers.setdefault(fn.name, [])
        for fn in self.module.functions.values():
            for inst in fn.instructions():
                if isinstance(inst, Call):
                    callee = inst.callee.name
                    if callee not in self.callees[fn.name]:
                        self.callees[fn.name].append(callee)
                    self.callers.setdefault(callee, [])
                    if fn.name not in self.callers[callee]:
                        self.callers[callee].append(fn.name)
                    key = (fn.name, callee)
                    self.call_counts[key] = self.call_counts.get(key, 0) + 1

    # -- queries ------------------------------------------------------------------

    def callees_of(self, name: str) -> List[str]:
        return list(self.callees.get(name, []))

    def callers_of(self, name: str) -> List[str]:
        return list(self.callers.get(name, []))

    def call_site_count(self, caller: str, callee: str) -> int:
        return self.call_counts.get((caller, callee), 0)

    def find_recursion(self) -> List[List[str]]:
        """Return all cycles among defined functions (empty if none)."""
        cycles: List[List[str]] = []
        colour: Dict[str, int] = {}  # 0 white, 1 grey, 2 black
        stack: List[str] = []

        def visit(name: str) -> None:
            colour[name] = 1
            stack.append(name)
            for callee in self.callees.get(name, []):
                fn = self.module.functions.get(callee)
                if fn is None or fn.is_declaration():
                    continue
                c = colour.get(callee, 0)
                if c == 0:
                    visit(callee)
                elif c == 1:
                    idx = stack.index(callee)
                    cycles.append(stack[idx:] + [callee])
            stack.pop()
            colour[name] = 2

        for fn in self.module.defined_functions():
            if colour.get(fn.name, 0) == 0:
                visit(fn.name)
        return cycles

    def check_no_recursion(self) -> None:
        """Raise :class:`UnsupportedFeatureError` if the module contains recursion."""
        cycles = self.find_recursion()
        if cycles:
            pretty = " -> ".join(cycles[0])
            raise UnsupportedFeatureError(
                f"recursive call chain is not supported by Twill: {pretty}"
            )

    def bottom_up_order(self) -> List[Function]:
        """Defined functions ordered so callees come before callers (post-order)."""
        order: List[Function] = []
        visited: Set[str] = set()

        def visit(fn: Function) -> None:
            if fn.name in visited or fn.is_declaration():
                return
            visited.add(fn.name)
            for callee_name in self.callees.get(fn.name, []):
                callee = self.module.functions.get(callee_name)
                if callee is not None:
                    visit(callee)
            order.append(fn)

        roots = [f for f in self.module.defined_functions()]
        # Start from functions nobody calls (main first among them).
        roots.sort(key=lambda f: (bool(self.callers.get(f.name)), f.name != "main"))
        for fn in roots:
            visit(fn)
        return order

    def top_down_order(self) -> List[Function]:
        """Callers before callees (reverse of bottom-up)."""
        return list(reversed(self.bottom_up_order()))
