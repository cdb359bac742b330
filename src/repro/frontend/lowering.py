"""Lowering of the C AST into SSA IR (pre-mem2reg form).

Every local variable and scalar parameter gets an ``alloca`` in the entry
block; the mem2reg pass later promotes the scalar ones into SSA registers —
exactly the pipeline Twill runs (``clang -O2`` followed by ``mem2reg`` and
friends, thesis §5.1).

The lowering produces one IR function per C function plus one IR global per
C global.  Two intrinsic declarations are created on demand:

* ``print_int(i32) -> void`` — the only observable output channel.  The
  functional interpreter records its arguments, and tests compare them
  against pure-Python reference implementations of each workload.
* ``twill_checksum(i32) -> i32`` — identity at run time, but never folded;
  used by workloads to keep values alive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro import perf
from repro.errors import SemanticError, UnsupportedFeatureError
from repro.frontend.ast_nodes import (
    Assignment,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    CastExpr,
    CompoundStmt,
    Conditional,
    ContinueStmt,
    CType,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    GlobalDecl,
    Identifier,
    IfStmt,
    IndexExpr,
    IntLiteral,
    PostfixOp,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from repro.frontend.parser import evaluate_constant_expr, parse
from repro.ir import (
    I1,
    I32,
    VOID,
    ArrayType,
    BasicBlock,
    CmpPredicate,
    Constant,
    Function,
    FunctionType,
    GlobalVariable,
    IntType,
    IRBuilder,
    Module,
    Opcode,
    PointerType,
    Type,
    Value,
    verify_module,
)

# Map from C binary operator text to (opcode name used by IRBuilder, is_comparison).
_CMP_PREDICATES = {
    "==": CmpPredicate.EQ,
    "!=": CmpPredicate.NE,
    "<": CmpPredicate.SLT,
    "<=": CmpPredicate.SLE,
    ">": CmpPredicate.SGT,
    ">=": CmpPredicate.SGE,
}

INTRINSIC_NAMES = ("print_int", "twill_checksum")


def ctype_to_ir(ctype: CType) -> Type:
    """Convert a source-level type to an IR type."""
    if ctype.is_void():
        return VOID
    base_bits = ctype.bit_width()
    scalar: Type = IntType(base_bits, ctype.signed)
    ty: Type = scalar
    for dim in reversed(ctype.array_dims):
        ty = ArrayType(ty, dim)
    for _ in range(ctype.pointer):
        ty = PointerType(ty)
    return ty


class Scope:
    """One lexical scope mapping names to (storage pointer, source type)."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, Tuple[Value, CType]] = {}

    def define(self, name: str, storage: Value, ctype: CType, line: int = 0) -> None:
        if name in self.symbols:
            raise SemanticError(f"redefinition of '{name}'", line=line)
        self.symbols[name] = (storage, ctype)

    def lookup(self, name: str) -> Optional[Tuple[Value, CType]]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class FunctionLowering:
    """Lowers the body of one C function into an IR function."""

    def __init__(self, module: Module, unit_types: Dict[str, CType], fn_def: FunctionDef, ir_fn: Function):
        self.module = module
        self.fn_def = fn_def
        self.ir_fn = ir_fn
        self.builder = IRBuilder()
        self.global_types = unit_types
        self.scope = Scope()
        # (break target, continue target) stack for loops / switches.
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []

    # -- plumbing ---------------------------------------------------------------

    def _new_block(self, hint: str) -> BasicBlock:
        return self.ir_fn.create_block(hint)

    def _ensure_open_block(self) -> None:
        """After a terminator, open a fresh (dead) block so lowering can continue."""
        if self.builder.block is not None and self.builder.block.has_terminator():
            self.builder.set_insert_block(self._new_block("dead"))

    # -- entry ------------------------------------------------------------------

    def lower(self) -> None:
        entry = self._new_block("entry")
        self.builder.set_insert_block(entry)
        # Parameters: spill each one to an alloca so the body can take its
        # address / reassign it; mem2reg promotes the scalar ones back.
        for param, arg in zip(self.fn_def.params, self.ir_fn.args):
            assert param.type is not None
            slot = self.builder.alloca(arg.type, name=f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.scope.define(param.name, slot, param.type, line=param.line)
        assert self.fn_def.body is not None
        self.lower_statement(self.fn_def.body)
        # Implicit return for functions that fall off the end.
        if self.builder.block is not None and not self.builder.block.has_terminator():
            if self.ir_fn.return_type.is_void():
                self.builder.ret(None)
            else:
                self.builder.ret(0)
        # Terminate any dead blocks created after returns.
        for block in self.ir_fn.blocks:
            if not block.has_terminator():
                saved = self.builder.block
                self.builder.set_insert_block(block)
                if self.ir_fn.return_type.is_void():
                    self.builder.ret(None)
                else:
                    self.builder.ret(0)
                self.builder.set_insert_block(saved)

    # ------------------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------------------

    def lower_statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, CompoundStmt):
            outer = self.scope
            self.scope = Scope(parent=outer)
            for s in stmt.body:
                self.lower_statement(s)
            self.scope = outer
        elif isinstance(stmt, DeclStmt):
            self.lower_declaration(stmt)
        elif isinstance(stmt, ExprStmt):
            if stmt.expr is not None:
                self.lower_expr(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self.lower_while(stmt)
        elif isinstance(stmt, DoWhileStmt):
            self.lower_do_while(stmt)
        elif isinstance(stmt, ForStmt):
            self.lower_for(stmt)
        elif isinstance(stmt, SwitchStmt):
            self.lower_switch(stmt)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is None:
                self.builder.ret(None)
            else:
                value, _ = self.lower_expr(stmt.value)
                self.builder.ret(value)
            self._ensure_open_block()
        elif isinstance(stmt, BreakStmt):
            if not self.break_targets:
                raise SemanticError("'break' outside of a loop or switch", line=stmt.line)
            self.builder.br(self.break_targets[-1])
            self._ensure_open_block()
        elif isinstance(stmt, ContinueStmt):
            if not self.continue_targets:
                raise SemanticError("'continue' outside of a loop", line=stmt.line)
            self.builder.br(self.continue_targets[-1])
            self._ensure_open_block()
        else:  # pragma: no cover - parser only produces the kinds above
            raise SemanticError(f"unsupported statement {type(stmt).__name__}", line=stmt.line)

    def lower_declaration(self, stmt: DeclStmt) -> None:
        assert stmt.type is not None
        ir_type = ctype_to_ir(stmt.type)
        slot = self.builder.alloca(ir_type, name=stmt.name)
        self.scope.define(stmt.name, slot, stmt.type, line=stmt.line)
        if stmt.init is None:
            return
        if isinstance(stmt.init, list):
            if not isinstance(ir_type, ArrayType):
                raise SemanticError(f"brace initializer on non-array '{stmt.name}'", line=stmt.line)
            self._lower_array_initializer(slot, ir_type, stmt.init, stmt.line)
        else:
            value, _ = self.lower_expr(stmt.init)
            if isinstance(ir_type, ArrayType):
                raise SemanticError(f"scalar initializer on array '{stmt.name}'", line=stmt.line)
            self.builder.store(value, slot)

    def _lower_array_initializer(self, slot: Value, array_type: ArrayType, init: list, line: int) -> None:
        """Store a (possibly nested) brace initializer element by element."""
        flat_exprs: List[Expr] = []

        def flatten(items: Union[list, Expr]) -> None:
            if isinstance(items, list):
                for it in items:
                    flatten(it)
            else:
                flat_exprs.append(items)

        flatten(init)
        element = array_type.flat_element()
        total = array_type.flat_count()
        if len(flat_exprs) > total:
            raise SemanticError(f"too many initializer values ({len(flat_exprs)} > {total})", line=line)
        # Index through the flattened array using successive dimension strides.
        dims: List[int] = []
        ty: Type = array_type
        while isinstance(ty, ArrayType):
            dims.append(ty.count)
            ty = ty.element
        for flat_index, expr in enumerate(flat_exprs):
            indices: List[int] = []
            rem = flat_index
            for d in reversed(dims):
                indices.append(rem % d)
                rem //= d
            indices.reverse()
            ptr = self.builder.gep(slot, indices)
            value, _ = self.lower_expr(expr)
            self.builder.store(value, ptr)

    def lower_if(self, stmt: IfStmt) -> None:
        assert stmt.cond is not None and stmt.then is not None
        cond = self.lower_condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = self._new_block("if.else") if stmt.otherwise is not None else merge_block
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_insert_block(then_block)
        self.lower_statement(stmt.then)
        if not self.builder.block.has_terminator():
            self.builder.br(merge_block)

        if stmt.otherwise is not None:
            self.builder.set_insert_block(else_block)
            self.lower_statement(stmt.otherwise)
            if not self.builder.block.has_terminator():
                self.builder.br(merge_block)

        self.builder.set_insert_block(merge_block)

    def lower_while(self, stmt: WhileStmt) -> None:
        assert stmt.cond is not None and stmt.body is not None
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        exit_block = self._new_block("while.end")
        self.builder.br(cond_block)

        self.builder.set_insert_block(cond_block)
        cond = self.lower_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, exit_block)

        self.builder.set_insert_block(body_block)
        self.break_targets.append(exit_block)
        self.continue_targets.append(cond_block)
        self.lower_statement(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if not self.builder.block.has_terminator():
            self.builder.br(cond_block)

        self.builder.set_insert_block(exit_block)

    def lower_do_while(self, stmt: DoWhileStmt) -> None:
        assert stmt.cond is not None and stmt.body is not None
        body_block = self._new_block("do.body")
        cond_block = self._new_block("do.cond")
        exit_block = self._new_block("do.end")
        self.builder.br(body_block)

        self.builder.set_insert_block(body_block)
        self.break_targets.append(exit_block)
        self.continue_targets.append(cond_block)
        self.lower_statement(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if not self.builder.block.has_terminator():
            self.builder.br(cond_block)

        self.builder.set_insert_block(cond_block)
        cond = self.lower_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, exit_block)

        self.builder.set_insert_block(exit_block)

    def lower_for(self, stmt: ForStmt) -> None:
        assert stmt.body is not None
        outer = self.scope
        self.scope = Scope(parent=outer)
        if stmt.init is not None:
            self.lower_statement(stmt.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        exit_block = self._new_block("for.end")
        self.builder.br(cond_block)

        self.builder.set_insert_block(cond_block)
        if stmt.cond is not None:
            cond = self.lower_condition(stmt.cond)
            self.builder.cond_br(cond, body_block, exit_block)
        else:
            self.builder.br(body_block)

        self.builder.set_insert_block(body_block)
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        self.lower_statement(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if not self.builder.block.has_terminator():
            self.builder.br(step_block)

        self.builder.set_insert_block(step_block)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self.builder.br(cond_block)

        self.builder.set_insert_block(exit_block)
        self.scope = outer

    def lower_switch(self, stmt: SwitchStmt) -> None:
        assert stmt.cond is not None
        cond_value, cond_type = self.lower_expr(stmt.cond)
        exit_block = self._new_block("switch.end")
        case_blocks: List[BasicBlock] = []
        default_block: Optional[BasicBlock] = None
        for i, case in enumerate(stmt.cases):
            block = self._new_block(f"switch.case{i}" if case.value is not None else "switch.default")
            case_blocks.append(block)
            if case.value is None:
                default_block = block
        switch_inst = self.builder.switch(
            cond_value, default_block if default_block is not None else exit_block
        )
        for case, block in zip(stmt.cases, case_blocks):
            if case.value is not None:
                switch_inst.add_case(case.value, block)

        self.break_targets.append(exit_block)
        for i, (case, block) in enumerate(zip(stmt.cases, case_blocks)):
            self.builder.set_insert_block(block)
            for s in case.body:
                self.lower_statement(s)
            if not self.builder.block.has_terminator():
                # C fallthrough: continue into the next case block (or exit).
                next_block = case_blocks[i + 1] if i + 1 < len(case_blocks) else exit_block
                self.builder.br(next_block)
        self.break_targets.pop()
        self.builder.set_insert_block(exit_block)

    # ------------------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------------------

    def lower_condition(self, expr: Expr) -> Value:
        """Lower an expression used as a branch condition to an i1."""
        value, _ = self.lower_expr(expr)
        return self.builder.to_bool(value)

    def lower_expr(self, expr: Expr) -> Tuple[Value, CType]:
        """Lower an expression as an rvalue; returns (IR value, source type)."""
        if isinstance(expr, IntLiteral):
            return Constant(I32, expr.value), CType("int", signed=True)
        if isinstance(expr, Identifier):
            return self._lower_identifier_rvalue(expr)
        if isinstance(expr, IndexExpr):
            ptr, elem_type = self.lower_lvalue(expr)
            if elem_type.is_array():
                # Indexing a 2-D array yields a row, which decays to a pointer
                # to its first element when used as an rvalue.
                decayed = self.builder.gep(ptr, [0] * len(elem_type.array_dims))
                decayed_type = CType(elem_type.base, elem_type.signed, elem_type.is_const, elem_type.pointer + 1, [])
                return decayed, decayed_type
            return self.builder.load(ptr), elem_type
        if isinstance(expr, UnaryOp):
            return self.lower_unary(expr)
        if isinstance(expr, PostfixOp):
            return self.lower_postfix(expr)
        if isinstance(expr, BinaryExpr):
            return self.lower_binary(expr)
        if isinstance(expr, Assignment):
            return self.lower_assignment(expr)
        if isinstance(expr, Conditional):
            return self.lower_conditional(expr)
        if isinstance(expr, CallExpr):
            return self.lower_call(expr)
        if isinstance(expr, CastExpr):
            assert expr.target_type is not None and expr.operand is not None
            value, _ = self.lower_expr(expr.operand)
            target_ir = ctype_to_ir(expr.target_type)
            if not isinstance(target_ir, IntType):
                raise SemanticError("only integer casts are supported", line=expr.line)
            return self.builder.coerce(value, target_ir), expr.target_type
        raise SemanticError(f"unsupported expression {type(expr).__name__}", line=expr.line)

    def _lower_identifier_rvalue(self, expr: Identifier) -> Tuple[Value, CType]:
        binding = self._lookup(expr)
        storage, ctype = binding
        if ctype.is_array():
            # Arrays decay to a pointer to their first element.
            indices = [0] * len(ctype.array_dims)
            decayed = self.builder.gep(storage, indices)
            decayed_type = CType(ctype.base, ctype.signed, ctype.is_const, ctype.pointer + 1, [])
            return decayed, decayed_type
        return self.builder.load(storage), ctype

    def _lookup(self, expr: Identifier) -> Tuple[Value, CType]:
        binding = self.scope.lookup(expr.name)
        if binding is not None:
            return binding
        if self.module.has_global(expr.name):
            g = self.module.get_global(expr.name)
            ctype = self.global_types[expr.name]
            return g, ctype
        raise SemanticError(f"use of undeclared identifier '{expr.name}'", line=expr.line)

    def lower_lvalue(self, expr: Expr) -> Tuple[Value, CType]:
        """Lower an expression in lvalue position; returns (pointer, pointee source type)."""
        if isinstance(expr, Identifier):
            storage, ctype = self._lookup(expr)
            return storage, ctype
        if isinstance(expr, IndexExpr):
            assert expr.base is not None and expr.index is not None
            base_ptr, base_type = self.lower_lvalue(expr.base)
            index_value, _ = self.lower_expr(expr.index)
            if base_type.is_array():
                ptr = self.builder.gep(base_ptr, [index_value])
                return ptr, base_type.element_type()
            if base_type.is_pointer():
                loaded = self.builder.load(base_ptr)
                ptr = self.builder.gep(loaded, [index_value])
                return ptr, base_type.element_type()
            raise SemanticError("subscripted value is neither array nor pointer", line=expr.line)
        if isinstance(expr, UnaryOp) and expr.op == "*":
            assert expr.operand is not None
            value, ctype = self.lower_expr(expr.operand)
            if not ctype.is_pointer():
                raise SemanticError("cannot dereference a non-pointer", line=expr.line)
            return value, ctype.element_type()
        raise SemanticError(f"expression is not assignable ({type(expr).__name__})", line=expr.line)

    def lower_unary(self, expr: UnaryOp) -> Tuple[Value, CType]:
        assert expr.operand is not None
        if expr.op == "&":
            ptr, ctype = self.lower_lvalue(expr.operand)
            ref_type = CType(ctype.base, ctype.signed, ctype.is_const, ctype.pointer + 1, list(ctype.array_dims))
            if ctype.is_array():
                # &array yields a pointer to the first element in our model
                ptr = self.builder.gep(ptr, [0] * len(ctype.array_dims))
                ref_type = CType(ctype.base, ctype.signed, ctype.is_const, ctype.pointer + 1, [])
            return ptr, ref_type
        if expr.op == "*":
            ptr, pointee = self.lower_lvalue(expr)
            return self.builder.load(ptr), pointee
        if expr.op in ("++", "--"):
            ptr, ctype = self.lower_lvalue(expr.operand)
            old = self.builder.load(ptr)
            delta = 1 if expr.op == "++" else -1
            new = self.builder.add(old, delta) if delta == 1 else self.builder.sub(old, 1)
            self.builder.store(new, ptr)
            return new, ctype
        value, ctype = self.lower_expr(expr.operand)
        if expr.op == "-":
            return self.builder.neg(value), ctype
        if expr.op == "+":
            return value, ctype
        if expr.op == "~":
            return self.builder.not_(value), ctype
        if expr.op == "!":
            as_bool = self.builder.to_bool(value)
            flipped = self.builder.icmp(CmpPredicate.EQ, as_bool, 0)
            return self.builder.coerce(flipped, I32), CType("int")
        raise SemanticError(f"unsupported unary operator '{expr.op}'", line=expr.line)

    def lower_postfix(self, expr: PostfixOp) -> Tuple[Value, CType]:
        assert expr.operand is not None
        ptr, ctype = self.lower_lvalue(expr.operand)
        old = self.builder.load(ptr)
        new = self.builder.add(old, 1) if expr.op == "++" else self.builder.sub(old, 1)
        self.builder.store(new, ptr)
        return old, ctype

    def lower_binary(self, expr: BinaryExpr) -> Tuple[Value, CType]:
        assert expr.lhs is not None and expr.rhs is not None
        op = expr.op
        if op == ",":
            self.lower_expr(expr.lhs)
            return self.lower_expr(expr.rhs)
        if op in ("&&", "||"):
            return self.lower_logical(expr)
        lhs, lhs_type = self.lower_expr(expr.lhs)
        rhs, rhs_type = self.lower_expr(expr.rhs)
        result_type = CType("int", signed=lhs_type.signed and rhs_type.signed)
        if op in _CMP_PREDICATES:
            pred = _CMP_PREDICATES[op]
            cmp = self.builder.icmp(pred, lhs, rhs)
            return self.builder.coerce(cmp, I32), CType("int")
        table = {
            "+": self.builder.add,
            "-": self.builder.sub,
            "*": self.builder.mul,
            "/": self.builder.div,
            "%": self.builder.rem,
            "&": self.builder.and_,
            "|": self.builder.or_,
            "^": self.builder.xor,
            "<<": self.builder.shl,
            ">>": self.builder.shr,
        }
        if op not in table:
            raise SemanticError(f"unsupported binary operator '{op}'", line=expr.line)
        return table[op](lhs, rhs), result_type

    def lower_logical(self, expr: BinaryExpr) -> Tuple[Value, CType]:
        """Short-circuit && / || with control flow and a phi merge."""
        assert expr.lhs is not None and expr.rhs is not None
        rhs_block = self._new_block("land.rhs" if expr.op == "&&" else "lor.rhs")
        merge_block = self._new_block("land.end" if expr.op == "&&" else "lor.end")

        lhs_bool = self.lower_condition(expr.lhs)
        lhs_end = self.builder.block
        if expr.op == "&&":
            self.builder.cond_br(lhs_bool, rhs_block, merge_block)
            short_value = 0
        else:
            self.builder.cond_br(lhs_bool, merge_block, rhs_block)
            short_value = 1

        self.builder.set_insert_block(rhs_block)
        rhs_bool = self.lower_condition(expr.rhs)
        rhs_value = self.builder.coerce(rhs_bool, I32)
        rhs_end = self.builder.block
        self.builder.br(merge_block)

        self.builder.set_insert_block(merge_block)
        phi = self.builder.phi(I32, name="logical")
        phi.add_incoming(Constant(I32, short_value), lhs_end)
        phi.add_incoming(rhs_value, rhs_end)
        return phi, CType("int")

    def lower_conditional(self, expr: Conditional) -> Tuple[Value, CType]:
        assert expr.cond is not None and expr.then is not None and expr.otherwise is not None
        cond = self.lower_condition(expr.cond)
        then_block = self._new_block("cond.true")
        else_block = self._new_block("cond.false")
        merge_block = self._new_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_insert_block(then_block)
        then_value, then_type = self.lower_expr(expr.then)
        then_value = self.builder.coerce(then_value, I32) if isinstance(then_value.type, IntType) else then_value
        then_end = self.builder.block
        self.builder.br(merge_block)

        self.builder.set_insert_block(else_block)
        else_value, _ = self.lower_expr(expr.otherwise)
        else_value = self.builder.coerce(else_value, I32) if isinstance(else_value.type, IntType) else else_value
        else_end = self.builder.block
        self.builder.br(merge_block)

        self.builder.set_insert_block(merge_block)
        phi = self.builder.phi(then_value.type, name="cond")
        phi.add_incoming(then_value, then_end)
        phi.add_incoming(else_value, else_end)
        return phi, then_type

    def lower_assignment(self, expr: Assignment) -> Tuple[Value, CType]:
        assert expr.target is not None and expr.value is not None
        ptr, target_type = self.lower_lvalue(expr.target)
        rhs, _ = self.lower_expr(expr.value)
        if expr.op == "=":
            value = rhs
        else:
            current = self.builder.load(ptr)
            op = expr.op[:-1]
            table = {
                "+": self.builder.add,
                "-": self.builder.sub,
                "*": self.builder.mul,
                "/": self.builder.div,
                "%": self.builder.rem,
                "&": self.builder.and_,
                "|": self.builder.or_,
                "^": self.builder.xor,
                "<<": self.builder.shl,
                ">>": self.builder.shr,
            }
            value = table[op](current, rhs)
        self.builder.store(value, ptr)
        return value, target_type

    def lower_call(self, expr: CallExpr) -> Tuple[Value, CType]:
        callee = _resolve_callee(self.module, expr.name, expr.line)
        args: List[Value] = []
        for arg in expr.args:
            value, _ = self.lower_expr(arg)
            args.append(value)
        result = self.builder.call(callee, args)
        ret_type = CType("void") if callee.return_type.is_void() else CType("int", signed=getattr(callee.return_type, "signed", True))
        return result, ret_type


def _resolve_callee(module: Module, name: str, line: int) -> Function:
    if module.has_function(name):
        return module.get_function(name)
    if name in INTRINSIC_NAMES:
        if name == "print_int":
            return module.create_function(name, FunctionType(VOID, (I32,)), ["value"])
        return module.create_function(name, FunctionType(I32, (I32,)), ["value"])
    raise SemanticError(f"call to undeclared function '{name}'", line=line)


def _fold_global_initializer(init: Union[Expr, list, None], line: int) -> Union[int, list, None]:
    """Evaluate a global initializer to constants (nested lists for arrays)."""
    if init is None:
        return None
    if isinstance(init, list):
        return [_fold_global_initializer(item, line) for item in init]
    value = evaluate_constant_expr(init)
    if value is None:
        raise SemanticError("global initializer must be a constant expression", line=line)
    return value


def lower_to_ir(unit: TranslationUnit, module_name: str = "module") -> Module:
    """Lower a parsed translation unit to an IR module (and verify it)."""
    module = Module(module_name)
    global_types: Dict[str, CType] = {}

    for g in unit.globals:
        assert g.type is not None
        ir_type = ctype_to_ir(g.type)
        init = _fold_global_initializer(g.init, g.line)
        module.create_global(g.name, ir_type, init, is_const=g.type.is_const)
        global_types[g.name] = g.type

    # Create all function declarations first so calls resolve in any order.
    for fn_def in unit.functions:
        assert fn_def.return_type is not None
        param_types = tuple(ctype_to_ir(p.type) for p in fn_def.params)  # type: ignore[arg-type]
        fn_type = FunctionType(ctype_to_ir(fn_def.return_type), param_types)
        if module.has_function(fn_def.name):
            continue  # prototype seen earlier
        module.create_function(fn_def.name, fn_type, [p.name for p in fn_def.params])

    for fn_def in unit.functions:
        if fn_def.body is None:
            continue
        ir_fn = module.get_function(fn_def.name)
        if not ir_fn.is_declaration():
            raise SemanticError(f"redefinition of function '{fn_def.name}'", line=fn_def.line)
        FunctionLowering(module, global_types, fn_def, ir_fn).lower()

    verify_module(module)
    return module


def compile_c(source: str, module_name: str = "module") -> Module:
    """Parse and lower a C source string to a verified IR module."""
    unit = parse(source)
    with perf.stage("lower"):
        return lower_to_ir(unit, module_name)
