"""Parser for the supported C subset.

Grammar highlights (everything the CHStone-style kernels need):

* top level: global variable definitions (with brace initializers) and
  function definitions/prototypes;
* statements: compound, if/else, while, do-while, for, switch/case, return,
  break, continue, declarations, expression statements;
* expressions: full C operator precedence for the integer operators,
  assignment (simple and compound), ternary conditional, calls, array
  subscripts, casts, prefix/postfix increment, address-of.

Deliberately unsupported (raises :class:`UnsupportedFeatureError`, mirroring
the restrictions Twill documents): structs/unions/typedefs, floating point,
function pointers, variadic functions, ``goto``.

One recursive-descent parser, one method per grammar rule (the grammar is
LL(1) apart from the cast-vs-parenthesis choice at ``(``, settled with one
extra token of lookahead, and the dangling ``else``, which binds to the
nearest ``if``).  Binary operators are folded by precedence climbing over
:data:`_BINARY_PRECEDENCE`.

Two error modes: the default raises on the first problem (what the compile
pipeline wants — a bad workload must not half-compile), while
``Parser(tokens, recover=True)`` collects every error as a
:class:`~repro.frontend.diagnostics.Diagnostic` and re-synchronises on
``;``/``}`` (panic mode), which is what ``repro ingest`` uses to report all
of a file's problems in one pass.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro import perf
from repro.errors import FrontendError, ParseError, UnsupportedFeatureError
from repro.frontend.diagnostics import MAX_DIAGNOSTICS, Diagnostic
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
    Param,
    PostfixOp,
    ReturnStmt,
    Stmt,
    SwitchCase,
    SwitchStmt,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from repro.frontend.lexer import Token, TokenKind, tokenize

# Binary operator precedence (C precedence, higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}

_TYPE_KEYWORDS = {"void", "char", "short", "int", "long", "unsigned", "signed", "const", "static", "volatile"}


class Parser:
    """Recursive-descent parser over a token list, with optional panic-mode
    recovery (``recover=True``)."""

    def __init__(self, tokens: List[Token], recover: bool = False, filename: str = "<string>"):
        self.tokens = tokens
        self.pos = 0
        self.recover = recover
        self.filename = filename
        #: Collected :class:`Diagnostic` records (recover mode only).
        self.diagnostics: List[Diagnostic] = []

    # -- token helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _check_punct(self, *texts: str) -> bool:
        return self._peek().is_punct(*texts)

    def _accept_punct(self, *texts: str) -> Optional[Token]:
        if self._check_punct(*texts):
            return self._advance()
        return None

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", line=tok.line, col=tok.col)
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", line=tok.line, col=tok.col)
        return self._advance()

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, line=tok.line, col=tok.col)

    # -- panic-mode recovery ------------------------------------------------------

    def _record_error(self, exc: FrontendError) -> None:
        if len(self.diagnostics) < MAX_DIAGNOSTICS:
            self.diagnostics.append(Diagnostic.from_error(exc, self.filename))

    def _too_many_errors(self) -> bool:
        return len(self.diagnostics) >= MAX_DIAGNOSTICS

    def _sync_statement(self) -> None:
        """Skip to just past the next ``;`` at the current nesting level, or
        stop before the enclosing ``}`` (so the compound can close normally).
        Nested braces are skipped whole."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                return
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                if depth == 0:
                    return
                depth -= 1
            elif tok.is_punct(";") and depth == 0:
                self._advance()
                return
            self._advance()

    def _sync_top_level(self) -> None:
        """Skip to a plausible start of the next external declaration: past a
        top-level ``;`` or past the ``}`` that closes the broken definition."""
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                return
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                self._advance()
                if depth <= 1:
                    return
                depth -= 1
                continue
            elif tok.is_punct(";") and depth == 0:
                self._advance()
                return
            self._advance()

    # -- type parsing --------------------------------------------------------------

    def _at_type(self) -> bool:
        tok = self._peek()
        return tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_KEYWORDS

    def _parse_type_specifier(self) -> CType:
        """Parse declaration specifiers: const/static/volatile + base type + signedness."""
        signed = True
        signed_explicit = False
        base: Optional[str] = None
        is_const = False
        saw_any = False
        while True:
            tok = self._peek()
            if tok.is_keyword("const"):
                is_const = True
                self._advance()
            elif tok.is_keyword("static", "volatile"):
                self._advance()
            elif tok.is_keyword("unsigned"):
                signed = False
                signed_explicit = True
                self._advance()
            elif tok.is_keyword("signed"):
                signed = True
                signed_explicit = True
                self._advance()
            elif tok.is_keyword("void", "char", "short", "int", "long"):
                if tok.text == "long" and base == "long":
                    raise UnsupportedFeatureError(
                        "64-bit integers (long long) are not supported, matching Twill", line=tok.line, col=tok.col
                    )
                if base in (None, "long") or (base == "short" and tok.text == "int") or (
                    base == "int" and tok.text == "int"
                ):
                    base = tok.text if base is None or base == "int" else base
                self._advance()
            elif tok.is_keyword("float", "double"):
                raise UnsupportedFeatureError("floating point is not supported", line=tok.line, col=tok.col)
            elif tok.is_keyword("struct", "typedef"):
                raise UnsupportedFeatureError(f"'{tok.text}' is not supported", line=tok.line, col=tok.col)
            else:
                break
            saw_any = True
        if not saw_any:
            raise self._error("expected a type specifier")
        if base is None:
            base = "int"  # bare 'unsigned' / 'signed'
        ty = CType(base=base, signed=signed, is_const=is_const)
        # pointer declarators
        while self._accept_punct("*"):
            ty.pointer += 1
        return ty

    def _parse_array_suffix(self, ty: CType) -> CType:
        """Parse trailing ``[N][M]...`` dimensions onto a copy of ``ty``."""
        dims: List[int] = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                # unsized dimension (array parameter): decay to pointer
                self._expect_punct("]")
                ty.pointer += 1
                continue
            dim = self._parse_constant_expression()
            dims.append(dim)
            self._expect_punct("]")
        ty.array_dims = dims
        return ty

    def _parse_constant_expression(self) -> int:
        expr = self._parse_conditional()
        value = evaluate_constant_expr(expr)
        if value is None:
            raise self._error("expected a constant expression")
        return value

    # -- top level -------------------------------------------------------------------

    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        while self._peek().kind is not TokenKind.EOF:
            if not self.recover:
                self._parse_external_declaration(unit)
                continue
            if self._too_many_errors():
                break
            before = self.pos
            try:
                self._parse_external_declaration(unit)
            except FrontendError as exc:
                self._record_error(exc)
                self._sync_top_level()
                if self.pos == before:
                    self._advance()
        return unit

    def _parse_external_declaration(self, unit: TranslationUnit) -> None:
        tok = self._peek()
        if tok.is_keyword("struct", "typedef"):
            raise UnsupportedFeatureError(f"'{tok.text}' is not supported", line=tok.line, col=tok.col)
        if tok.is_keyword("float", "double"):
            raise UnsupportedFeatureError("floating point is not supported", line=tok.line, col=tok.col)
        if not self._at_type():
            raise self._error(f"expected a declaration, found {self._peek().text!r}")
        base_type = self._parse_type_specifier()
        # `void foo(void);` etc.
        name_tok = self._expect_ident()
        if self._check_punct("("):
            unit.functions.append(self._parse_function(base_type, name_tok))
            return
        # global variable declarator list
        while True:
            ty = CType(base_type.base, base_type.signed, base_type.is_const, base_type.pointer, [])
            ty = self._parse_array_suffix(ty)
            init: Optional[Union[Expr, list]] = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            unit.globals.append(
                GlobalDecl(name=name_tok.text, type=ty, init=init, line=name_tok.line)
            )
            if self._accept_punct(","):
                name_tok = self._expect_ident()
                continue
            self._expect_punct(";")
            break

    def _parse_function(self, return_type: CType, name_tok: Token) -> FunctionDef:
        self._expect_punct("(")
        params: List[Param] = []
        if not self._check_punct(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    ptype = self._parse_type_specifier()
                    pname = self._expect_ident()
                    ptype = self._parse_array_suffix(ptype)
                    if ptype.array_dims:
                        # array parameters decay to pointers (drop first dim)
                        ptype.pointer += 1
                        ptype.array_dims = ptype.array_dims[1:]
                    params.append(Param(name=pname.text, type=ptype, line=pname.line))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return FunctionDef(name=name_tok.text, return_type=return_type, params=params, body=None, line=name_tok.line)
        body = self._parse_compound()
        return FunctionDef(
            name=name_tok.text, return_type=return_type, params=params, body=body, line=name_tok.line
        )

    # -- initializers ------------------------------------------------------------------

    def _parse_initializer(self) -> Union[Expr, list]:
        if self._accept_punct("{"):
            items: List[Union[Expr, list]] = []
            if not self._check_punct("}"):
                while True:
                    items.append(self._parse_initializer())
                    if not self._accept_punct(","):
                        break
                    if self._check_punct("}"):
                        break  # trailing comma
            self._expect_punct("}")
            return items
        return self._parse_assignment_expr()

    # -- statements -----------------------------------------------------------------------

    def _parse_compound(self) -> CompoundStmt:
        open_tok = self._expect_punct("{")
        body: List[Stmt] = []
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError(
                    "unterminated compound statement", line=open_tok.line, col=open_tok.col
                )
            if not self.recover:
                body.append(self._parse_statement())
                continue
            if self._too_many_errors():
                break
            before = self.pos
            try:
                body.append(self._parse_statement())
            except FrontendError as exc:
                self._record_error(exc)
                self._sync_statement()
                if self.pos == before:
                    self._advance()
        self._expect_punct("}")
        return CompoundStmt(body=body, line=open_tok.line)

    def _parse_statement(self) -> Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("return"):
            self._advance()
            value = None if self._check_punct(";") else self._parse_expression()
            self._expect_punct(";")
            return ReturnStmt(value=value, line=tok.line)
        if tok.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return BreakStmt(line=tok.line)
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ContinueStmt(line=tok.line)
        if self._at_type():
            return self._parse_declaration_statement()
        if tok.is_punct(";"):
            self._advance()
            return ExprStmt(expr=None, line=tok.line)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ExprStmt(expr=expr, line=tok.line)

    def _parse_declaration_statement(self) -> Stmt:
        """Parse a local declaration; multiple declarators become a compound."""
        base_type = self._parse_type_specifier()
        decls: List[Stmt] = []
        while True:
            name_tok = self._expect_ident()
            ty = CType(base_type.base, base_type.signed, base_type.is_const, base_type.pointer, [])
            ty = self._parse_array_suffix(ty)
            init: Optional[Union[Expr, list]] = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            decls.append(DeclStmt(name=name_tok.text, type=ty, init=init, line=name_tok.line))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return CompoundStmt(body=decls, line=decls[0].line)

    def _parse_if(self) -> IfStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise: Optional[Stmt] = None
        if self._peek().is_keyword("else"):
            self._advance()
            otherwise = self._parse_statement()
        return IfStmt(cond=cond, then=then, otherwise=otherwise, line=tok.line)

    def _parse_while(self) -> WhileStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return WhileStmt(cond=cond, body=body, line=tok.line)

    def _parse_do_while(self) -> DoWhileStmt:
        tok = self._advance()
        body = self._parse_statement()
        if not self._peek().is_keyword("while"):
            raise self._error("expected 'while' after do-body")
        self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhileStmt(cond=cond, body=body, line=tok.line)

    def _parse_for(self) -> ForStmt:
        tok = self._advance()
        self._expect_punct("(")
        init: Optional[Stmt] = None
        if not self._check_punct(";"):
            if self._at_type():
                init = self._parse_declaration_statement()
            else:
                expr = self._parse_expression()
                self._expect_punct(";")
                init = ExprStmt(expr=expr, line=tok.line)
        else:
            self._expect_punct(";")
        cond: Optional[Expr] = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: Optional[Expr] = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ForStmt(init=init, cond=cond, step=step, body=body, line=tok.line)

    def _parse_switch(self) -> SwitchStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[SwitchCase] = []
        current: Optional[SwitchCase] = None
        while not self._check_punct("}"):
            t = self._peek()
            if t.is_keyword("case"):
                self._advance()
                value = self._parse_constant_expression()
                self._expect_punct(":")
                current = SwitchCase(value=value, body=[], line=t.line)
                cases.append(current)
            elif t.is_keyword("default"):
                self._advance()
                self._expect_punct(":")
                current = SwitchCase(value=None, body=[], line=t.line)
                cases.append(current)
            else:
                if current is None:
                    raise self._error("statement before first case label in switch")
                current.body.append(self._parse_statement())
        self._expect_punct("}")
        return SwitchStmt(cond=cond, cases=cases, line=tok.line)

    # -- expressions ------------------------------------------------------------------------

    def _parse_expression(self) -> Expr:
        """Full expression including the comma operator (evaluates left to right)."""
        expr = self._parse_assignment_expr()
        while self._check_punct(","):
            self._advance()
            rhs = self._parse_assignment_expr()
            expr = BinaryExpr(op=",", lhs=expr, rhs=rhs, line=expr.line)
        return expr

    def _parse_assignment_expr(self) -> Expr:
        lhs = self._parse_conditional()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment_expr()
            return Assignment(op=tok.text, target=lhs, value=value, line=tok.line)
        return lhs

    def _parse_conditional(self) -> Expr:
        cond = self._parse_binary(1)
        if self._accept_punct("?"):
            then = self._parse_assignment_expr()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return Conditional(cond=cond, then=then, otherwise=otherwise, line=cond.line)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind is not TokenKind.PUNCT:
                break
            prec = _BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self._advance()
            rhs = self._parse_binary(prec + 1)
            lhs = BinaryExpr(op=tok.text, lhs=lhs, rhs=rhs, line=tok.line)
        return lhs

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.is_punct("-", "+", "!", "~", "&", "*"):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(op=tok.text, operand=operand, line=tok.line)
        if tok.is_punct("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(op=tok.text, operand=operand, line=tok.line)
        if tok.is_punct("(") and self._peek(1).kind is TokenKind.KEYWORD and self._peek(1).text in _TYPE_KEYWORDS:
            # cast expression
            self._advance()
            ty = self._parse_type_specifier()
            self._expect_punct(")")
            operand = self._parse_unary()
            return CastExpr(target_type=ty, operand=operand, line=tok.line)
        if tok.is_keyword("sizeof"):
            raise UnsupportedFeatureError("sizeof is not supported", line=tok.line, col=tok.col)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = IndexExpr(base=expr, index=index, line=tok.line)
            elif tok.is_punct("(") and isinstance(expr, Identifier):
                self._advance()
                args: List[Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = CallExpr(name=expr.name, args=args, line=tok.line)
            elif tok.is_punct("++", "--"):
                self._advance()
                expr = PostfixOp(op=tok.text, operand=expr, line=tok.line)
            elif tok.is_punct(".", "->"):
                raise UnsupportedFeatureError("struct member access is not supported", line=tok.line, col=tok.col)
            else:
                break
        return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind in (TokenKind.INT_LITERAL, TokenKind.CHAR_LITERAL):
            self._advance()
            return IntLiteral(value=tok.value or 0, line=tok.line)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return Identifier(name=tok.text, line=tok.line)
        if tok.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.STRING_LITERAL:
            raise UnsupportedFeatureError("string literals are not supported", line=tok.line, col=tok.col)
        raise self._error(f"unexpected token {tok.text!r} in expression")


def evaluate_constant_expr(expr: Expr) -> Optional[int]:
    """Fold a constant expression at parse time; returns None if not constant."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.operand is not None:
        v = evaluate_constant_expr(expr.operand)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(not v)}.get(expr.op)
    if isinstance(expr, BinaryExpr) and expr.lhs is not None and expr.rhs is not None:
        a = evaluate_constant_expr(expr.lhs)
        b = evaluate_constant_expr(expr.rhs)
        if a is None or b is None:
            return None
        try:
            return {
                "+": a + b, "-": a - b, "*": a * b,
                "/": a // b if b else None, "%": a % b if b else None,
                "<<": a << b, ">>": a >> b,
                "&": a & b, "|": a | b, "^": a ^ b,
                "==": int(a == b), "!=": int(a != b),
                "<": int(a < b), ">": int(a > b), "<=": int(a <= b), ">=": int(a >= b),
                "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
            }.get(expr.op)
        except (ZeroDivisionError, TypeError):
            return None
    if isinstance(expr, Conditional):
        c = evaluate_constant_expr(expr.cond) if expr.cond else None
        if c is None:
            return None
        branch = expr.then if c else expr.otherwise
        return evaluate_constant_expr(branch) if branch else None
    return None


def parse(source: str) -> TranslationUnit:
    """Tokenize and parse a C source string into a TranslationUnit."""
    with perf.stage("lex"):
        tokens = tokenize(source)
    with perf.stage("parse"):
        return Parser(tokens).parse_translation_unit()
