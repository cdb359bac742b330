"""Tests of the recursive-descent C-subset parser.

Every malformed snippet pins both error modes as literal values: the
strict-mode exception message, and in recovery mode the diagnostic stream
plus the shape of the partial AST built around the errors (panic-mode
sync on ``;``/``}``).  Clean input is covered by a few hundred
deterministic fuzz programs; the builtin workloads and the C corpus are
parsed by the compile, difftest and interpreter tests.
"""

import os
import sys

import pytest

from repro.errors import FrontendError
from repro.frontend.ast_nodes import TranslationUnit
from repro.frontend.diagnostics import parse_with_diagnostics
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from fuzz_csubset import generate_program  # noqa: E402

FUZZ_SEEDS = range(200)


def test_fuzz_programs_parse():
    """Two hundred deterministic fuzz programs parse without an error.

    The generator is seeded, so a failure here reproduces exactly with
    ``generate_program(seed)`` — the assertion message names the seed.
    """
    for seed in FUZZ_SEEDS:
        source = generate_program(seed)
        try:
            unit = Parser(tokenize(source)).parse_translation_unit()
        except FrontendError as exc:  # pragma: no cover - failure path
            pytest.fail(f"fuzz seed {seed} failed to parse: {exc}")
        assert isinstance(unit, TranslationUnit)
        assert unit.functions, f"fuzz seed {seed} parsed to no functions"


# ---------------------------------------------------------------------------
# error paths: strict-mode messages, recovery diagnostics and partial ASTs
# ---------------------------------------------------------------------------


def _shape(unit):
    """(globals, [(function, params, body statement types)]) of a unit."""
    return (
        [g.name for g in unit.globals],
        [
            (
                f.name,
                [p.name for p in f.params],
                None if f.body is None else [type(s).__name__ for s in f.body.body],
            )
            for f in unit.functions
        ],
    )


# (source, strict message, recovery diagnostics, partial AST shape)
BROKEN_SNIPPETS = [
    pytest.param(
        "int main() { int x = 1 return x; }",
        "line 1, col 24: expected ';', found 'return'",
        ["snippet.c:1:24: error: expected ';', found 'return'"],
        ([], [("main", [], [])]),
        id="missing-semicolon",
    ),
    pytest.param(
        "int main() { if (1) { return 0; }",
        "line 1, col 12: unterminated compound statement",
        ["snippet.c:1:12: error: unterminated compound statement"],
        ([], []),
        id="unbalanced-brace",
    ),
    pytest.param(
        "return 3;",
        "line 1, col 1: expected a declaration, found 'return'",
        ["snippet.c:1:1: error: expected a declaration, found 'return'"],
        ([], []),
        id="bad-top-level-token",
    ),
    pytest.param(
        "int main() { int x = ; return 0; }",
        "line 1, col 22: unexpected token ';' in expression",
        ["snippet.c:1:22: error: unexpected token ';' in expression"],
        ([], [("main", [], ["ReturnStmt"])]),
        id="missing-initialiser",
    ),
    pytest.param(
        "int f(int a) { return (a; }",
        "line 1, col 25: expected ')', found ';'",
        ["snippet.c:1:25: error: expected ')', found ';'"],
        ([], [("f", ["a"], [])]),
        id="unbalanced-paren",
    ),
    pytest.param(
        "int f() { int = 3; }\nint g() { return 1 1; }",
        "line 1, col 15: expected identifier, found '='",
        [
            "snippet.c:1:15: error: expected identifier, found '='",
            "snippet.c:2:20: error: expected ';', found '1'",
        ],
        ([], [("f", [], []), ("g", [], [])]),
        id="two-errors-resync",
    ),
    pytest.param(
        "int f(int a) { return f(a; }",
        "line 1, col 26: expected ')', found ';'",
        ["snippet.c:1:26: error: expected ')', found ';'"],
        ([], [("f", ["a"], [])]),
        id="unterminated-call",
    ),
    pytest.param(
        "int main() { return int; }",
        "line 1, col 21: unexpected token 'int' in expression",
        ["snippet.c:1:21: error: unexpected token 'int' in expression"],
        ([], [("main", [], [])]),
        id="type-keyword-in-expression",
    ),
]


@pytest.mark.parametrize("source,message,diagnostics,shape", BROKEN_SNIPPETS)
def test_broken_input_strict_error(source, message, diagnostics, shape):
    """Strict mode raises on the first problem, naming its position."""
    with pytest.raises(FrontendError) as exc:
        Parser(tokenize(source)).parse_translation_unit()
    assert str(exc.value) == message


@pytest.mark.parametrize("source,message,diagnostics,shape", BROKEN_SNIPPETS)
def test_broken_input_recovery(source, message, diagnostics, shape):
    """Recovery mode reports every error and keeps the parseable rest."""
    unit, diags = parse_with_diagnostics(source, "snippet.c")
    assert [d.format() for d in diags] == diagnostics
    assert _shape(unit) == shape
