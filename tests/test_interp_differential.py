"""The decoded interpreter against the reference engine in ``tests/interp_oracle.py``.

Both engines run the same module, traced and untraced, and must agree on
everything a run produces: every trace column, the numbered instruction
table and its function names, the outputs, the return value, the step count
and the simulated memory (contents, global layout and access counts).  The
modules are the builtin workloads, every corpus file (optimised and
unoptimised) and a fixed-seed batch of ``tools/fuzz_csubset.py`` programs.
Runs that fail must fail alike: same exception type, same message, same
step count.
"""

import os
import sys

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import InterpreterError, InterpreterTrap, IRError
from repro.frontend import compile_c
from repro.interp.interpreter import Interpreter
from repro.ir import (
    I32,
    BinaryOp,
    Constant,
    FunctionType,
    Instruction,
    IRBuilder,
    Module,
    Opcode,
)
from repro.workloads import all_workloads
from tests.interp_oracle import OracleInterpreter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO_ROOT, "tests", "corpus")
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from fuzz_csubset import MAX_STEPS, generate_program  # noqa: E402

FUZZ_SEEDS = range(12)
#: Narrow signed and unsigned values through every cast, unsigned compares,
#: shifts and division: the folded wrap masks of the decoded ops.
WIDTHS_PROGRAM = """
signed char sc[4] = {-5, 100, -128, 7};
unsigned char uc[4] = {250, 3, 128, 9};
short ss[2] = {-300, 1200};
unsigned short us[2] = {65000, 12};
unsigned int big = 4000000000;
int main(void) {
  int i;
  int acc = 0;
  unsigned int u = big;
  for (i = 0; i < 4; i++) {
    int s = sc[i];
    unsigned int z = uc[i];
    acc = acc * 7 + s + (int)z;
    sc[i] = (signed char)(acc >> 3);
    uc[i] = (unsigned char)(acc);
    if (u > (unsigned int)i * 1000000000) { acc ^= 1; }
    if ((int)u < i) { acc += 3; }
    u = u >> 1;
    acc = acc + (-acc >> 2) + ss[i & 1] + us[i & 1];
  }
  print_int(acc);
  print_int(sc[0] + sc[1] + uc[2] + uc[3]);
  print_int((int)(big / 3u) + (int)(big % 7u));
  return acc;
}
"""
COLUMNS = ("inst", "deps", "dep_offsets", "mem_dep", "address", "value", "present", "block_starts")


def _corpus():
    for filename in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, filename), encoding="utf-8") as fh:
            yield filename[:-2], fh.read()


def _cases():
    """(id, build the module) for every differential case."""
    compiler = TwillCompiler(CompilerConfig())
    for workload in all_workloads():
        yield workload.name, lambda w=workload: compiler.compile_module(w.source, w.name)
    programs = [("widths", WIDTHS_PROGRAM), *_corpus()]
    programs += [(f"fuzz{seed}", generate_program(seed)) for seed in FUZZ_SEEDS]
    for name, source in programs:
        yield f"{name}-opt", lambda s=source, n=name: compiler.compile_module(s, n)
        yield f"{name}-unopt", lambda s=source, n=name: compile_c(s, n)


CASES = list(_cases())


def _run(engine, module, record_trace, max_steps=MAX_STEPS, function="main"):
    """(interpreter, result or None, (exception type, message) or None)."""
    interpreter = engine(module, record_trace=record_trace, max_steps=max_steps)
    try:
        return interpreter, interpreter.run(function), None
    except Exception as exc:  # compared, not swallowed
        return interpreter, None, (type(exc), str(exc))


def _assert_same_run(module, record_trace, max_steps=MAX_STEPS):
    new, result, error = _run(Interpreter, module, record_trace, max_steps)
    old, expected, expected_error = _run(OracleInterpreter, module, record_trace, max_steps)
    assert error == expected_error
    assert new.steps == old.steps
    assert new.outputs == old.outputs
    assert new.queues == old.queues
    memory, expected_memory = new.memory, old.memory
    assert memory._bytes == expected_memory._bytes
    assert memory.global_addresses == expected_memory.global_addresses
    assert (memory.load_count, memory.store_count) == (
        expected_memory.load_count,
        expected_memory.store_count,
    )
    if record_trace:
        trace, expected_trace = new.trace, old.trace
        for column in COLUMNS:
            assert getattr(trace, column) == getattr(expected_trace, column), column
        assert trace.instructions == expected_trace.instructions
        assert trace.functions == expected_trace.functions
        assert trace._numbers == expected_trace._numbers
    if error is None:
        assert result.return_value == expected.return_value
        assert result.outputs == expected.outputs
        assert result.steps == expected.steps
    return error


@pytest.mark.parametrize("record_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[name for name, _ in CASES])
def test_same_run_as_the_oracle(make, record_trace):
    _assert_same_run(make(), record_trace)


# -- error parity ----------------------------------------------------------------------------

COUNTING_LOOP = """
int main(void) {
  int i;
  int acc = 1;
  for (i = 0; i < 50; i++) { acc = acc * 3 + i; }
  print_int(acc);
  return acc;
}
"""


@pytest.mark.parametrize("optimise", [True, False], ids=["opt", "unopt"])
def test_step_limit_at_every_position(optimise):
    """The limit trips at the same instruction, phis included, whatever it is."""
    if optimise:
        module = TwillCompiler(CompilerConfig()).compile_module(COUNTING_LOOP, "loop")
    else:
        module = compile_c(COUNTING_LOOP, "loop")
    for max_steps in range(1, 60):
        error = _assert_same_run(module, True, max_steps)
        assert error == (InterpreterError, f"step limit exceeded ({max_steps})")


def test_step_limit_on_an_endless_loop():
    module = compile_c("int main(void) { while (1) { } return 0; }")
    error = _assert_same_run(module, False, 1000)
    assert error == (InterpreterError, "step limit exceeded (1000)")


@pytest.mark.parametrize("operator", ["/", "%"])
def test_division_by_zero(operator):
    module = compile_c(f"int main(void) {{ int z = 0; print_int(7); return 5 {operator} z; }}")
    for record_trace in (True, False):
        error = _assert_same_run(module, record_trace)
        assert error == (InterpreterTrap, "division by zero in main")


def _hand_built(build):
    """A module whose ``main`` (no parameters, returns i32) *build* fills in."""
    module = Module("hand")
    fn = module.create_function("main", FunctionType(I32, ()))
    build(fn, IRBuilder(fn.create_block("entry")))
    return module


def _use_before_definition(fn, b):
    later = BinaryOp(Opcode.ADD, Constant(I32, 2), Constant(I32, 3), name="later")
    early = BinaryOp(Opcode.ADD, later, Constant(I32, 1), name="early")
    b.block.append(early)
    b.block.append(later)
    b.ret(early)


def _consume_from_empty_queue(fn, b):
    b.produce(1, 5)
    b.ret(b.consume(3, I32, name="x"))


def _phi_in_entry_block(fn, b):
    phi = b.phi(I32, name="p")
    phi.add_incoming(Constant(I32, 1), b.block)
    b.ret(phi)


def _missing_phi_incoming(fn, b):
    join = fn.create_block("join")
    b.br(join)
    b.set_insert_block(join)
    phi = b.phi(I32, name="p")
    phi.add_incoming(Constant(I32, 1), fn.create_block("elsewhere"))
    b.ret(phi)


def _fall_through(fn, b):
    b.add(1, 2)


class _Custom(Instruction):
    pass


def _unsupported_instruction(fn, b):
    b.add(1, 2)
    b.block.append(_Custom(Opcode.ADD, I32, []))
    b.ret(0)


def _function_pointer(fn, b):
    b.produce(1, fn)
    b.ret(0)


ERRORS = [
    (_use_before_definition, InterpreterError, "use of value %later before definition"),
    (_consume_from_empty_queue, InterpreterTrap, "consume from empty queue 3 in main"),
    (_phi_in_entry_block, InterpreterError, "phi %p in entry block"),
    (_missing_phi_incoming, IRError, "phi %p has no incoming value for block entry"),
    (_fall_through, InterpreterError, "block main/entry fell through without a terminator"),
    (_unsupported_instruction, InterpreterError, "cannot interpret instruction class _Custom"),
    (_function_pointer, InterpreterError, "function pointers are not supported"),
]


@pytest.mark.parametrize("record_trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize(
    "build,kind,message", ERRORS, ids=[build.__name__.strip("_") for build, _, _ in ERRORS]
)
def test_error_parity(build, kind, message, record_trace):
    error = _assert_same_run(_hand_built(build), record_trace)
    assert error is not None and issubclass(error[0], kind) and error[1] == message


def test_each_interpreter_decodes_its_own_tables():
    """Decoded tables belong to one interpreter, so they live for one run."""
    module = compile_c(COUNTING_LOOP, "loop")
    first = Interpreter(module, record_trace=True)
    first.run()
    second = Interpreter(module, record_trace=True)
    second.run()
    main = module.get_function("main")
    assert list(first._code) == [main] and list(second._code) == [main]
    assert first._code[main] is not second._code[main]
