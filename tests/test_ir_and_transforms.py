"""Tests for the IR data structures, analyses and transform passes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import CallGraph, DominatorTree, LoopInfo, PostDominatorTree
from repro.analysis.alias import AliasAnalysis, AliasResult
from repro.errors import UnsupportedFeatureError, VerificationError
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import (
    I32,
    BasicBlock,
    Branch,
    CmpPredicate,
    Constant,
    Function,
    FunctionType,
    IntType,
    IRBuilder,
    Module,
    Opcode,
    Return,
    VerifierReport,
    evaluate_binary,
    evaluate_icmp,
    verify_function,
    verify_module,
)
from repro.ir.printer import print_instruction
from repro.transforms import (
    ConstantPropagation,
    DeadCodeElimination,
    FunctionInliner,
    GlobalsToArguments,
    PromoteMemoryToRegisters,
    SimplifyCFG,
    default_pipeline,
)
from tests.conftest import SMALL_PROGRAM, PIPELINE_PROGRAM


# ---------------------------------------------------------------------------
# IR construction and invariants
# ---------------------------------------------------------------------------


class TestIRBasics:
    def _make_function(self):
        module = Module("t")
        fn = module.create_function("f", FunctionType(I32, (I32,)), ["x"])
        entry = fn.create_block("entry")
        builder = IRBuilder(entry)
        return module, fn, builder

    def test_use_def_chains(self):
        module, fn, builder = self._make_function()
        x = fn.args[0]
        a = builder.add(x, 1)
        b = builder.mul(a, a)
        builder.ret(b)
        assert a in [op for op in b.operands]
        assert len(a.uses) == 2
        assert b.users == [fn.blocks[0].terminator]

    def test_replace_all_uses_with(self):
        module, fn, builder = self._make_function()
        x = fn.args[0]
        a = builder.add(x, 1)
        b = builder.mul(a, 2)
        builder.ret(b)
        c = Constant(I32, 7)
        a.replace_all_uses_with(c)
        assert not a.is_used()
        assert b.operands[0] is c

    def test_verifier_catches_missing_terminator(self):
        module, fn, builder = self._make_function()
        builder.add(fn.args[0], 1)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_verifier_catches_bad_call_arity(self):
        module = Module("t")
        callee = module.create_function("callee", FunctionType(I32, (I32, I32)), ["a", "b"])
        caller = module.create_function("caller", FunctionType(I32, ()))
        block = caller.create_block("entry")
        builder = IRBuilder(block)
        from repro.ir.instructions import Call

        call = Call(callee, [Constant(I32, 1)])
        block.append(call)
        builder.ret(call)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_constant_wrapping(self):
        assert Constant(I32, 2**31).value == -(2**31)
        assert Constant(IntType(8, False), 300).value == 44

    def test_type_wrap_round_trip(self):
        u8 = IntType(8, signed=False)
        assert u8.wrap(-1) == 255
        i16 = IntType(16, signed=True)
        assert i16.wrap(0x8000) == -0x8000


class TestPhiVerification:
    """The verifier's three phi diagnostics, each once and in report order."""

    def _function(self):
        module = Module("t")
        fn = module.create_function("f", FunctionType(I32, (I32,)), ["x"])
        return fn, IRBuilder(fn.create_block("entry"))

    @staticmethod
    def _phi(builder, *incoming):
        phi = builder.phi(I32)
        for block in incoming:
            phi.add_incoming(Constant(I32, 1), block)
        return phi

    def test_diamond_reports_each_phi_fault(self):
        fn, builder = self._function()
        entry = fn.blocks[0]
        # Block order (right before left) differs from the branch's target
        # order, so the missing-incoming messages show which one is kept.
        right = fn.create_block("right")
        left = fn.create_block("left")
        join = fn.create_block("join")
        builder.cond_br(fn.args[0], left, right)
        for block in (left, right):
            IRBuilder(block).br(join)
        builder = IRBuilder(join)
        duplicate = self._phi(builder, left, left, right)
        stray = self._phi(builder, left, right, entry)
        one_missing = self._phi(builder, right)
        both_missing = self._phi(builder)
        good = self._phi(builder, left, right)
        builder.ret(good)

        report = verify_function(fn, VerifierReport())
        ctx = f"f/{join.name}"
        assert report.errors == [
            f"{ctx}: phi '{print_instruction(duplicate)}' has duplicate incoming blocks",
            f"{ctx}: phi '{print_instruction(stray)}' references non-predecessor {entry.name}",
            f"{ctx}: phi '{print_instruction(one_missing)}' missing incoming value for "
            f"predecessor {left.name}",
            f"{ctx}: phi '{print_instruction(both_missing)}' missing incoming value for "
            f"predecessor {right.name}",
            f"{ctx}: phi '{print_instruction(both_missing)}' missing incoming value for "
            f"predecessor {left.name}",
        ]

    def test_branch_with_both_targets_equal_is_one_predecessor(self):
        fn, builder = self._function()
        entry = fn.blocks[0]
        join = fn.create_block("join")
        builder.cond_br(fn.args[0], join, join)
        builder = IRBuilder(join)
        good = self._phi(builder, entry)
        twice = self._phi(builder, entry, entry)
        missing = self._phi(builder)
        builder.ret(good)

        report = verify_function(fn, VerifierReport())
        ctx = f"f/{join.name}"
        assert report.errors == [
            f"{ctx}: phi '{print_instruction(twice)}' has duplicate incoming blocks",
            f"{ctx}: phi '{print_instruction(missing)}' missing incoming value for "
            f"predecessor {entry.name}",
        ]


class TestFoldingSemantics:
    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_add_matches_c_semantics(self, a, b):
        expected = (a + b) & 0xFFFFFFFF
        if expected >= 2**31:
            expected -= 2**32
        assert evaluate_binary(Opcode.ADD, I32, a, b) == expected

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1).filter(lambda v: v != 0))
    @settings(max_examples=200, deadline=None)
    def test_sdiv_truncates_toward_zero(self, a, b):
        result = evaluate_binary(Opcode.SDIV, I32, a, b)
        expected = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            expected = -expected
        assert result == I32.wrap(expected)

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(0, 31))
    @settings(max_examples=200, deadline=None)
    def test_shifts_stay_in_range(self, a, shift):
        for opcode in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
            value = evaluate_binary(opcode, I32, a, shift)
            assert I32.min_value <= value <= I32.max_value

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_icmp_total_order(self, a, b):
        lt = evaluate_icmp(CmpPredicate.SLT, I32, a, b)
        gt = evaluate_icmp(CmpPredicate.SGT, I32, a, b)
        eq = evaluate_icmp(CmpPredicate.EQ, I32, a, b)
        assert lt + gt + eq == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            evaluate_binary(Opcode.SDIV, I32, 1, 0)


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


class TestAnalyses:
    def test_dominators_of_loop(self, optimized_small_module):
        fn = optimized_small_module.get_function("main")
        domtree = DominatorTree(fn)
        entry = fn.entry_block
        for block in fn.blocks:
            assert domtree.dominates(entry, block)

    def test_post_dominators(self, optimized_small_module):
        fn = optimized_small_module.get_function("main")
        postdom = PostDominatorTree(fn)
        exit_blocks = [b for b in fn.blocks if not b.successors()]
        assert exit_blocks
        for block in fn.blocks:
            assert postdom.contains(block)

    def test_loop_info_finds_loops(self, optimized_small_module):
        fn = optimized_small_module.get_function("main")
        loops = LoopInfo(fn).loops()
        assert len(loops) >= 1
        for loop in loops:
            assert loop.header in loop.blocks
            assert loop.latches

    def test_callgraph_and_recursion_detection(self):
        module = compile_c(SMALL_PROGRAM)
        cg = CallGraph(module)
        assert "accumulate" in cg.callees_of("main")
        assert cg.find_recursion() == []

        recursive = compile_c("int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); } int main(void) { return f(5); }")
        with pytest.raises(UnsupportedFeatureError):
            CallGraph(recursive).check_no_recursion()

    def test_alias_distinct_globals(self):
        module = compile_c("int a[4]; int b[4]; int main(void) { a[0] = 1; b[0] = 2; return a[0]; }")
        fn = module.get_function("main")
        stores = [i for i in fn.instructions() if i.opcode is Opcode.STORE]
        aa = AliasAnalysis()
        assert aa.alias(stores[0].pointer, stores[1].pointer) is AliasResult.NO

    def test_alias_same_array_unknown_index(self):
        module = compile_c(
            "int a[4]; int main(void) { int i; for (i=0;i<2;i++){ a[i]=1; a[i+1]=2; } return a[0]; }"
        )
        fn = module.get_function("main")
        stores = [
            i
            for i in fn.instructions()
            if i.opcode is Opcode.STORE and i.pointer.opcode is Opcode.GEP
        ]
        aa = AliasAnalysis()
        assert aa.may_alias(stores[0].pointer, stores[1].pointer)


# ---------------------------------------------------------------------------
# Transform passes: each pass must preserve program behaviour
# ---------------------------------------------------------------------------


def _outputs(module):
    return run_module(module).outputs


class TestTransforms:
    @pytest.mark.parametrize(
        "pass_factory",
        [
            PromoteMemoryToRegisters,
            SimplifyCFG,
            DeadCodeElimination,
            ConstantPropagation,
            lambda: FunctionInliner(threshold=100),
            GlobalsToArguments,
        ],
        ids=["mem2reg", "simplifycfg", "dce", "constprop", "inline", "globals-to-args"],
    )
    def test_pass_preserves_behaviour(self, pass_factory):
        module = compile_c(PIPELINE_PROGRAM)
        before = _outputs(module)
        pass_factory().run(module)
        verify_module(module)
        assert _outputs(module) == before

    def test_full_pipeline_preserves_behaviour(self):
        module = compile_c(SMALL_PROGRAM)
        before = _outputs(module)
        default_pipeline().run(module)
        verify_module(module)
        assert _outputs(module) == before

    def test_mem2reg_removes_scalar_allocas(self):
        module = compile_c(SMALL_PROGRAM)
        PromoteMemoryToRegisters().run(module)
        fn = module.get_function("accumulate")
        allocas = [i for i in fn.instructions() if i.opcode is Opcode.ALLOCA]
        assert allocas == []

    def test_constprop_folds_constants(self):
        module = compile_c("int main(void) { return (3 + 4) * 2; }")
        PromoteMemoryToRegisters().run(module)
        ConstantPropagation().run(module)
        fn = module.get_function("main")
        binops = [i for i in fn.instructions() if i.is_binary()]
        assert binops == []

    def test_inliner_removes_small_callee(self):
        module = compile_c(SMALL_PROGRAM)
        FunctionInliner(threshold=100).run(module)
        assert not module.has_function("accumulate")
        assert _outputs(module) == [sum(i * 3 - 7 for i in range(32))]

    def test_simplifycfg_removes_dead_blocks(self):
        module = compile_c("int main(void) { if (0) { print_int(1); } return 7; }")
        PromoteMemoryToRegisters().run(module)
        ConstantPropagation().run(module)
        SimplifyCFG().run(module)
        fn = module.get_function("main")
        assert len(fn.blocks) == 1

    def test_globals_to_args_rewrites_signatures(self):
        module = compile_c(SMALL_PROGRAM)
        GlobalsToArguments().run(module)
        accumulate = module.get_function("accumulate")
        assert any(arg.name.startswith("g_") for arg in accumulate.args)
        # main still refers to the global directly and forwards it.
        assert _outputs(module) == [sum(i * 3 - 7 for i in range(32))]
