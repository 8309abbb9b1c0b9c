"""Negative verifier tests: every structural invariant must actually fire.

Each test corrupts one well-formed module in a specific way and asserts
the verifier reports that exact defect — with the op-path location and,
where a pass ran, the pass provenance — rather than passing silently or
crashing on the inconsistent structure.
"""

import pytest
from reference_verifier import ReferenceVerifier, assert_agrees_with_reference

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir.core import Block, Operation, Region, VerifyException
from repro.ir.diagnostics import DiagnosticError
from repro.ir.passes import ModulePass, PassManager
from repro.ir.types import f64
from repro.ir.verifier import (
    ModuleVerifier,
    verify_module,
    verify_module_diagnostics,
)


def make_module():
    """module { func @f(%x: f64) { %c = 2.0; %m = mulf %x, %c; return } }"""
    module = ModuleOp()
    func = FuncOp.with_body("f", [f64], [])
    module.add_op(func)
    c = arith.ConstantOp.from_float(2.0)
    mul = arith.MulfOp(func.entry_block.args[0], c.result)
    func.entry_block.add_ops([c, mul, ReturnOp([])])
    return module, func, c, mul


def sole_error(module):
    with pytest.raises(DiagnosticError) as err:
        verify_module(module)
    assert len(err.value.diagnostics) == 1
    assert_agrees_with_reference(module)
    return err.value.diagnostics[0]


class TestBrokenParentLinks:
    def test_op_parent_block_link(self):
        module, func, c, mul = make_module()
        c.parent = None  # still listed in the block's ops
        diag = sole_error(module)
        assert "parent block link is broken" in diag.message
        assert "arith.constant" in diag.path

    def test_op_parent_points_at_wrong_block(self):
        module, func, c, mul = make_module()
        c.parent = Block()
        diag = sole_error(module)
        assert "parent block link is broken" in diag.message

    def test_region_parent_link(self):
        module, func, *_ = make_module()
        func.regions[0].parent = None
        diag = sole_error(module)
        assert "region parent link is broken" in diag.message
        assert "func @f" in diag.path

    def test_block_parent_link(self):
        module, func, *_ = make_module()
        func.entry_block.parent = None
        diag = sole_error(module)
        assert "block parent link is broken" in diag.message


class TestDominance:
    def test_use_before_def_same_block(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        a = arith.ConstantOp.from_float(1.0)
        neg = arith.NegfOp(a.result)
        func.entry_block.add_ops([neg, a, ReturnOp([])])
        diag = sole_error(module)
        assert "not visible/dominated" in diag.message
        assert "arith.negf" in diag.path

    def test_use_before_def_across_region_boundary(self):
        """A use nested in a region must obey the *outer* block's order:
        the container op sits before the definition, so the nested use is
        a dominance violation even though it is in a different block."""
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        c = arith.ConstantOp.from_float(1.0)
        inner = Block()
        container = Operation(regions=[Region([inner])])
        inner.add_op(arith.NegfOp(c.result))
        func.entry_block.add_ops([container, c, ReturnOp([])])
        diag = sole_error(module)
        assert "not visible/dominated" in diag.message
        assert "arith.negf" in diag.path

    def test_region_local_value_escapes(self):
        """A value defined inside a region is not visible to ops after the
        container in the enclosing block."""
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        c = arith.ConstantOp.from_float(1.0)
        container = Operation(regions=[Region([Block([c])])])
        escaped = arith.NegfOp(c.result)
        func.entry_block.add_ops([container, escaped, ReturnOp([])])
        diag = sole_error(module)
        assert "not visible/dominated" in diag.message

    def test_op_uses_its_own_result(self):
        module, func, c, mul = make_module()
        mul.replace_operand(0, mul.result)
        diag = sole_error(module)
        assert "operand 0 is not visible/dominated" in diag.message
        assert "arith.mulf" in diag.path

    def test_nested_use_of_the_enclosing_op_result(self):
        """An op's results come into scope after the op, so its own
        regions cannot use them."""
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        inner = Block()
        container = Operation(result_types=[f64], regions=[Region([inner])])
        inner.add_op(arith.NegfOp(container.results[0]))
        func.entry_block.add_ops([container, ReturnOp([])])
        diag = sole_error(module)
        assert "not visible/dominated" in diag.message
        assert "arith.negf" in diag.path

    def test_cross_function_use_rejected(self):
        module = ModuleOp()
        f = FuncOp.with_body("f", [], [])
        g = FuncOp.with_body("g", [], [])
        module.add_op(f)
        module.add_op(g)
        c = arith.ConstantOp.from_float(1.0)
        f.entry_block.add_ops([c, ReturnOp([])])
        g.entry_block.add_ops([arith.NegfOp(c.result), ReturnOp([])])
        diag = sole_error(module)
        assert "not visible/dominated" in diag.message
        assert "func @g" in diag.path


class TestBackReferences:
    def test_misindexed_block_argument(self):
        module, func, *_ = make_module()
        func.entry_block.args[0].index = 1
        diag = sole_error(module)
        assert "block argument back-reference is broken" in diag.message
        assert "func @f" in diag.path

    def test_block_argument_owned_by_other_block(self):
        module, func, *_ = make_module()
        func.entry_block.args[0].block = Block()
        diag = sole_error(module)
        assert "block argument back-reference is broken" in diag.message

    def test_misindexed_result(self):
        module, func, c, mul = make_module()
        c.results[0].index = 3
        diag = sole_error(module)
        assert "result 0 back-reference is broken" in diag.message
        assert "arith.constant" in diag.path


class TestTerminators:
    def test_terminator_not_last(self):
        module, func, *_ = make_module()
        func.entry_block.add_op(arith.ConstantOp.from_float(0.0))
        diag = sole_error(module)
        assert "terminator is not the last operation of its block" in diag.message
        assert "func.return" in diag.path


class TestCollectMode:
    def test_all_findings_gathered(self):
        """Collect mode keeps going past the first error and reports every
        independent defect in one run."""
        module, func, c, mul = make_module()
        func.entry_block.add_op(arith.ConstantOp.from_float(0.0))  # after return
        c.results[0].index = 3
        diagnostics = verify_module_diagnostics(module)
        messages = "\n".join(d.message for d in diagnostics)
        assert "result 0 back-reference is broken" in messages
        assert "terminator is not the last operation" in messages
        assert len(diagnostics) >= 2
        # Fail-fast mode stops at the first of those.
        with pytest.raises(DiagnosticError) as err:
            verify_module(module)
        assert len(err.value.diagnostics) == 1
        assert_agrees_with_reference(module)

    def test_reference_verifier_agrees(self):
        """The one-walk verifier reports what the link-climbing reference
        reports, under either of the reference's index strategies."""
        module, func, c, mul = make_module()
        func.entry_block.add_op(arith.ConstantOp.from_float(0.0))
        one_walk = ModuleVerifier(collect=True).verify(module)
        cached = ReferenceVerifier(collect=True, cache_indices=True).verify(module)
        legacy = ReferenceVerifier(collect=True, cache_indices=False).verify(module)
        assert one_walk == cached == legacy
        assert [d.message for d in one_walk] == [
            "terminator is not the last operation of its block"
        ]


class _BreakIR(ModulePass):
    """Appends a constant after the terminator: breaks every module."""

    name = "break-ir"

    def apply(self, module):
        func = next(iter(module.walk_type(FuncOp)))
        func.entry_block.add_op(arith.ConstantOp.from_float(0.0))
        return True


class _Identity(ModulePass):
    name = "identity"

    def apply(self, module):
        return False


class TestPassProvenance:
    def test_error_names_pass_and_pipeline_position(self):
        module, *_ = make_module()
        manager = PassManager([_Identity(), _BreakIR()])
        with pytest.raises(VerifyException) as err:
            manager.run(module)
        message = str(err.value)
        assert "verification failed after pass 'break-ir'" in message
        assert "(position 1 in pipeline 'identity,break-ir')" in message

    def test_provenance_survives_verify_each_off(self):
        """With verify_each=False the broken module escapes the pass
        manager silently; a later manual verify must still attribute the
        damage to the pass that did it."""
        module, *_ = make_module()
        manager = PassManager([_Identity(), _BreakIR()], verify_each=False)
        manager.run(module)  # does not raise
        with pytest.raises(DiagnosticError) as err:
            verify_module(module)
        notes = [note for d in err.value.diagnostics for note in d.notes]
        assert (
            "module last transformed by pass 'break-ir' "
            "(position 1 in pipeline 'identity,break-ir')" in notes
        )
        assert_agrees_with_reference(module)

    def test_collected_diagnostics_carry_provenance_too(self):
        module, *_ = make_module()
        PassManager([_BreakIR()], verify_each=False).run(module)
        diagnostics = verify_module_diagnostics(module)
        assert diagnostics
        for diag in diagnostics:
            assert any("last transformed by pass 'break-ir'" in n for n in diag.notes)

    def test_clean_pipeline_leaves_no_error(self):
        module, *_ = make_module()
        PassManager([_Identity()]).run(module)
        verify_module(module)  # still well-formed, provenance note unused
