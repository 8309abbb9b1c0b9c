"""Unit tests for the SSA IR core: values, operations, blocks, regions."""

import importlib
import pkgutil

import pytest

import repro.dialects
from repro.dialects import arith, scf, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir.core import (
    Block,
    HasCanonicalizer,
    IsTerminator,
    Operation,
    OpTrait,
    Pure,
    Region,
    VerifyException,
)
from repro.ir.types import f64, i64

DIALECT_MODULES = [
    f"repro.dialects.{info.name}" for info in pkgutil.iter_modules(repro.dialects.__path__)
]


def _op_subclasses(cls):
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _op_subclasses(sub)
    return found


def make_add():
    a = arith.ConstantOp.from_float(1.0)
    b = arith.ConstantOp.from_float(2.0)
    add = arith.AddfOp(a.result, b.result)
    return a, b, add


class TestSSAValues:
    def test_result_belongs_to_op(self):
        a = arith.ConstantOp.from_float(1.0)
        assert a.result.op is a
        assert a.result.index == 0
        assert a.result.type == f64

    def test_use_tracking(self):
        a, b, add = make_add()
        assert a.result.num_uses == 1
        assert b.result.num_uses == 1
        assert add in a.result.users

    def test_replace_all_uses_with(self):
        a, b, add = make_add()
        c = arith.ConstantOp.from_float(3.0)
        a.result.replace_all_uses_with(c.result)
        assert add.operands[0] is c.result
        assert a.result.num_uses == 0
        assert c.result.num_uses == 1

    def test_replace_all_uses_with_self_is_noop(self):
        a, _, add = make_add()
        a.result.replace_all_uses_with(a.result)
        assert add.operands[0] is a.result

    def test_block_argument_owner(self):
        block = Block([f64, i64])
        assert block.args[0].owner() is block
        assert block.args[1].index == 1

    def test_result_property_requires_single_result(self):
        ret = ReturnOp([])
        with pytest.raises(ValueError):
            _ = ret.result


class TestOperations:
    def test_operands_are_tuples(self):
        _, _, add = make_add()
        assert isinstance(add.operands, tuple)
        assert len(add.operands) == 2

    def test_non_ssa_operand_rejected(self):
        a = arith.ConstantOp.from_float(1.0)
        with pytest.raises(TypeError):
            arith.AddfOp(a.result, 3.0)  # type: ignore[arg-type]

    def test_set_operands_rewires_uses(self):
        a, b, add = make_add()
        c = arith.ConstantOp.from_float(4.0)
        add.set_operands([c.result, c.result])
        assert a.result.num_uses == 0
        assert b.result.num_uses == 0
        assert c.result.num_uses == 2

    def test_erase_with_uses_raises(self):
        a, _, _ = make_add()
        with pytest.raises(VerifyException):
            a.erase()

    def test_erase_unused_ok(self):
        a = arith.ConstantOp.from_float(1.0)
        block = Block()
        block.add_op(a)
        a.erase()
        assert a.parent is None
        assert block.ops == ()

    def test_detach_keeps_operands(self):
        a, _, add = make_add()
        block = Block()
        block.add_ops([a, add])
        add.detach()
        assert add.parent is None
        assert a.result.num_uses == 1

    def test_parent_links(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [f64], [])
        module.add_op(func)
        const = arith.ConstantOp.from_float(1.0)
        func.entry_block.add_op(const)
        assert const.parent_op() is func
        assert func.parent_op() is module
        assert const.parent_region() is func.body

    def test_walk_preorder(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        const = arith.ConstantOp.from_float(1.0)
        func.entry_block.add_op(const)
        names = [op.name for op in module.walk()]
        assert names == ["builtin.module", "func.func", "arith.constant"]

    def test_walk_lists_each_block_when_it_reaches_it(self):
        """Pre-order, and a block's ops are listed when the walk reaches
        the block: an op inserted into a block already listed is not
        visited, one inserted into a later block of the same op is."""
        c = arith.ConstantOp.from_float(3.0)
        inner = Operation(regions=[Region([Block()])])
        inner.regions[0].block.add_op(c)
        a = arith.ConstantOp.from_float(1.0)
        b = arith.ConstantOp.from_float(2.0)
        first, second = Block(), Block()
        first.add_ops([a, inner])
        second.add_op(b)
        outer = Operation(regions=[Region([first, second])])
        module = ModuleOp()
        module.add_op(outer)
        into_listed = arith.ConstantOp.from_float(4.0)
        into_later = arith.ConstantOp.from_float(5.0)
        visited = []
        for op in module.walk():
            visited.append(op)
            if op is a:
                first.insert_op(into_listed, 2)
                second.insert_op(into_later, 0)
        assert visited == [module, outer, a, inner, c, into_later, b]

    def test_walk_type(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        func.entry_block.add_ops([arith.ConstantOp.from_float(1.0), ReturnOp([])])
        assert len(list(module.walk_type(arith.ConstantOp))) == 1

    def test_clone_remaps_operands(self):
        a, b, add = make_add()
        c = arith.ConstantOp.from_float(9.0)
        cloned = add.clone({a.result: c.result})
        assert cloned.operands[0] is c.result
        assert cloned.operands[1] is b.result
        assert cloned is not add

    def test_clone_regions_and_block_args(self):
        func = FuncOp.with_body("f", [f64], [])
        arg = func.entry_block.args[0]
        neg = arith.NegfOp(arg)
        func.entry_block.add_op(neg)
        value_map = {}
        cloned = func.clone(value_map)
        cloned_neg = list(cloned.walk_type(arith.NegfOp))[0]
        assert cloned_neg.operands[0] is cloned.entry_block.args[0]
        assert cloned_neg.operands[0] is not arg

    def test_traits(self):
        assert arith.AddfOp(arith.ConstantOp.from_float(1.0).result,
                            arith.ConstantOp.from_float(1.0).result).is_pure
        assert ReturnOp([]).is_terminator
        assert not ReturnOp([]).is_pure

    def test_cached_trait_answers_match_the_traits_of_every_op_class(self):
        for module in DIALECT_MODULES:
            importlib.import_module(module)
        classes = _op_subclasses(Operation)
        assert {arith.AddfOp, ReturnOp, scf.ForOp, stencil.ApplyOp} <= classes
        for cls in classes:
            for trait in (OpTrait, IsTerminator, Pure, HasCanonicalizer):
                expected = any(
                    issubclass(t, trait) if isinstance(t, type) else isinstance(t, trait)
                    for t in cls.traits
                )
                assert cls.has_trait(trait) is expected, (cls.__name__, trait.__name__)
                assert cls.has_trait(trait) is expected  # and again, from the cache

    def test_trait_given_as_an_instance(self):
        class MarkedOp(Operation):
            name = "test.marked"
            traits = frozenset([Pure()])

        op = MarkedOp()
        assert op.is_pure and MarkedOp.has_trait(OpTrait)
        assert not op.is_terminator


class TestBlocksAndRegions:
    def test_insert_before_after(self):
        block = Block()
        a = arith.ConstantOp.from_float(1.0)
        c = arith.ConstantOp.from_float(3.0)
        block.add_ops([a, c])
        b = arith.ConstantOp.from_float(2.0)
        block.insert_op_after(b, a)
        assert [op.attributes["value"].value for op in block.ops] == [1.0, 2.0, 3.0]
        d = arith.ConstantOp.from_float(0.0)
        block.insert_op_before(d, a)
        assert block.ops[0] is d

    def test_block_edits_act_on_the_exact_anchor(self):
        # Block edits find their anchor with list.index / list.remove, which
        # call __eq__ once per element they pass: operations keep object
        # identity as equality, so those scans compare pointers in C, and
        # structurally identical ops never stand in for one another.
        assert Operation.__eq__ is object.__eq__

        def assert_ops(block, *expected):
            assert all(got is want for got, want in zip(block.ops, expected, strict=True))

        block = Block()
        first, second, third = (arith.ConstantOp.from_float(1.0) for _ in range(3))
        block.add_ops([first, second, third])
        assert block.index_of(third) == 2
        assert block.index_of(second) == 1

        before = arith.ConstantOp.from_float(1.0)
        block.insert_op_before(before, third)
        after = arith.ConstantOp.from_float(1.0)
        block.insert_op_after(after, second)
        assert_ops(block, first, second, after, before, third)

        assert second.detach() is second
        assert second.parent is None
        assert_ops(block, first, after, before, third)
        assert block.index_of(third) == 3

    def test_double_attach_rejected(self):
        block1, block2 = Block(), Block()
        op = arith.ConstantOp.from_float(1.0)
        block1.add_op(op)
        with pytest.raises(VerifyException):
            block2.add_op(op)

    def test_set_ops_installs_a_new_op_list(self):
        block = Block()
        kept, dropped = arith.ConstantOp.from_float(1.0), arith.ConstantOp.from_float(2.0)
        block.add_ops([kept, dropped])
        new = arith.ConstantOp.from_float(3.0)
        block.set_ops([new, kept])
        assert block.ops == (new, kept)
        assert new.parent is block and kept.parent is block and dropped.parent is None
        other = Block()
        other.add_op(dropped)
        with pytest.raises(VerifyException):
            block.set_ops([dropped])
        assert block.ops == (new, kept) and dropped.parent is other

    def test_terminator_property(self):
        block = Block()
        block.add_op(arith.ConstantOp.from_float(1.0))
        assert block.terminator is None
        block.add_op(ReturnOp([]))
        assert isinstance(block.terminator, ReturnOp)

    def test_block_add_and_erase_arg(self):
        block = Block()
        arg = block.add_arg(f64, "x")
        assert arg.name_hint == "x"
        block.erase_arg(arg)
        assert block.args == []

    def test_erase_used_block_arg_rejected(self):
        block = Block([f64])
        neg = arith.NegfOp(block.args[0])
        block.add_op(neg)
        with pytest.raises(VerifyException):
            block.erase_arg(block.args[0])

    def test_region_single_block_accessor(self):
        region = Region([Block()])
        assert region.block is region.blocks[0]
        region.add_block(Block())
        with pytest.raises(ValueError):
            _ = region.block

    def test_region_from_ops(self):
        region = Region.from_ops([arith.ConstantOp.from_float(1.0)])
        assert len(region.block.ops) == 1

    def test_module_symbol_lookup(self):
        module = ModuleOp()
        func = FuncOp.with_body("kernel", [], [])
        module.add_op(func)
        assert module.get_symbol("kernel") is func
        assert module.get_symbol("missing") is None
