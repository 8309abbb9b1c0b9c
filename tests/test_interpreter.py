"""Tests for the reference interpreter."""

import numpy as np
import pytest

from repro.dialects import arith, math as math_d, memref as memref_d, scf, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.interp import Interpreter, InterpreterError, interpret_stencil_module
from repro.ir.core import Operation
from repro.ir.types import MemRefType, f64, index


def module_with(func):
    module = ModuleOp()
    module.add_op(func)
    return module


class TestScalarPrograms:
    def build_axpy(self):
        func = FuncOp.with_body("axpy", [f64, f64, f64], [f64])
        a, x, y = func.args
        mul = arith.MulfOp(a, x)
        add = arith.AddfOp(mul.result, y)
        func.entry_block.add_ops([mul, add, ReturnOp([add.result])])
        return module_with(func)

    def test_axpy(self):
        module = self.build_axpy()
        assert Interpreter(module).run("axpy", 2.0, 3.0, 1.0) == [7.0]

    def test_missing_function(self):
        module = self.build_axpy()
        with pytest.raises(InterpreterError):
            Interpreter(module).run("nope")

    def test_wrong_arity(self):
        module = self.build_axpy()
        with pytest.raises(InterpreterError):
            Interpreter(module).run("axpy", 1.0)

    def test_math_and_compare_select(self):
        func = FuncOp.with_body("f", [f64], [f64])
        (x,) = func.args
        root = math_d.SqrtOp(x)
        zero = arith.ConstantOp.from_float(1.0)
        cond = arith.CmpfOp("ogt", root.result, zero.result)
        sel = arith.SelectOp(cond.result, root.result, zero.result)
        func.entry_block.add_ops([root, zero, cond, sel, ReturnOp([sel.result])])
        module = module_with(func)
        assert Interpreter(module).run("f", 16.0) == [4.0]
        assert Interpreter(module).run("f", 0.25) == [1.0]

    def test_call_between_functions(self):
        inner = FuncOp.with_body("double", [f64], [f64])
        add = arith.AddfOp(inner.args[0], inner.args[0])
        inner.entry_block.add_ops([add, ReturnOp([add.result])])
        outer = FuncOp.with_body("main", [f64], [f64])
        call = CallOp("double", [outer.args[0]], [f64])
        outer.entry_block.add_ops([call, ReturnOp([call.results[0]])])
        module = ModuleOp([inner, outer])
        assert Interpreter(module).run("main", 3.5) == [7.0]

    def test_external_function(self):
        decl = FuncOp.declaration("magic", [f64], [f64])
        outer = FuncOp.with_body("main", [f64], [f64])
        call = CallOp("magic", [outer.args[0]], [f64])
        outer.entry_block.add_ops([call, ReturnOp([call.results[0]])])
        module = ModuleOp([decl, outer])
        interp = Interpreter(module, externals={"magic": lambda v: v * 10})
        assert interp.run("main", 2.0) == [20.0]
        with pytest.raises(InterpreterError):
            Interpreter(module).run("main", 2.0)

    def test_unknown_op_reported(self):
        class WeirdOp(arith.ConstantOp.__bases__[0]):
            name = "weird.op"

        func = FuncOp.with_body("f", [], [])
        func.entry_block.add_ops([WeirdOp(), ReturnOp([])])
        with pytest.raises(InterpreterError):
            Interpreter(module_with(func)).run("f")


class TestControlFlow:
    def test_for_loop_accumulation(self):
        func = FuncOp.with_body("sum_n", [index], [f64])
        (n,) = func.args
        zero = arith.ConstantOp.from_index(0)
        one = arith.ConstantOp.from_index(1)
        init = arith.ConstantOp.from_float(0.0)
        loop = scf.ForOp(zero.result, n, one.result, [init.result])
        one_f = arith.ConstantOp.from_float(1.0)
        add = arith.AddfOp(loop.body_iter_args[0], one_f.result)
        loop.body.add_ops([one_f, add, scf.YieldOp([add.result])])
        func.entry_block.add_ops([zero, one, init, loop, ReturnOp([loop.results[0]])])
        module = module_with(func)
        assert Interpreter(module).run("sum_n", 5) == [5.0]
        assert Interpreter(module).run("sum_n", 0) == [0.0]

    def test_if_branches(self):
        func = FuncOp.with_body("clamp", [f64], [f64])
        (x,) = func.args
        zero = arith.ConstantOp.from_float(0.0)
        cond = arith.CmpfOp("olt", x, zero.result)
        branch = scf.IfOp(cond.result, [f64])
        branch.then_block.add_op(scf.YieldOp([zero.result]))
        branch.else_block.add_op(scf.YieldOp([x]))
        func.entry_block.add_ops([zero, cond, branch, ReturnOp([branch.results[0]])])
        module = module_with(func)
        assert Interpreter(module).run("clamp", -3.0) == [0.0]
        assert Interpreter(module).run("clamp", 3.0) == [3.0]

    def test_parallel_writes_buffer(self):
        func = FuncOp.with_body("fill", [MemRefType([3, 2], f64)], [])
        (buf,) = func.args
        zero = arith.ConstantOp.from_index(0)
        one = arith.ConstantOp.from_index(1)
        three = arith.ConstantOp.from_index(3)
        two = arith.ConstantOp.from_index(2)
        par = scf.ParallelOp([zero.result, zero.result], [three.result, two.result],
                             [one.result, one.result])
        value = arith.ConstantOp.from_float(7.0)
        store = memref_d.StoreOp(value.result, buf, list(par.induction_variables))
        par.body.add_ops([value, store, scf.YieldOp()])
        func.entry_block.add_ops([zero, one, three, two, par, ReturnOp([])])
        module = module_with(func)
        data = np.zeros((3, 2))
        Interpreter(module).run("fill", data)
        assert np.all(data == 7.0)


class _UnhandledOp(Operation):
    name = "test.unhandled"


class _ProbeOp(Operation):
    name = "test.probe"


def _sum_n(*after_loop: Operation) -> tuple[FuncOp, scf.ForOp]:
    """``sum_n(n)`` adds 1.0 ``n`` times in an ``scf.for``; ``after_loop``
    ops go between the loop and the return."""
    func = FuncOp.with_body("sum_n", [index], [f64])
    (n,) = func.args
    zero = arith.ConstantOp.from_index(0)
    one = arith.ConstantOp.from_index(1)
    init = arith.ConstantOp.from_float(0.0)
    loop = scf.ForOp(zero.result, n, one.result, [init.result])
    one_f = arith.ConstantOp.from_float(1.0)
    add = arith.AddfOp(loop.body_iter_args[0], one_f.result)
    loop.body.add_ops([one_f, add, scf.YieldOp([add.result])])
    func.entry_block.add_ops([zero, one, init, loop, *after_loop, ReturnOp([loop.results[0]])])
    return func, loop


class TestDecodedBlocks:
    """Blocks are decoded once per run; execution must still read as a walk
    over each block's ops in order."""

    def test_unhandled_op_after_the_terminator_is_never_reported(self):
        func = FuncOp.with_body("f", [f64], [f64])
        func.entry_block.add_ops([ReturnOp([func.args[0]]), _UnhandledOp()])
        assert Interpreter(module_with(func)).run("f", 2.0) == [2.0]

    def test_unhandled_op_is_reported_when_reached_after_the_ops_before_it(self):
        func = FuncOp.with_body("f", [MemRefType([2], f64)], [])
        (buf,) = func.args
        zero = arith.ConstantOp.from_index(0)
        value = arith.ConstantOp.from_float(5.0)
        store = memref_d.StoreOp(value.result, buf, [zero.result])
        func.entry_block.add_ops([zero, value, store, _UnhandledOp(), ReturnOp([])])
        data = np.zeros(2)
        with pytest.raises(InterpreterError, match="test.unhandled"):
            Interpreter(module_with(func)).run("f", data)
        assert data[0] == 5.0

    def test_unhandled_op_in_a_loop_body_is_reported_only_if_the_loop_runs(self):
        func = FuncOp.with_body("f", [index, MemRefType([4], f64)], [])
        n, buf = func.args
        zero = arith.ConstantOp.from_index(0)
        one = arith.ConstantOp.from_index(1)
        loop = scf.ForOp(zero.result, n, one.result)
        value = arith.ConstantOp.from_float(3.0)
        store = memref_d.StoreOp(value.result, buf, [loop.induction_variable])
        loop.body.add_ops([value, store, _UnhandledOp(), scf.YieldOp()])
        func.entry_block.add_ops([zero, one, loop, ReturnOp([])])
        module = module_with(func)
        data = np.zeros(4)
        assert Interpreter(module).run("f", 0, data) == []
        with pytest.raises(InterpreterError, match="test.unhandled"):
            Interpreter(module).run("f", 4, data)
        assert data.tolist() == [3.0, 0.0, 0.0, 0.0]   # stopped in the first iteration

    def test_loop_body_values_are_not_visible_after_the_loop(self):
        func, loop = _sum_n(_ProbeOp())
        one_f, add, _ = loop.body.ops
        interp = Interpreter(module_with(func))
        seen = []
        interp.handlers[_ProbeOp] = lambda _interp, _op, env: seen.append(set(env))
        assert interp.run("sum_n", 3) == [3.0]
        (visible,) = seen
        assert loop.results[0] in visible and func.args[0] in visible
        body_values = {one_f.result, add.result, loop.induction_variable, *loop.body_iter_args}
        assert not visible & body_values

    def test_run_after_mutating_the_module_executes_the_new_ir(self):
        func, loop = _sum_n()
        one_f = loop.body.ops[0]
        interp = Interpreter(module_with(func))
        assert interp.run("sum_n", 5) == [5.0]

        two_f = arith.ConstantOp.from_float(2.0)       # in the loop body
        loop.body.insert_op_before(two_f, one_f)
        one_f.result.replace_all_uses_with(two_f.result)
        one_f.erase()
        assert interp.run("sum_n", 5) == [10.0]

        neg = arith.NegfOp(loop.results[0])            # in the function's block
        func.entry_block.insert_op_after(neg, loop)
        func.entry_block.ops[-1].replace_operand(0, neg.result)
        assert interp.run("sum_n", 5) == [-10.0]


class TestMemrefOps:
    def test_alloc_and_dim(self):
        func = FuncOp.with_body("f", [], [index])
        alloc = memref_d.AllocOp(MemRefType([4, 6], f64))
        one = arith.ConstantOp.from_index(1)
        dim = memref_d.DimOp(alloc.result, one.result)
        func.entry_block.add_ops([alloc, one, dim, ReturnOp([dim.result])])
        assert Interpreter(module_with(func)).run("f") == [6]

    def test_copy(self):
        func = FuncOp.with_body("f", [MemRefType([4], f64), MemRefType([4], f64)], [])
        src, dst = func.args
        func.entry_block.add_ops([memref_d.CopyOp(src, dst), ReturnOp([])])
        a, b = np.arange(4.0), np.zeros(4)
        Interpreter(module_with(func)).run("f", a, b)
        assert np.array_equal(a, b)


class TestStencilInterpretation:
    def build_1d_sum(self, n=10):
        """The paper's Listing 1: sum of the two neighbours in 1-D."""
        func = FuncOp.with_body("listing1", [MemRefType([n], f64), MemRefType([n], f64)], [])
        src, dst = func.args
        field_type = stencil.FieldType([(0, n)], f64)
        ext_in = stencil.ExternalLoadOp(src, field_type)
        ext_out = stencil.ExternalLoadOp(dst, field_type)
        load = stencil.LoadOp(ext_in.result)
        apply_op = stencil.ApplyOp([load.result], [stencil.TempType([-1], f64)])
        left = stencil.AccessOp(apply_op.body.args[0], (-1,))
        right = stencil.AccessOp(apply_op.body.args[0], (1,))
        add = arith.AddfOp(left.result, right.result)
        apply_op.body.add_ops([left, right, add, stencil.ReturnOp([add.result])])
        store = stencil.StoreOp(apply_op.results[0], ext_out.result, (1,), (n - 1,))
        func.entry_block.add_ops([ext_in, ext_out, load, apply_op, store, ReturnOp([])])
        return module_with(func)

    def test_1d_neighbour_sum(self):
        n = 10
        module = self.build_1d_sum(n)
        src = np.arange(float(n))
        dst = np.zeros(n)
        Interpreter(module).run("listing1", src, dst)
        expected = np.zeros(n)
        expected[1:-1] = src[:-2] + src[2:]
        assert np.allclose(dst, expected)
        assert dst[0] == 0.0 and dst[-1] == 0.0  # boundary untouched

    def test_shape_mismatch_rejected(self):
        module = self.build_1d_sum(10)
        with pytest.raises(InterpreterError):
            Interpreter(module).run("listing1", np.zeros(5), np.zeros(5))

    def test_interpret_stencil_module_by_name(self, pw_module, pw_data):
        arrays, small, scalars = pw_data
        all_args = {k: v.copy() for k, v in arrays.items()}
        all_args.update({k: v.copy() for k, v in small.items()})
        all_args.update(scalars)
        interpret_stencil_module(pw_module, "pw_advection", all_args)
        assert np.isfinite(all_args["su"]).all()

    def test_interpret_missing_named_argument(self, pw_module):
        with pytest.raises(InterpreterError):
            interpret_stencil_module(pw_module, "pw_advection", {"u": np.zeros((6, 5, 4))})
