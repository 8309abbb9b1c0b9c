"""Tests for the reference interpreter."""

import warnings

import numpy as np
import pytest

from repro.dialects import arith, hls, llvm as llvm_d, math as math_d, memref as memref_d
from repro.dialects import scf, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.fpga.dataflow_sim import HLSInterpreter
from repro.interp import Interpreter, InterpreterError, interpret_stencil_module
from repro.ir.core import Operation
from repro.ir.types import LLVMArrayType, MemRefType, f64, index
from repro.runtime.streams import FIFOStream, StreamClosedError


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

        main = FuncOp.with_body("main", [index], [f64])  # a caller of sum_n
        call = CallOp("sum_n", [main.args[0]], [f64])
        main.entry_block.add_ops([call, ReturnOp([call.results[0]])])
        interp.module.add_op(main)
        assert interp.run("main", 5) == [-10.0]

        replacement = FuncOp.with_body("sum_n", [index], [f64])
        seven = arith.ConstantOp.from_float(7.0)
        replacement.entry_block.add_ops([seven, ReturnOp([seven.result])])
        interp.module.body.insert_op_before(replacement, func)   # the first sum_n wins
        assert interp.run("main", 5) == [7.0]
        replacement.erase()
        assert interp.run("main", 5) == [-10.0]


def _loop_module(stream_types, body, lower: int = 0) -> ModuleOp:
    """``f(n, *streams)`` runs ``scf.for %i = lower to n`` over the ops that
    ``body(i, streams)`` returns; ``stream_types`` are the streams'
    element types."""
    func = FuncOp.with_body("f", [index, *(hls.StreamType(t) for t in stream_types)], [])
    n, *streams = func.args
    lb = arith.ConstantOp.from_index(lower)
    one = arith.ConstantOp.from_index(1)
    loop = scf.ForOp(lb.result, n, one.result)
    loop.body.add_ops([*body(loop.induction_variable, streams), scf.YieldOp()])
    func.entry_block.add_ops([lb, one, loop, ReturnOp([])])
    return module_with(func)


def _stream(*items) -> FIFOStream:
    stream = FIFOStream()
    stream.extend(items)
    return stream


def _stats(stream: FIFOStream) -> tuple[int, int, int, int]:
    return len(stream), stream.total_pushed, stream.total_popped, stream.high_water_mark


def _spy_on_maps(interp: Interpreter) -> tuple[list[int], list[scf.ForOp]]:
    """(trip count of each loop run as a map, each loop tested for being a
    map) over the interpreter's next runs."""
    runs, tested = [], []
    run_map, map_body = interp._run_map, interp._map_body

    def spy_run(steps, induction_variable, values, env):
        runs.append(len(values))
        return run_map(steps, induction_variable, values, env)

    def spy_test(op):
        tested.append(op)
        return map_body(op)

    interp._run_map, interp._map_body = spy_run, spy_test
    return runs, tested


def _run(module: ModuleOp, *args, per_iteration: bool = False) -> list[int]:
    """Runs ``f`` on an :class:`HLSInterpreter`; the trip counts of the
    loops that ran as maps.  ``per_iteration`` empties the array-handler
    table, so that every loop runs one iteration at a time."""
    interp = HLSInterpreter(module)
    if per_iteration:
        interp.array_handlers = {}
    runs, _ = _spy_on_maps(interp)
    interp.run("f", *args)
    return runs


#: The element type of a 3-lane window stream.
WINDOW = LLVMArrayType(3, f64)


class TestMapLoops:
    """An ``scf.for`` whose body is a map runs once over whole arrays, and
    must compute what running it one iteration at a time computes; every
    other loop runs one iteration at a time."""

    @staticmethod
    def _difference(i, streams):
        """Read a window, write lane 0 minus lane 2."""
        src, dst = streams
        window = hls.ReadOp(src)
        first = llvm_d.ExtractValueOp(window.result, [0], f64)
        last = llvm_d.ExtractValueOp(window.result, [2], f64)
        diff = arith.SubfOp(first.result, last.result)
        return [hls.PipelineOp(1), window, first, last, diff, hls.WriteOp(dst, diff.result)]

    def test_a_map_runs_once_and_keeps_the_stream_statistics(self):
        module = _loop_module([WINDOW, f64], self._difference)
        windows = [np.array([float(k), 0.5, 2.0 * k]) for k in range(5)]

        def run(per_iteration: bool):
            src, dst = _stream(*windows), _stream(9.0, 9.0)    # dst starts non-empty
            runs = _run(module, 4, src, dst, per_iteration=per_iteration)
            return runs, _stats(src), _stats(dst), dst.drain()

        (map_runs, *mapped), (loop_runs, *per_iteration) = run(False), run(True)
        assert map_runs == [4] and loop_runs == []
        assert mapped == per_iteration == [
            (1, 5, 4, 5), (6, 6, 0, 6), [9.0, 9.0, 0.0, -1.0, -2.0, -3.0],
        ]

    def test_f64_writes_push_python_floats_and_an_invariant_once_per_iteration(self):
        def body(i, streams):
            src, dst, const_dst = streams
            x = hls.ReadOp(src)
            twice = arith.AddfOp(x.result, x.result)
            half = arith.ConstantOp.from_float(0.5)
            return [x, twice, half, hls.WriteOp(dst, twice.result),
                    hls.WriteOp(const_dst, half.result)]

        module = _loop_module([f64, f64, f64], body)
        src, dst, const_dst = _stream(*np.arange(3.0)), FIFOStream(), FIFOStream()
        assert _run(module, 3, src, dst, const_dst) == [3]
        items = dst.drain()
        assert items == [0.0, 2.0, 4.0] and {type(v) for v in items} == {float}
        assert const_dst.drain() == [0.5, 0.5, 0.5]
        assert const_dst.total_pushed == 3

    @pytest.mark.parametrize("divisor", [3, -3])
    def test_integer_division_keeps_python_floor_semantics(self, divisor):
        def body(i, streams):
            quotients, remainders = streams
            d = arith.ConstantOp.from_index(divisor)
            q = arith.DivsiOp(i, d.result)
            r = arith.RemsiOp(i, d.result)
            return [d, q, r, hls.WriteOp(quotients, q.result), hls.WriteOp(remainders, r.result)]

        module = _loop_module([index, index], body, lower=-5)
        quotients, remainders = FIFOStream(), FIFOStream()
        assert _run(module, 5, quotients, remainders) == [10]
        assert quotients.drain() == [i // divisor for i in range(-5, 5)]
        assert remainders.drain() == [i % divisor for i in range(-5, 5)]

    @pytest.mark.parametrize("op_class", [arith.DivsiOp, arith.RemsiOp, arith.DivfOp])
    def test_a_zero_divisor_raises_zero_division_error(self, op_class):
        is_float = op_class is arith.DivfOp

        def body(i, streams):
            src, dst = streams
            divisor = hls.ReadOp(src)
            one = arith.ConstantOp.from_float(1.0) if is_float else arith.ConstantOp.from_index(1)
            quotient = op_class(one.result, divisor.result)
            return [divisor, one, quotient, hls.WriteOp(dst, quotient.result)]

        element = f64 if is_float else index
        module = _loop_module([element, element], body)
        divisors = [2.0, 0.0, 4.0] if is_float else [2, 0, 4]
        interp = HLSInterpreter(module)
        runs, _ = _spy_on_maps(interp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                interp.run("f", 3, _stream(*divisors), FIFOStream())
        assert runs == [3]

    def test_a_stream_short_of_the_trip_count_raises(self):
        module = _loop_module([WINDOW, f64], self._difference)
        src = _stream(np.zeros(3), np.ones(3))
        interp = HLSInterpreter(module)
        runs, _ = _spy_on_maps(interp)
        with pytest.raises(StreamClosedError):
            interp.run("f", 3, src, FIFOStream())
        assert runs == [3]

    def test_a_zero_trip_loop_touches_no_stream(self):
        module = _loop_module([WINDOW, f64], self._difference)
        src, dst = _stream(np.zeros(3)), _stream(1.0)
        before = _stats(src), _stats(dst)
        assert _run(module, 0, src, dst) == []
        assert (_stats(src), _stats(dst)) == before

    def test_the_map_test_runs_once_per_loop_and_run(self):
        """A loop is tested when a run first reaches it, and again in the next
        run, which sees the module as it then stands."""
        module = _loop_module([WINDOW, f64], self._difference)
        interp = HLSInterpreter(module)
        runs, tested = _spy_on_maps(interp)
        interp.run("f", 1, _stream(np.zeros(3)), FIFOStream())
        (loop,) = tested
        *_, diff, write, _ = loop.body.ops
        neg = arith.NegfOp(diff.result)                 # no array handler
        loop.body.insert_op_after(neg, diff)
        write.replace_operand(1, neg.result)
        dst = FIFOStream()
        interp.run("f", 2, _stream(np.full(3, 1.0), np.array([1.0, 0.0, 4.0])), dst)
        assert tested == [loop, loop] and runs == [1]
        assert dst.drain() == [-0.0, 3.0]

    def test_a_loop_with_iteration_arguments_runs_per_iteration(self):
        func, _ = _sum_n()
        interp = Interpreter(module_with(func))
        runs, _ = _spy_on_maps(interp)
        assert interp.run("sum_n", 4) == [4.0]
        assert runs == []

    def test_a_loop_that_stores_runs_per_iteration(self):
        """Each iteration reads what the one before it stored."""
        func = FuncOp.with_body("f", [index, MemRefType([5], f64)], [])
        n, buf = func.args
        zero = arith.ConstantOp.from_index(0)
        one = arith.ConstantOp.from_index(1)
        loop = scf.ForOp(zero.result, n, one.result)
        i = loop.induction_variable
        prev = memref_d.LoadOp(buf, [i])
        one_f = arith.ConstantOp.from_float(1.0)
        succ = arith.AddfOp(prev.result, one_f.result)
        after = arith.AddiOp(i, one.result)
        store = memref_d.StoreOp(succ.result, buf, [after.result])
        loop.body.add_ops([prev, one_f, succ, after, store, scf.YieldOp()])
        func.entry_block.add_ops([zero, one, loop, ReturnOp([])])
        interp = Interpreter(module_with(func))
        runs, _ = _spy_on_maps(interp)
        data = np.zeros(5)
        interp.run("f", 4, data)
        assert data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] and runs == []

    def test_a_nested_loop_runs_the_outer_loop_per_iteration(self):
        """The inner loop is a map, run once per outer iteration; it writes
        the outer iteration's item twice."""
        func = FuncOp.with_body("f", [index, hls.StreamType(f64), hls.StreamType(f64)], [])
        n, src, dst = func.args
        zero = arith.ConstantOp.from_index(0)
        one = arith.ConstantOp.from_index(1)
        two = arith.ConstantOp.from_index(2)
        outer = scf.ForOp(zero.result, n, one.result)
        item = hls.ReadOp(src)
        inner = scf.ForOp(zero.result, two.result, one.result)
        inner.body.add_ops([hls.WriteOp(dst, item.result), scf.YieldOp()])
        outer.body.add_ops([item, inner, scf.YieldOp()])
        func.entry_block.add_ops([zero, one, two, outer, ReturnOp([])])
        interp = HLSInterpreter(module_with(func))
        runs, tested = _spy_on_maps(interp)
        dst_stream = FIFOStream()
        interp.run("f", 3, _stream(1.0, 2.0, 3.0), dst_stream)
        assert dst_stream.drain() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert runs == [2, 2, 2] and tested == [outer, inner]

    def test_a_body_reading_one_stream_twice_runs_per_iteration(self):
        def body(i, streams):
            src, dst = streams
            first, second = hls.ReadOp(src), hls.ReadOp(src)
            diff = arith.SubfOp(first.result, second.result)
            return [first, second, diff, hls.WriteOp(dst, diff.result)]

        module = _loop_module([f64, f64], body)
        dst = FIFOStream()
        assert _run(module, 3, _stream(1.0, 2.0, 4.0, 8.0, 16.0, 32.0), dst) == []
        assert dst.drain() == [-1.0, -4.0, -16.0]

    def test_a_body_reading_and_writing_one_stream_runs_per_iteration(self):
        def body(i, streams):
            (fifo,) = streams
            x = hls.ReadOp(fifo)
            twice = arith.AddfOp(x.result, x.result)
            return [x, twice, hls.WriteOp(fifo, twice.result)]

        module = _loop_module([f64], body)
        fifo = _stream(1.0)
        assert _run(module, 3, fifo) == []
        assert fifo.drain() == [8.0]
        assert (fifo.total_pushed, fifo.total_popped) == (4, 4)

    def test_a_body_with_an_op_without_array_handler_runs_per_iteration(self):
        def body(i, streams):
            src, dst = streams
            x = hls.ReadOp(src)
            neg = arith.NegfOp(x.result)
            return [x, neg, hls.WriteOp(dst, neg.result)]

        module = _loop_module([f64, f64], body)
        dst = FIFOStream()
        assert _run(module, 2, _stream(1.0, 2.0), dst) == []
        assert dst.drain() == [-1.0, -2.0]


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
