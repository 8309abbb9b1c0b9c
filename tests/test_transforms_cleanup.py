"""Tests for canonicalisation, CSE, DCE and the CPU (scf) lowering."""

import numpy as np
import pytest

from repro.dialects import arith, memref as memref_d, scf, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.core.pipeline import StencilHMLSCompiler
from repro.fpga.host import FPGAHost
from repro.frontends.builder import StencilKernelBuilder
from repro.interp import Interpreter, interpret_stencil_module
from repro.ir.passes import PassManager
from repro.ir.verifier import verify_module
from repro.kernels.grids import initial_fields
from repro.kernels.pw_advection import (
    PW_INPUT_FIELDS,
    PW_OUTPUT_FIELDS,
    PW_SCALARS,
    build_pw_advection,
    pw_advection_small_data,
)
from repro.kernels.reference import pw_advection_reference
from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.cse import CSEPass
from repro.transforms.dce import DCEPass
from repro.transforms.stencil_to_scf import StencilToSCFPass
from repro.ir.types import f64, i64


def build_scalar_func(body_builder):
    module = ModuleOp()
    func = FuncOp.with_body("f", [f64], [f64])
    module.add_op(func)
    result = body_builder(func)
    func.entry_block.add_op(ReturnOp([result]))
    return module, func


class TestDCE:
    def test_removes_unused_pure_chain(self):
        def body(func):
            x = func.args[0]
            dead1 = arith.ConstantOp.from_float(1.0)
            dead2 = arith.NegfOp(dead1.result)
            keep = arith.AddfOp(x, x)
            func.entry_block.add_ops([dead1, dead2, keep])
            return keep.result

        module, func = build_scalar_func(body)
        assert DCEPass().apply(module)
        names = [op.name for op in func.entry_block.ops]
        assert names == ["arith.addf", "func.return"]

    def test_keeps_side_effecting_ops(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        alloc = memref_d.AllocOp(memref_d.MemRefType([2], f64))
        func.entry_block.add_ops([alloc, ReturnOp([])])
        DCEPass().apply(module)
        assert any(op.name == "memref.alloc" for op in func.entry_block.ops)

    def test_no_change_reported(self):
        module, _ = build_scalar_func(
            lambda f: f.entry_block.add_op(arith.NegfOp(f.args[0])) and None
            or f.entry_block.ops[0].result
        )
        DCEPass().apply(module)
        assert DCEPass().apply(module) is False


class TestCSE:
    def test_deduplicates_identical_ops(self):
        def body(func):
            x = func.args[0]
            a = arith.AddfOp(x, x)
            b = arith.AddfOp(x, x)
            total = arith.MulfOp(a.result, b.result)
            func.entry_block.add_ops([a, b, total])
            return total.result

        module, func = build_scalar_func(body)
        assert CSEPass().apply(module)
        adds = [op for op in func.entry_block.ops if isinstance(op, arith.AddfOp)]
        assert len(adds) == 1
        mul = next(op for op in func.entry_block.ops if isinstance(op, arith.MulfOp))
        assert mul.operands[0] is mul.operands[1]

    def test_different_attributes_not_merged(self):
        def body(func):
            a = arith.ConstantOp.from_float(1.0)
            b = arith.ConstantOp.from_float(2.0)
            total = arith.AddfOp(a.result, b.result)
            func.entry_block.add_ops([a, b, total])
            return total.result

        module, func = build_scalar_func(body)
        CSEPass().apply(module)
        consts = [op for op in func.entry_block.ops if isinstance(op, arith.ConstantOp)]
        assert len(consts) == 2

    def test_int_constants_with_colliding_hashes_stay_apart(self):
        """``hash(-1) == hash(-2)`` in CPython; the constants still differ."""
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [i64])
        module.add_op(func)
        a = arith.ConstantOp.from_int(-1)
        b = arith.ConstantOp.from_int(-2)
        total = arith.AddiOp(a.result, b.result)
        func.entry_block.add_ops([a, b, total, ReturnOp([total.result])])
        CSEPass().apply(module)
        values = [op.attributes["value"].value for op in func.entry_block.ops
                  if isinstance(op, arith.ConstantOp)]
        assert values == [-1, -2]
        assert total.operands[0] is not total.operands[1]

    def test_offsets_with_colliding_hashes_stay_apart(self):
        """``src[-1,0,0] - src[-2,0,0]`` reads two cells: canonicalisation
        keeps both accesses, and the Stencil-HMLS design computes what the
        stencil interpreter computes on the module as built."""
        shape = (10, 9, 8)

        def build():
            builder = StencilKernelBuilder("diff", shape)
            src = builder.input_field("src")
            builder.add_stencil(builder.output_field("out"), src[-1, 0, 0] - src[-2, 0, 0])
            return builder.build()

        module = build()
        PassManager([CanonicalizePass()]).run(module)
        offsets = [tuple(op.attributes["offset"]) for op in module.walk()
                   if isinstance(op, stencil.AccessOp)]
        assert sorted(offsets) == [(-2, 0, 0), (-1, 0, 0)]

        src = np.random.default_rng(0).standard_normal(shape)
        expected = {"src": src.copy(), "out": np.zeros(shape)}
        interpret_stencil_module(build(), "diff", expected)
        host = FPGAHost()
        host.program(StencilHMLSCompiler().compile(build()))
        arrays = {"src": src.copy(), "out": np.zeros(shape)}
        host.run(arrays, {}, functional=True)
        assert np.abs(expected["out"]).sum() > 0
        assert np.allclose(arrays["out"], expected["out"])

    def test_preserves_semantics_on_kernel(self, small_shape):
        module = build_pw_advection(small_shape)
        reference_module = build_pw_advection(small_shape)
        PassManager([CSEPass(), DCEPass()]).run(module)
        verify_module(module)
        arrays = initial_fields(small_shape, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS)
        small = pw_advection_small_data(small_shape)

        def run(mod):
            data = {k: v.copy() for k, v in arrays.items()}
            data.update({k: v.copy() for k, v in small.items()})
            ordered = []
            func = mod.get_symbol("pw_advection")
            for arg in func.entry_block.args:
                ordered.append(data[arg.name_hint] if arg.name_hint in data else PW_SCALARS[arg.name_hint])
            Interpreter(mod).run("pw_advection", *ordered)
            return {f: data[f] for f in PW_OUTPUT_FIELDS}

        out_a = run(module)
        out_b = run(reference_module)
        for name in PW_OUTPUT_FIELDS:
            assert np.allclose(out_a[name], out_b[name])


class TestCanonicalize:
    def test_constant_folding(self):
        def body(func):
            a = arith.ConstantOp.from_float(2.0)
            b = arith.ConstantOp.from_float(3.0)
            add = arith.AddfOp(a.result, b.result)
            use = arith.MulfOp(add.result, func.args[0])
            func.entry_block.add_ops([a, b, add, use])
            return use.result

        module, func = build_scalar_func(body)
        CanonicalizePass().apply(module)
        adds = [op for op in func.walk() if isinstance(op, arith.AddfOp)]
        assert not adds
        consts = [op.value for op in func.walk() if isinstance(op, arith.ConstantOp)]
        assert 5.0 in consts

    def test_identity_simplification(self):
        def body(func):
            x = func.args[0]
            zero = arith.ConstantOp.from_float(0.0)
            one = arith.ConstantOp.from_float(1.0)
            a = arith.AddfOp(x, zero.result)
            b = arith.MulfOp(a.result, one.result)
            func.entry_block.add_ops([zero, one, a, b])
            return b.result

        module, func = build_scalar_func(body)
        CanonicalizePass().apply(module)
        ret = func.entry_block.terminator
        assert ret.operands[0] is func.args[0]

    def test_integer_folding(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        a = arith.ConstantOp.from_index(6)
        b = arith.ConstantOp.from_index(7)
        mul = arith.MuliOp(a.result, b.result)
        alloc = memref_d.AllocOp(memref_d.MemRefType([-1], f64), [mul.result])
        func.entry_block.add_ops([a, b, mul, alloc, ReturnOp([])])
        CanonicalizePass().apply(module)
        consts = [op.value for op in func.walk() if isinstance(op, arith.ConstantOp)]
        assert 42 in consts


class TestStencilToSCF:
    def _lowered(self, shape, parallel=True):
        module = build_pw_advection(shape)
        PassManager([StencilToSCFPass(use_parallel=parallel)]).run(module)
        verify_module(module)
        return module

    def test_no_stencil_ops_remain(self, small_shape):
        module = self._lowered(small_shape)
        assert not list(module.walk_type(stencil.ApplyOp))
        assert not list(module.walk_type(stencil.StoreOp))
        assert not list(module.walk_type(stencil.ExternalLoadOp))

    def test_generates_loops_and_memory_ops(self, small_shape):
        module = self._lowered(small_shape)
        assert len(list(module.walk_type(scf.ParallelOp))) == 3      # one nest per stencil
        assert list(module.walk_type(memref_d.LoadOp))
        assert list(module.walk_type(memref_d.StoreOp))

    def test_sequential_variant(self, small_shape):
        module = self._lowered(small_shape, parallel=False)
        fors = list(module.walk_type(scf.ForOp))
        assert len(fors) == 9                                        # 3 stencils x 3 dims
        assert not list(module.walk_type(scf.ParallelOp))

    @pytest.mark.parametrize("parallel", [True, False])
    def test_matches_reference(self, small_shape, parallel):
        module = self._lowered(small_shape, parallel)
        arrays = initial_fields(small_shape, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS)
        small = pw_advection_small_data(small_shape)
        ref = {k: v.copy() for k, v in arrays.items()}
        pw_advection_reference(ref, small, PW_SCALARS, small_shape)

        data = {k: v.copy() for k, v in arrays.items()}
        data.update({k: v.copy() for k, v in small.items()})
        func = module.get_symbol("pw_advection")
        ordered = [
            data[arg.name_hint] if arg.name_hint in data else PW_SCALARS[arg.name_hint]
            for arg in func.entry_block.args
        ]
        Interpreter(module).run("pw_advection", *ordered)
        for name in PW_OUTPUT_FIELDS:
            assert np.allclose(data[name], ref[name])
