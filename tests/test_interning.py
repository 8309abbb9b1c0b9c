"""Interning (hash-consing) edge cases: identity equality, pickling across
process boundaries, nested-attribute equality, and module hashes that
follow every mutation."""

from __future__ import annotations

import math
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.dialects import arith, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.dialects.hls import AxiProtocolAttr, StreamType
from repro.ir.attributes import (
    ArrayAttr,
    BoolAttr,
    DenseIntArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntAttr,
    StringAttr,
    UnitAttr,
)
from repro.ir.hashing import module_hash
from repro.ir.interning import ATTRIBUTE_INTERNER, intern_stats
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.types import (
    FunctionType,
    IntegerType,
    MemRefType,
    f32,
    f64,
    i32,
    packed_interface_type,
)


class TestIdentityEquality:
    def test_scalar_types_are_uniqued(self):
        assert IntegerType(32) is IntegerType(32)
        assert IntegerType(32) is i32
        assert IntegerType(32) is not IntegerType(64)

    def test_data_attributes_are_uniqued(self):
        assert IntAttr(7) is IntAttr(7)
        assert IntAttr(7) is not IntAttr(8)
        assert IntAttr(7, i32) is not IntAttr(7)  # type participates
        assert FloatAttr(1.5) is FloatAttr(1.5)
        assert StringAttr("x") is StringAttr("x")
        assert BoolAttr(True) is BoolAttr(True)
        assert UnitAttr() is UnitAttr()

    def test_bool_int_attrs_do_not_collide(self):
        # bool == int in Python; the intern key includes the class.
        assert BoolAttr(True) is not IntAttr(1)
        assert BoolAttr(True) != IntAttr(1)

    def test_composite_types_are_uniqued(self):
        assert MemRefType((4, 4), f64) is MemRefType((4, 4), f64)
        assert MemRefType((4, 4), f64) is not MemRefType((4, 4), f64, "hbm")
        assert FunctionType([f64], [f32]) is FunctionType([f64], [f32])
        assert packed_interface_type(f64) is packed_interface_type(f64)

    def test_dialect_types_are_uniqued(self):
        assert StreamType(f64) is StreamType(f64)
        assert AxiProtocolAttr("m_axi") is AxiProtocolAttr(0)
        field = stencil.FieldType([(0, 8), (0, 8)], f64)
        assert field is stencil.FieldType([(0, 8), (0, 8)], f64)

    def test_equality_is_identity_for_equal_constructions(self):
        samples = [
            IntAttr(3),
            DenseIntArrayAttr([1, -2, 3]),
            ArrayAttr([IntAttr(1), FloatAttr(2.0)]),
            DictionaryAttr({"a": IntAttr(1), "b": StringAttr("s")}),
            StreamType(packed_interface_type(f32, 256)),
        ]
        clones = [
            IntAttr(3),
            DenseIntArrayAttr([1, -2, 3]),
            ArrayAttr([IntAttr(1), FloatAttr(2.0)]),
            DictionaryAttr({"b": StringAttr("s"), "a": IntAttr(1)}),
            StreamType(packed_interface_type(f32, 256)),
        ]
        for a, b in zip(samples, clones):
            assert a == b
            assert a is b
            assert hash(a) == hash(b)


class TestFloatIdentity:
    """Float attributes unique on their exact value: ``==`` on floats
    merges -0.0 into 0.0 and never finds NaN."""

    def test_negative_zero_keeps_its_sign(self):
        positive = FloatAttr(0.0)
        negative = FloatAttr(-0.0)
        assert negative is not positive
        assert negative != positive
        assert math.copysign(1.0, negative.value) == -1.0
        assert FloatAttr(-0.0) is negative

    def test_negative_zero_survives_print_and_parse(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        func.entry_block.add_ops(
            [
                arith.ConstantOp.from_float(0.0),
                arith.ConstantOp.from_float(-0.0),
                ReturnOp([]),
            ]
        )
        reparsed = parse_module(print_module(module))
        signs = [
            math.copysign(1.0, op.value)
            for op in reparsed.walk()
            if isinstance(op, arith.ConstantOp)
        ]
        assert signs == [1.0, -1.0]

    def test_nan_is_one_table_entry(self):
        first = FloatAttr(math.nan)
        size = len(ATTRIBUTE_INTERNER)
        assert all(FloatAttr(float("nan")) is first for _ in range(3))
        assert len(ATTRIBUTE_INTERNER) == size


class TestNestedEquality:
    def test_dense_int_array_nested_in_array_attr(self):
        inner = DenseIntArrayAttr([0, 1, 0])
        outer = ArrayAttr([inner, DenseIntArrayAttr([1, 0, 0])])
        rebuilt = ArrayAttr([DenseIntArrayAttr([0, 1, 0]), DenseIntArrayAttr([1, 0, 0])])
        assert outer is rebuilt
        assert outer[0] is inner
        assert list(outer[1]) == [1, 0, 0]

    def test_array_attr_order_matters(self):
        assert ArrayAttr([IntAttr(1), IntAttr(2)]) is not ArrayAttr([IntAttr(2), IntAttr(1)])


def _worker_identity_probe(attr):
    """Pool worker: the unpickled attribute must re-intern in this process."""
    local = DenseIntArrayAttr([4, 5, 6])
    return (
        attr is DenseIntArrayAttr([4, 5, 6]),
        attr == local,
        pickle.loads(pickle.dumps(attr)) is attr,
    )


class TestPickleReinterning:
    def test_roundtrip_restores_identity(self):
        for attr in (
            IntAttr(42),
            DenseIntArrayAttr([1, 2, 3]),
            ArrayAttr([IntAttr(1), DenseIntArrayAttr([7])]),
            MemRefType((8,), f64),
            StreamType(f64),
        ):
            assert pickle.loads(pickle.dumps(attr)) is attr

    def test_roundtrip_reinterns_nested_members(self):
        outer = pickle.loads(pickle.dumps(ArrayAttr([IntAttr(5), StringAttr("k")])))
        assert outer[0] is IntAttr(5)
        assert outer[1] is StringAttr("k")

    def test_identity_survives_process_pool(self):
        attr = DenseIntArrayAttr([4, 5, 6])
        with ProcessPoolExecutor(max_workers=1) as pool:
            interned_there, equal_there, repickled_there = pool.submit(
                _worker_identity_probe, attr
            ).result()
        assert interned_there
        assert equal_there
        assert repickled_there

    def test_reduce_excludes_precomputed_hash(self):
        attr = IntAttr(99)
        _, (cls, state) = attr.__reduce__()
        assert cls is IntAttr
        assert "_hash" not in state
        assert state["value"] == 99


class TestInternStats:
    def test_hits_accumulate_on_reconstruction(self):
        before = intern_stats().snapshot()
        probe = StringAttr("intern-stats-probe")
        StringAttr("intern-stats-probe")
        StringAttr("intern-stats-probe")
        hits, misses = intern_stats().snapshot()
        assert hits - before[0] >= 2
        assert misses - before[1] >= 1
        assert ATTRIBUTE_INTERNER.intern(probe) is probe  # table holds it
        assert 0.0 <= intern_stats().hit_rate <= 1.0


class TestFingerprintInvalidation:
    """Every mutation shows in the next hash of the module."""

    def test_attribute_dict_mutation_invalidates_cached_hash(self, pw_module):
        module = pw_module.clone()
        baseline = module_hash(module)
        ops = [op for op in module.walk() if op is not module]
        target = ops[len(ops) // 2]
        target.attributes["__probe"] = UnitAttr()
        changed = module_hash(module)
        assert changed != baseline
        del target.attributes["__probe"]
        assert module_hash(module) == baseline

    def test_block_and_region_fingerprints_track_operand_bindings(self):
        """[op(%a,%b)] and [op(%b,%a)] must hash differently."""
        from repro.dialects import arith
        from repro.dialects.func import FuncOp, ReturnOp
        from repro.ir.types import f64

        def build(swapped: bool) -> FuncOp:
            func = FuncOp.with_body("f", [f64, f64], [f64])
            a, b = func.args
            add = arith.AddfOp(*((b, a) if swapped else (a, b)))
            func.entry_block.add_ops([add, ReturnOp([add.result])])
            return func

        straight, swapped = build(False), build(True)
        assert module_hash(straight) != module_hash(swapped)
        assert module_hash(build(False)) == module_hash(straight)
        assert module_hash(build(True)) == module_hash(swapped)

    def test_drop_all_references_on_attached_op_invalidates_ancestors(self, pw_module):
        """Regression: dropping references without erasing is a mutation too."""
        module = pw_module.clone()
        baseline = module_hash(module)
        victim = next(
            op for op in module.walk()
            if op is not module and op.operands and not op.results
        )
        victim.drop_all_references()
        rehashed = module_hash(module)
        assert rehashed != baseline
        assert rehashed == module_hash(module.clone())

