"""Use lists agree with operand slots, and the IR containers keep their shape.

The verifier checks that operands are visible where they are used, not
that use lists are right.  ``use_list_errors`` is the oracle for that: every
operand slot ``(op, i)`` of a module appears exactly once in the use list of
``op.operands[i]``, and every ``Use`` of every value reachable from the
module names a live slot that holds that value.  It runs after every pass of
every ``PIPELINE_VARIANTS`` entry of both kernels, and after seeded random
rewrite sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import StencilHMLSCompiler
from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.evaluation.harness import KERNEL_BUILDERS, PIPELINE_VARIANTS
from repro.ir import verifier
from repro.ir.core import Operation, Region, SSAValue, Use
from repro.ir.types import f64


def use_list_errors(module: Operation) -> list[str]:
    """Every disagreement between ``module``'s operand slots and use lists."""
    slots: dict[tuple[Operation, int], SSAValue] = {}
    values: dict[int, SSAValue] = {}
    for op in module.walk():
        for i, operand in enumerate(op.operands):
            slots[op, i] = operand
            values[id(operand)] = operand
        for result in op.results:
            values[id(result)] = result
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    values[id(arg)] = arg
    errors = []
    seen: set[tuple[Operation, int]] = set()
    for value in values.values():
        for use in value.uses:
            slot = (use.operation, use.index)
            if slots.get(slot) is not value:
                errors.append(
                    f"a use of {value!r} names {use.operation.name} operand "
                    f"{use.index}, which is not a live slot holding it"
                )
            elif slot in seen:
                errors.append(f"{use.operation.name} operand {use.index} is listed twice")
            else:
                seen.add(slot)
    for op, i in slots.keys() - seen:
        errors.append(f"{op.name} operand {i} is missing from its value's use list")
    return errors


# ---------------------------------------------------------------------------
# Every pass of every pipeline variant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(PIPELINE_VARIANTS))
@pytest.mark.parametrize("kernel", ["pw_advection", "tracer_advection"])
def test_use_lists_hold_after_every_pass(kernel, variant, small_shape, monkeypatch):
    """The pass manager verifies its input and every pass's output; each of
    those modules, and the compile's outputs, must pass the oracle."""
    checked: list[str] = []
    original = verifier.verify_module_diagnostics

    def verify_and_check(module):
        checked.append(getattr(module, "_pass_provenance", ("input",))[0])
        assert use_list_errors(module) == [], checked[-1]
        return original(module)

    monkeypatch.setattr(verifier, "verify_module_diagnostics", verify_and_check)
    source = KERNEL_BUILDERS[kernel](small_shape)
    assert use_list_errors(source) == []
    compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
    xclbin = compiler.compile(source)
    assert len(checked) > len(compiler.pass_statistics)
    assert checked[-1] == "convert-hls-to-llvm"
    for module in (source, xclbin.hls_module, xclbin.llvm_module):
        assert use_list_errors(module) == []


# ---------------------------------------------------------------------------
# Seeded random rewrite sequences
# ---------------------------------------------------------------------------


def _chain_module(length: int) -> tuple[ModuleOp, FuncOp]:
    """f(x, y): constants and additions/multiplications over them."""
    module = ModuleOp()
    func = FuncOp.with_body("f", [f64, f64], [f64])
    module.add_op(func)
    block = func.entry_block
    values = list(block.args)
    for i in range(length):
        if i % 3 == 0:
            op = arith.ConstantOp.from_float(float(i))
        elif i % 3 == 1:
            op = arith.AddfOp(values[-1], values[i // 2])
        else:
            op = arith.MulfOp(values[0], values[-1])
        block.add_op(op)
        values.append(op.result)
    block.add_op(ReturnOp([values[-1]]))
    return module, func


_STEP = st.tuples(
    st.sampled_from(["replace_operand", "set_operands", "replace_all_uses_with", "erase"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=24), st.lists(_STEP, max_size=25))
def test_use_lists_hold_after_random_rewrites(length, steps):
    module, func = _chain_module(length)
    block = func.entry_block
    # Values stay pickable after their op is erased: an erase with uses
    # left (``safe=False``) keeps its results alive in other operand slots.
    values: list[SSAValue] = [*block.args, *(r for op in block.ops for r in op.results)]
    for kind, a, b, c in steps:
        ops = [op for op in block.ops if op.operands]
        if not ops:
            break
        op = ops[a % len(ops)]
        if kind == "replace_operand":
            op.replace_operand(b % len(op.operands), values[c % len(values)])
        elif kind == "set_operands":
            op.set_operands([values[(c + k) % len(values)] for k in range(b % 4)])
        elif kind == "replace_all_uses_with":
            values[b % len(values)].replace_all_uses_with(values[c % len(values)])
        else:
            op.erase(safe=False)
        assert use_list_errors(module) == [], kind


# ---------------------------------------------------------------------------
# The container contract
# ---------------------------------------------------------------------------


def test_results_and_regions_are_tuples():
    const = arith.ConstantOp.from_float(1.0)
    assert type(const.results) is tuple and type(const.regions) is tuple
    bare = Operation()
    assert bare.results == () and bare.regions == ()
    holder = Operation(result_types=[f64, f64], regions=[Region()])
    assert type(holder.results) is tuple and len(holder.results) == 2
    added = holder.add_region(Region())
    assert type(holder.regions) is tuple and holder.regions[-1] is added
    assert added.parent is holder


def test_operands_are_the_ops_own_tuple_until_a_rewrite_replaces_it():
    a = arith.ConstantOp.from_float(1.0)
    b = arith.ConstantOp.from_float(2.0)
    add = arith.AddfOp(a.result, b.result)
    before = add.operands
    assert type(before) is tuple and add.operands is before
    add.replace_operand(0, b.result)
    assert add.operands is not before and before == (a.result, b.result)
    assert add.operands == (b.result, b.result)
    replaced = add.operands
    add.set_operands([a.result, a.result])
    assert add.operands is not replaced and type(add.operands) is tuple


def test_use_is_slotted_and_compares_by_slot():
    a = arith.ConstantOp.from_float(1.0)
    neg = arith.NegfOp(a.result)
    use = a.result.uses[0]
    assert not hasattr(use, "__dict__")
    assert use == Use(neg, 0) and hash(use) == hash(Use(neg, 0))
    assert use != Use(neg, 1) and use != Use(a, 0)


def test_remove_use_of_an_absent_slot_raises():
    a = arith.ConstantOp.from_float(1.0)
    neg = arith.NegfOp(a.result)
    with pytest.raises(ValueError):
        a.result.remove_use(neg, 1)
    assert a.result.remove_use(neg, 0) == Use(neg, 0)
    assert a.result.uses == []
