"""Micro-benchmark regression harness for the hash-consed IR layer.

Enforces the measured wins of attribute interning and emits a
``BENCH_ir.json`` trajectory artifact (uploaded by CI) so the numbers are
tracked over time rather than asserted once: a ≥ 90% intern-hit rate over
a compile session, equality that degenerates to identity for
structurally equal attributes, and an HLS→LLVM lowering that splices ops
into a block only to outline ``hls.dataflow`` regions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import StencilHMLSCompiler
from repro.dialects import hls
from repro.ir.core import Block
from repro.ir.interning import ATTRIBUTE_INTERNER, intern_stats
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection
from repro.transforms.hls_to_llvm import HLSToLLVMPass

_RECORD: dict[str, object] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Collect per-test measurements and write the trajectory artifact."""
    yield _RECORD
    path = Path(os.environ.get("BENCH_IR_JSON", "BENCH_ir.json"))
    path.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")


def test_intern_hit_rate_over_compile_session():
    """≥ 90% of attribute constructions during compilation are intern hits."""
    before = intern_stats().snapshot()
    for builder, sizes in (
        (build_pw_advection, PW_ADVECTION_SIZES),
        (build_tracer_advection, TRACER_ADVECTION_SIZES),
    ):
        StencilHMLSCompiler().compile(builder(sizes["8M"].shape))
    after = intern_stats().snapshot()
    hits = after[0] - before[0]
    misses = after[1] - before[1]
    rate = hits / max(hits + misses, 1)
    _RECORD["intern"] = {
        "lookups": hits + misses,
        "hits": hits,
        "unique_attributes": len(ATTRIBUTE_INTERNER),
        "hit_rate": round(rate, 4),
    }
    assert rate >= 0.90, f"intern-hit rate only {rate:.1%}"


def test_attribute_equality_is_identity_on_representative_module():
    """Every attribute/type reachable from a compiled module is canonical:
    an equal attribute is the *same object*, so `==` is a pointer check."""
    xclbin = StencilHMLSCompiler().compile(
        build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)
    )
    seen = 0
    for module in (xclbin.hls_module, xclbin.llvm_module):
        for op in module.walk():
            for attr in op.attributes.values():
                assert ATTRIBUTE_INTERNER.intern(attr) is attr
                seen += 1
            for result in op.results:
                assert ATTRIBUTE_INTERNER.intern(result.type) is result.type
                seen += 1
    _RECORD["identity"] = {"attributes_checked": seen}
    assert seen > 100


def test_hls_to_llvm_lowering_splices_only_to_outline_dataflow(monkeypatch):
    """Lowering tracer 8M's HLS module rebuilds each block once: it calls
    ``Block.insert_op_before`` (a scan plus a shift of the block) at most
    once per ``hls.dataflow`` op, never once per lowered op."""
    module = StencilHMLSCompiler().compile(
        build_tracer_advection(TRACER_ADVECTION_SIZES["8M"].shape)
    ).hls_module.clone()
    dataflow_ops = sum(isinstance(op, hls.DataflowOp) for op in module.walk())
    calls = 0
    insert_op_before = Block.insert_op_before

    def counting(self, op, anchor):
        nonlocal calls
        calls += 1
        return insert_op_before(self, op, anchor)

    monkeypatch.setattr(Block, "insert_op_before", counting)
    HLSToLLVMPass().apply(module)
    _RECORD["hls_to_llvm"] = {"insert_op_before_calls": calls, "dataflow_ops": dataflow_ops}
    assert dataflow_ops > 0
    assert calls <= dataflow_ops, f"{calls} splices for {dataflow_ops} hls.dataflow ops"
