"""Micro-benchmark regression harness for the hash-consed IR layer.

Enforces the measured wins of the interning/incremental-hashing rework and
emits a ``BENCH_ir.json`` trajectory artifact (uploaded by CI) so the
numbers are tracked over time rather than asserted once:

* attribute interning: ≥ 90% intern-hit rate over a compile session, and
  equality degenerates to identity for structurally equal attributes;
* incremental module hashing: re-hash after a single-op mutation is ≥ 5×
  faster than a cold full hash of the same module;
* per-pass-prefix caching: a warm ablation run that toggles only the last
  stencil→HLS sub-pass reuses the whole shared prefix — the per-stage hit
  stats prove zero upstream passes re-ran.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.compile_cache import CompileCache
from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import (
    ABLATION_VARIANTS,
    PIPELINE_VARIANTS,
    STAGED_PIPELINE,
)
from repro.ir.attributes import IntAttr
from repro.ir.hashing import module_hash
from repro.ir.interning import ATTRIBUTE_INTERNER, intern_stats
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection

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


def test_incremental_rehash_after_single_op_mutation_is_5x_faster():
    """Re-hash after one attribute edit must beat a cold full hash ≥ 5×."""
    xclbin = StencilHMLSCompiler().compile(
        build_tracer_advection(TRACER_ADVECTION_SIZES["33M"].shape)
    )
    module = xclbin.llvm_module

    cold_times = []
    for _ in range(3):
        fresh = module.clone()  # clones start with empty fingerprint caches
        start = time.perf_counter()
        cold_hash = module_hash(fresh)
        cold_times.append(time.perf_counter() - start)
    cold = min(cold_times)

    working = module.clone()
    baseline = module_hash(working)
    assert baseline == cold_hash
    ops = [op for op in working.walk() if op is not working]
    incremental_times = []
    for step in range(5):
        ops[(step * 97) % len(ops)].attributes["__bench_probe"] = IntAttr(step)
        start = time.perf_counter()
        mutated = module_hash(working)
        incremental_times.append(time.perf_counter() - start)
        assert mutated != baseline
        baseline = mutated
    incremental = min(incremental_times)

    speedup = cold / incremental
    _RECORD["rehash"] = {
        "module_ops": len(ops),
        "cold_ms": round(cold * 1e3, 3),
        "incremental_ms": round(incremental * 1e3, 3),
        "speedup": round(speedup, 1),
    }
    assert speedup >= 5.0, (
        f"incremental re-hash only {speedup:.1f}x faster "
        f"(cold {cold * 1e3:.2f}ms, incremental {incremental * 1e3:.3f}ms)"
    )


def test_prefix_cache_reuses_shared_prefix_across_ablation(tmp_path):
    """Toggling only the last stencil→HLS sub-pass must reuse every
    upstream stage: the hit stats and per-pass notes prove 0 re-runs."""
    module = build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)
    cache = CompileCache(tmp_path)

    start = time.perf_counter()
    StencilHMLSCompiler(pass_pipeline=STAGED_PIPELINE, cache=cache).compile(module)
    cold_seconds = time.perf_counter() - start
    assert cache.stats.hits.get("pass-prefix", 0) == 0

    ablated = StencilHMLSCompiler(
        pass_pipeline=PIPELINE_VARIANTS["single-bundle-staged"], cache=cache
    )
    start = time.perf_counter()
    ablated.compile(module)
    warm_seconds = time.perf_counter() - start

    # The staged spelling shares canonicalize + the first five sub-passes;
    # only `hls-bundle-assignment{bundles=0}` and the LLVM lowering re-run.
    # The chain is walked through the hash sidecar (6 hits); exactly one
    # full snapshot — the longest shared prefix — is unpickled.
    assert cache.stats.hits["pass-prefix-hash"] == 6
    assert cache.stats.hits["pass-prefix"] == 1
    reused = [s for s in ablated.pass_statistics if s.note == "prefix-cached"]
    executed = [s for s in ablated.pass_statistics if s.note != "prefix-cached"]
    assert [s.name for s in reused] == STAGED_PIPELINE.split(",")[:6]
    assert [s.name for s in executed] == [
        "hls-bundle-assignment{bundles=0}",
        "convert-hls-to-llvm",
    ]
    upstream = STAGED_PIPELINE.split(",")[:6]
    upstream_reruns = len([s for s in executed if s.name in upstream])
    assert upstream_reruns == 0
    _RECORD["prefix_cache"] = {
        "prefix_hits": cache.stats.hits["pass-prefix-hash"],
        "upstream_reruns": upstream_reruns,
        "cold_ms": round(cold_seconds * 1e3, 1),
        "warm_suffix_ms": round(warm_seconds * 1e3, 1),
    }


def test_ablation_matrix_sweep_shares_prefixes(tmp_path):
    """A realistic ii/depth/width sweep over the staged axis: every variant
    after the first resumes from a cached prefix (≥ 1 hit per variant)."""
    module = build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)
    cache = CompileCache(tmp_path)
    sweep = ABLATION_VARIANTS
    per_variant_hits: dict[str, int] = {}
    for variant in sweep:
        before = cache.stats.hits.get("pass-prefix-hash", 0)
        StencilHMLSCompiler(
            pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache
        ).compile(module)
        per_variant_hits[variant] = cache.stats.hits.get("pass-prefix-hash", 0) - before
    _RECORD["ablation_sweep"] = per_variant_hits
    assert per_variant_hits["staged"] == 0  # cold
    for variant in sweep[1:]:
        assert per_variant_hits[variant] >= 1, f"variant {variant} resumed cold"
    # The ii/width toggles land on stencil-interface-lowering (3rd entry):
    # canonicalize + shape-inference are reusable.
    assert per_variant_hits["ii-2"] == 2
    assert per_variant_hits["width-256"] == 2
    # depth toggles land on stencil-wave-pipelining: 4-pass shared prefix.
    assert per_variant_hits["depth-8"] == 4
    # The last-sub-pass toggle reuses the whole 6-pass prefix.
    assert per_variant_hits["single-bundle-staged"] == 6
