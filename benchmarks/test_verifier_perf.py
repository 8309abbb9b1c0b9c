"""Micro-benchmark regression for the verifier's per-block index cache.

``ModuleVerifier._value_visible_from`` used to call ``block.index_of``
(a linear scan) for every operand check, which is quadratic on wide
blocks.  The verifier now precomputes one ``{op: index}`` dict per block
and reuses it for every visibility query in that block.  This benchmark
pins the win on a wide tracer-advection-style module — many chained
stages in one function block, the shape that made the scans hurt — and
writes a ``BENCH_verifier.json`` trajectory artifact like the other
micro-benchmarks.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.frontends.builder import StencilKernelBuilder
from repro.ir.verifier import ModuleVerifier
from repro.kernels.grids import TRACER_ADVECTION_SIZES
from repro.kernels.tracer_advection import build_tracer_advection

#: Required advantage of the index-cached verifier over the legacy
#: linear-scan strategy.  Measured 1.7-2.6x on the wide module over ten
#: runs (2-core Xeon, Python 3.11); operations compare by identity, so
#: the legacy ``index_of`` scans run at C speed (with a Python-level
#: ``Operation.__eq__`` the same runs measured 4.4-6.3x).  1.4x still
#: catches a regression to quadratic scans.
MIN_SPEEDUP = 1.4

_RECORD: dict[str, object] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Collect per-test measurements and write the trajectory artifact."""
    yield _RECORD
    path = Path(os.environ.get("BENCH_VERIFIER_JSON", "BENCH_verifier.json"))
    path.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")


def build_wide_tracer_module(stages: int = 48):
    """A tracer-advection variant widened to ``stages`` chained stencil
    stages: every stage reads the three wind fields plus the previous
    tracer, so the function block is long and every operand-visibility
    check in it used to pay a linear scan."""
    builder = StencilKernelBuilder("tracer_advection_wide", (16, 16, 8))
    winds = [builder.input_field(name) for name in ("su", "sv", "sw")]
    prev = None
    for index in range(stages):
        out = builder.output_field(f"tracer{index}")
        expr = winds[0][1, 0, 0] + winds[1][0, 1, 0] + winds[2][0, 0, 1]
        if prev is not None:
            expr = expr + prev[0, 0, 0]
        builder.add_stencil(out, expr)
        prev = out
    return builder.build()


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_index_cache_speeds_up_wide_module_verification():
    module = build_wide_tracer_module()

    # Both strategies must agree before their timings mean anything.
    assert ModuleVerifier(cache_indices=True).verify(module) == []
    assert ModuleVerifier(cache_indices=False).verify(module) == []

    cached = _best_of(
        5, lambda: ModuleVerifier(cache_indices=True).verify(module)
    )
    legacy = _best_of(
        5, lambda: ModuleVerifier(cache_indices=False).verify(module)
    )
    speedup = legacy / cached
    _RECORD["wide_module"] = {
        "ops": sum(1 for _ in module.walk()),
        "cached_seconds": round(cached, 6),
        "legacy_seconds": round(legacy, 6),
        "speedup": round(speedup, 2),
    }
    assert speedup >= MIN_SPEEDUP, (
        f"index-cached verify is only {speedup:.2f}x faster than linear "
        f"scans on the wide module (need >= {MIN_SPEEDUP}x)"
    )


def test_real_tracer_kernel_also_benefits():
    """The stock tracer-advection kernel (the paper's wide kernel) must not
    regress either — smaller module, same direction."""
    module = build_tracer_advection(TRACER_ADVECTION_SIZES["8M"].shape)
    cached = _best_of(
        5, lambda: ModuleVerifier(cache_indices=True).verify(module)
    )
    legacy = _best_of(
        5, lambda: ModuleVerifier(cache_indices=False).verify(module)
    )
    _RECORD["tracer_8M"] = {
        "cached_seconds": round(cached, 6),
        "legacy_seconds": round(legacy, 6),
        "speedup": round(legacy / cached, 2),
    }
    assert cached <= legacy, (
        "index-cached verify slower than linear scans on tracer_advection"
    )
