"""Acceptance benchmark for the compile/result cache.

The criterion from the caching PR: a warm (fully cached) re-run of the
default evaluation matrix must be at least 5x faster than the cold run.
Measured with a disk-backed cache and a fresh cache instance for the warm
run, so the speedup comes from the on-disk tier — the same situation as
two consecutive CLI invocations.
"""

from __future__ import annotations

import gc
import time

from repro.core.compile_cache import CompileCache
from repro.evaluation.harness import DEFAULT_CASES, EvaluationHarness


def test_warm_matrix_rerun_is_at_least_5x_faster(tmp_path):
    # Collect before each timed phase, so that no gen-2 collection owed to
    # earlier allocations lands in the ~0.1 s warm run (one costs it a
    # fifth of its time).
    cold_harness = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
    gc.collect()
    start = time.perf_counter()
    cold = cold_harness.run_matrix(cases=DEFAULT_CASES)
    cold_seconds = time.perf_counter() - start
    assert cold_harness.cache.stats.hits["result"] == 0

    warm_harness = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
    gc.collect()
    start = time.perf_counter()
    warm = warm_harness.run_matrix(cases=DEFAULT_CASES)
    warm_seconds = time.perf_counter() - start

    assert warm_harness.cache.stats.hits["result"] == len(cold)
    assert len(warm) == len(cold)
    speedup = cold_seconds / warm_seconds
    assert speedup >= 5.0, (
        f"warm matrix re-run only {speedup:.1f}x faster "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
    )
