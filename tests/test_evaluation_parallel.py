"""Parallel evaluation must be indistinguishable from serial evaluation.

The scenario-matrix runner dispatches cases over a process pool; per-pass
wall-clock timings naturally differ between runs, so report equality is
checked on the deterministic JSON form (which strips the `seconds` field —
everything else, including result order, must match byte for byte).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.stencil_hmls import StencilHMLSFramework
from repro.core.compile_cache import CompileCache
from repro.evaluation.harness import (
    DEFAULT_CASES,
    BenchmarkCase,
    EvaluationHarness,
    FRAMEWORKS_BY_NAME,
    PIPELINE_VARIANTS,
)
from repro.evaluation.report import merge_results, results_to_json
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES, ProblemSize


def test_parallel_and_serial_reports_are_byte_identical():
    """--jobs 4 output is golden-equal to serial output on the full kernel
    matrix (every framework × every paper case)."""
    serial = EvaluationHarness(repeats=1).run_matrix(cases=DEFAULT_CASES)
    parallel = EvaluationHarness(repeats=1).run_matrix(cases=DEFAULT_CASES, jobs=4)
    assert results_to_json(serial, deterministic=True) == results_to_json(
        parallel, deterministic=True
    )


def test_cached_rerun_report_is_byte_identical(tmp_path):
    cases = [
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"]),
        BenchmarkCase("tracer_advection", TRACER_ADVECTION_SIZES["8M"]),
    ]
    cold = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path)).run_matrix(cases=cases)
    warm_harness = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
    warm = warm_harness.run_matrix(cases=cases, jobs=2)
    assert warm_harness.cache.stats.hits["result"] == len(cold)
    assert results_to_json(cold, deterministic=True) == results_to_json(
        warm, deterministic=True
    )


def test_matrix_expansion_is_deterministic_and_case_major():
    harness = EvaluationHarness(repeats=1)
    cases = [
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"]),
        BenchmarkCase("tracer_advection", TRACER_ADVECTION_SIZES["8M"]),
    ]
    results = harness.run_matrix(cases=cases)
    labels = [(r.kernel, r.framework) for r in results]
    frameworks = list(FRAMEWORKS_BY_NAME)
    assert labels == [("pw_advection", f) for f in frameworks] + [
        ("tracer_advection", f) for f in frameworks
    ]


def test_cases_for_cartesian_expansion():
    harness = EvaluationHarness()
    cases = harness.cases_for(
        "pw_advection",
        ["8M", "32M"],
        frameworks=["Stencil-HMLS", "DaCe"],
        variants=["default", "no-pack"],
    )
    # no-pack only pairs with Stencil-HMLS: 2 sizes x (2 + 1) combinations.
    assert len(cases) == 6
    assert all(
        c.framework == "Stencil-HMLS" for c in cases if c.variant == "no-pack"
    )
    # Legacy call shape still returns plain unpinned kernel/size cases.
    legacy = harness.cases_for("pw_advection", ["8M", "32M"])
    assert [(c.kernel, c.size.label, c.framework, c.variant) for c in legacy] == [
        ("pw_advection", "8M", None, "default"),
        ("pw_advection", "32M", None, "default"),
    ]
    assert set(PIPELINE_VARIANTS) >= {"default", "no-pack"}


def test_variant_results_differ_where_the_ablation_bites():
    harness = EvaluationHarness(repeats=1)
    cases = harness.cases_for(
        "pw_advection", ["8M"], frameworks=["Stencil-HMLS"],
        variants=["default", "single-bundle"],
    )
    default, single_bundle = harness.run_matrix(cases=cases)
    assert default.variant == "default" and single_bundle.variant == "single-bundle"
    assert default.status == single_bundle.status == "ok"
    # Sharing one AXI bundle is ablation A3: throughput visibly drops.
    assert single_bundle.mpts < default.mpts


def test_custom_problem_size_is_identical_in_serial_and_parallel():
    """Workers rebuild sizes from label+shape, not from the size tables, so
    a case at a size the tables don't know still runs (and runs at the
    right shape) under --jobs."""
    custom = [BenchmarkCase("pw_advection", ProblemSize("3M", (768, 64, 64)))]
    serial = EvaluationHarness(repeats=1).run_matrix(cases=custom)
    parallel = EvaluationHarness(repeats=1).run_matrix(cases=custom, jobs=2)
    assert serial[0].points == 768 * 64 * 64
    assert results_to_json(serial, deterministic=True) == results_to_json(
        parallel, deterministic=True
    )


def test_variant_case_refuses_mismatched_framework_instance():
    harness = EvaluationHarness(repeats=1)
    case = BenchmarkCase(
        "pw_advection", PW_ADVECTION_SIZES["8M"], variant="no-pack"
    )
    with pytest.raises(ValueError, match="not variant 'no-pack'"):
        harness.run_case(StencilHMLSFramework(harness.device), case)


def test_variant_case_without_hmls_in_selection_is_an_error():
    harness = EvaluationHarness(repeats=1)
    case = BenchmarkCase(
        "pw_advection", PW_ADVECTION_SIZES["8M"], variant="no-pack"
    )
    with pytest.raises(ValueError, match="needs Stencil-HMLS"):
        harness.run_matrix(cases=[case], frameworks=["DaCe"])


def test_deterministic_report_hides_cache_provenance(tmp_path):
    """A result served from the cache keeps the pass timings of the run
    that stored it; the deterministic report must not show them, or
    cached and uncached runs would no longer compare byte-for-byte."""
    cases = [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"])]
    plain = EvaluationHarness(repeats=1).run_matrix(cases=cases)
    cache = CompileCache(tmp_path)
    EvaluationHarness(repeats=1, cache=cache).run_matrix(cases=cases)  # stores results
    served = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
    rerun = served.run_matrix(cases=cases)
    assert served.cache.stats.hits["result"] == len(rerun) and served.cache.stats.stores == {}
    assert results_to_json(plain, deterministic=True) == results_to_json(
        rerun, deterministic=True
    )


def test_merge_results_dedupes_and_orders_deterministically():
    harness = EvaluationHarness(repeats=1)
    cases = [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"])]
    first = [r.as_dict() for r in harness.run_matrix(cases=cases)]
    # A re-run supersedes stale entries for the same scenario...
    stale = [dict(entry, mpts=-1.0) for entry in first]
    merged = merge_results(stale, first)
    assert merged == merge_results(first)
    # ...and shard order does not matter.
    merged_reversed = merge_results(first[::-1])
    assert json.dumps(merged) == json.dumps(merged_reversed)
