"""paper-matrix: the paper's evaluation matrix, compiled cold in-process.

``DEFAULT_CASES`` × all five frameworks (PW advection 8M/32M/134M and
tracer advection 8M/33M, 25 cases) with no compile cache.  Each timed pass
builds a fresh :class:`EvaluationHarness`, so kernel builds, every pass,
f++ and the synthesis/timing/power models run for every case, as they do
in each ``shmls-bench`` invocation; the seed shuffles the case order.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Any

from common import HostSpeed, Metric, RunResult, geomean, median, self_peak_rss_mb

STENCIL_HMLS = "Stencil-HMLS"

#: Expected outcome of every case, from §4 of the paper: Stencil-HMLS,
#: SODA-opt and Vitis HLS complete everywhere; DaCe cannot compile PW at
#: 134M; StencilFlow deadlocks on PW 8M/32M, fails to compile PW 134M and
#: does not support tracer advection.
EXPECTED_STATUS: dict[tuple[str, str, str], str] = {}
for _framework in (STENCIL_HMLS, "DaCe", "SODA-opt", "Vitis HLS"):
    for _kernel, _sizes in (("pw_advection", ("8M", "32M", "134M")),
                            ("tracer_advection", ("8M", "33M"))):
        for _size in _sizes:
            EXPECTED_STATUS[(_framework, _kernel, _size)] = "ok"
EXPECTED_STATUS[("DaCe", "pw_advection", "134M")] = "compile_failed"
EXPECTED_STATUS.update({
    ("StencilFlow", "pw_advection", "8M"): "deadlock",
    ("StencilFlow", "pw_advection", "32M"): "deadlock",
    ("StencilFlow", "pw_advection", "134M"): "compile_failed",
    ("StencilFlow", "tracer_advection", "8M"): "unsupported",
    ("StencilFlow", "tracer_advection", "33M"): "unsupported",
})

#: Headline speedup bands over DaCe, as benchmarks/test_fig4_performance.py
#: encodes them: 90-100x on PW advection, 14-21x on tracer advection.
SPEEDUP_BANDS: dict[tuple[str, str], tuple[float, float]] = {
    ("pw_advection", "8M"): (60.0, 150.0),
    ("pw_advection", "32M"): (60.0, 150.0),
    ("tracer_advection", "8M"): (10.0, 30.0),
    ("tracer_advection", "33M"): (10.0, 30.0),
}


def check_pass(results: dict[tuple[str, str, str], Any]) -> dict[tuple[str, str, str], str]:
    """Gate one pass against the expected-outcome table and speedup bands;
    returns failure messages keyed by the case they concern."""
    failures: dict[tuple[str, str, str], str] = {}
    for key, expected in EXPECTED_STATUS.items():
        result = results.get(key)
        if result is None:
            failures[key] = "missing"
        elif result.status != expected:
            failures[key] = f"status {result.status}, expected {expected}"
    for (kernel, size), (low, high) in SPEEDUP_BANDS.items():
        ours = results.get((STENCIL_HMLS, kernel, size))
        dace = results.get(("DaCe", kernel, size))
        if ours is None or dace is None or dace.mpts <= 0:
            continue
        ratio = ours.mpts / dace.mpts
        if not low <= ratio <= high:
            failures.setdefault(
                (STENCIL_HMLS, kernel, size),
                f"speedup over DaCe {ratio:.1f} outside [{low}, {high}]",
            )
    pw134 = results.get((STENCIL_HMLS, "pw_advection", "134M"))
    if pw134 is not None and not pw134.mpts > 0:
        failures.setdefault((STENCIL_HMLS, "pw_advection", "134M"), "no performance")
    return failures


def model_ratios(results: dict[tuple[str, str, str], Any]) -> tuple[float, float]:
    """The paper's headline figures over its five cases: geometric means of
    Stencil-HMLS MPt/s over the fastest other framework that completed, and
    of the most energy-efficient other framework's energy over ours."""
    speedups, energy = [], []
    for kernel, sizes in (("pw_advection", ("8M", "32M", "134M")),
                          ("tracer_advection", ("8M", "33M"))):
        for size in sizes:
            ours = results[(STENCIL_HMLS, kernel, size)]
            others = [
                result for (framework, k, s), result in results.items()
                if k == kernel and s == size and framework != STENCIL_HMLS
                and result.status == "ok"
            ]
            speedups.append(ours.mpts / max(r.mpts for r in others))
            energy.append(min(r.energy_j for r in others) / ours.energy_j)
    return geomean(speedups), geomean(energy)


def run(seed: int, seconds: float, trace: bool, clock: Any) -> RunResult:
    from repro.baselines import ALL_FRAMEWORKS
    from repro.evaluation.harness import (
        DEFAULT_CASES,
        FRAMEWORKS_BY_NAME,
        EvaluationHarness,
        expand_matrix_slots,
    )
    from repro.evaluation.report import results_to_json

    slots = expand_matrix_slots(DEFAULT_CASES, [cls.name for cls in ALL_FRAMEWORKS])
    rng = random.Random(seed)
    out = RunResult()

    def one_pass(span: Any = None) -> tuple[float, dict, dict]:
        order = list(slots)
        rng.shuffle(order)
        harness = EvaluationHarness()
        results, times = {}, {}
        start = time.perf_counter()
        for case, name in order:
            began = time.perf_counter()
            with span("bench") if span else nullcontext():
                result = harness.run_case(FRAMEWORKS_BY_NAME[name], case)
            key = (name, case.kernel, case.size.label)
            times[key] = time.perf_counter() - began
            results[key] = result
        return time.perf_counter() - start, results, times

    def entries(results: dict) -> dict:
        return {
            key: results_to_json([result], deterministic=True)
            for key, result in results.items()
        }

    # Warm-up pass (part of set-up): finishes lazy imports and registries,
    # and is the reference every timed pass must reproduce exactly.
    _, reference_results, _ = one_pass()
    reference = entries(reference_results)
    clock.setup_done()

    def timed_pass(span: Any = None) -> tuple[float, dict]:
        wall, results, times = one_pass(span)
        out.attempted += len(results)
        failures = check_pass(results)
        current = entries(results)
        for key in results:
            if current[key] != reference[key]:
                failures.setdefault(key, "result differs from the warm-up pass")
        for key, message in sorted(failures.items()):
            out.fail(f"{'/'.join(key)}: {message}")
        return wall, times

    walls: list[float] = []
    case_times: dict[tuple[str, str, str], list[float]] = {}
    host = HostSpeed()
    budget = seconds / 2 if trace else seconds
    began = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - began < budget:
        wall, times = timed_pass()
        walls.append(wall)
        host.probe()
        for key, value in times.items():
            case_times.setdefault(key, []).append(value)

    if trace:
        from tracing import Recorder, install, layer_metrics

        recorder = Recorder()
        uninstall = install(recorder)
        traced_walls: list[float] = []
        try:
            began = time.perf_counter()
            while len(traced_walls) < 3 or time.perf_counter() - began < budget:
                traced_walls.append(timed_pass(recorder.span)[0])
        finally:
            uninstall()
        out.trace = recorder.export()
        out.per_layer = layer_metrics(
            out.trace,
            wall_ms=sum(traced_walls) * 1000.0,
            untraced_wall_ms=median(walls) * len(traced_walls) * 1000.0,
        )

    ours = [
        sum(values) / len(values) * 1000.0
        for (framework, _, _), values in case_times.items()
        if framework == STENCIL_HMLS
    ]
    try:
        speedup, energy = model_ratios(reference_results)
    except (KeyError, ValueError, ZeroDivisionError):
        # A case the ratios need did not complete; the gate has failed it.
        speedup = energy = 0.0
    out.native = {
        # Cases over the whole timed phase, not a median of passes: the
        # host alternates fast and slow stretches, and a phase-long rate
        # averages them where a median picks one.
        "cases_per_s": Metric(len(slots) * len(walls) / sum(walls), "1/s", len(walls)),
        "compile_ms_geomean": Metric(geomean(ours), "ms", min(map(len, case_times.values()))),
        "model_speedup_geomean": Metric(speedup, "x"),
        "model_energy_ratio_geomean": Metric(energy, "x"),
        "peak_rss_mb": Metric(self_peak_rss_mb(), "MB"),
        "host_reference_ms": host.metric(),
    }
    out.end_to_end = {
        "throughput_per_s": host.rate(out.native["cases_per_s"]),
        "latency_ms": host.time(out.native["compile_ms_geomean"]),
        "peak_rss_mb": out.native["peak_rss_mb"],
    }
    return out
