"""validate-sim: run compiled designs through the functional dataflow
simulator and check them against the numpy reference kernels.

Set-up compiles every ``PIPELINE_VARIANTS`` entry for both kernels on one
small grid, in an order the seed draws, and computes the reference outputs
from input fields the seed also draws.  The timed phase simulates the
designs in (PW, tracer) pairs, so every stretch of work has the same kernel
mix, and compares each output field with the reference.  The simulator
interprets the HLS IR point by point.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from common import HostSpeed, Metric, RunResult, geomean, self_peak_rss_mb

#: Small enough for about thirty designs per kernel in a 20 s phase; a
#: tracer simulation still takes over ten times its PW counterpart.
GRID = (8, 7, 6)


@dataclass
class Design:
    kernel: str
    variant: str
    xclbin: Any
    inputs: dict[str, Any]
    scalars: dict[str, float]
    expected: dict[str, Any]


def _inputs(kernel: str, seed: int) -> tuple[dict, dict, dict]:
    """(arrays, scalars, reference outputs) for one kernel on ``GRID``, with
    field values drawn from ``seed``."""
    from repro.kernels.grids import initial_fields
    from repro.kernels.pw_advection import (
        PW_INPUT_FIELDS,
        PW_OUTPUT_FIELDS,
        PW_SCALARS,
        pw_advection_small_data,
    )
    from repro.kernels.reference import pw_advection_reference, tracer_advection_reference
    from repro.kernels.tracer_advection import (
        TRACER_INPUT_FIELDS,
        TRACER_SCALARS,
        TRACER_WORKSPACE_FIELDS,
    )

    if kernel == "pw_advection":
        arrays = initial_fields(GRID, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS, seed=seed)
        small = pw_advection_small_data(GRID)
        scalars = dict(PW_SCALARS)
        reference = {name: value.copy() for name, value in arrays.items()}
        expected = pw_advection_reference(reference, small, scalars, GRID)
        arrays.update(small)
    else:
        arrays = initial_fields(GRID, TRACER_INPUT_FIELDS + TRACER_WORKSPACE_FIELDS, seed=seed)
        scalars = dict(TRACER_SCALARS)
        reference = {name: value.copy() for name, value in arrays.items()}
        expected = tracer_advection_reference(reference, {}, scalars, GRID)
    return arrays, scalars, {name: value.copy() for name, value in expected.items()}


def draw_variants(seed: int) -> dict[str, list[str]]:
    """Every pipeline variant for each kernel, in an order drawn from ``seed``.

    All twelve run whatever the seed: their tracer simulations differ by up
    to 1.7x, so a draw of some would make the work depend on the seed.
    """
    from repro.evaluation.harness import PIPELINE_VARIANTS

    rng = random.Random(seed)
    names = list(PIPELINE_VARIANTS)
    return {
        kernel: rng.sample(names, len(names)) for kernel in ("pw_advection", "tracer_advection")
    }


def run(seed: int, seconds: float, trace: bool, clock: Any) -> RunResult:
    import numpy as np

    from repro.core.pipeline import StencilHMLSCompiler
    from repro.evaluation.harness import KERNEL_BUILDERS, PIPELINE_VARIANTS
    from repro.fpga.dataflow_sim import FunctionalDataflowSimulator

    out = RunResult()
    draw = draw_variants(seed)
    designs: dict[str, list[Design]] = {}
    for kernel, variants in draw.items():
        arrays, scalars, expected = _inputs(kernel, seed)
        module = KERNEL_BUILDERS[kernel](GRID)
        designs[kernel] = [
            Design(
                kernel,
                variant,
                StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant]).compile(module),
                arrays,
                scalars,
                expected,
            )
            for variant in variants
        ]
    pairs = list(zip(designs["pw_advection"], designs["tracer_advection"]))
    points = GRID[0] * GRID[1] * GRID[2]
    clock.setup_done()

    sim_ms: dict[str, list[float]] = {"pw_advection": [], "tracer_advection": []}
    host = HostSpeed()

    def simulate(design: Design) -> float:
        arrays = {name: value.copy() for name, value in design.inputs.items()}
        began = time.perf_counter()
        out.attempted += 1
        try:
            FunctionalDataflowSimulator(design.xclbin.hls_module, design.xclbin.plan).run(
                arrays, design.scalars
            )
        except Exception as err:  # noqa: BLE001 - a crash is a failed simulation
            out.fail(f"{design.kernel}@{design.variant}: {type(err).__name__}: {err}")
            return time.perf_counter() - began
        wrong = [
            name for name, value in design.expected.items()
            if not np.allclose(arrays[name], value)
        ]
        if wrong:
            out.fail(f"{design.kernel}@{design.variant}: {', '.join(wrong)} differ from reference")
        return time.perf_counter() - began

    def phase(budget: float, span: Any = None) -> tuple[float, int]:
        """Simulate whole pairs until ``budget`` seconds have passed."""
        began = time.perf_counter()
        simulated = 0
        index = 0
        while index < len(pairs) or time.perf_counter() - began < budget:
            for design in pairs[index % len(pairs)]:
                with span("bench") if span else nullcontext():
                    elapsed = simulate(design)
                if span is None:
                    sim_ms[design.kernel].append(elapsed * 1000.0)
                simulated += 1
            index += 1
            if span is None:
                paused = time.perf_counter()
                host.probe()
                began += time.perf_counter() - paused  # the probe is not timed work
        return time.perf_counter() - began, simulated

    budget = seconds / 2 if trace else seconds
    wall, simulated = phase(budget)
    if trace:
        from tracing import Recorder, install, layer_metrics

        recorder = Recorder()
        uninstall = install(recorder)
        try:
            traced_wall, traced_count = phase(budget, recorder.span)
        finally:
            uninstall()
        out.trace = recorder.export()
        out.per_layer = layer_metrics(
            out.trace,
            wall_ms=traced_wall * 1000.0,
            untraced_wall_ms=wall / simulated * traced_count * 1000.0,
            extra={"sim.points": traced_count * points},
        )

    out.native = {
        "sim_points_per_s": Metric(simulated * points / wall, "1/s", simulated),
        "sim_ms_geomean": Metric(
            geomean([sum(values) / len(values) for values in sim_ms.values()]), "ms", simulated
        ),
        "peak_rss_mb": Metric(self_peak_rss_mb(), "MB"),
        "host_reference_ms": host.metric(),
    }
    out.notes["variants"] = draw
    out.notes["grid"] = list(GRID)
    out.end_to_end = {
        "throughput_per_s": host.rate(out.native["sim_points_per_s"]),
        "latency_ms": host.time(out.native["sim_ms_geomean"]),
        "peak_rss_mb": out.native["peak_rss_mb"],
    }
    return out
