"""Every pipeline variant's design computes the numpy reference's values.

Each ``PIPELINE_VARIANTS`` entry is compiled once per session for
pw_advection and tracer_advection on ``SMALL_SHAPE`` and run by
:class:`~repro.fpga.dataflow_sim.FunctionalDataflowSimulator`; its output
fields must match :mod:`repro.kernels.reference`.  Every compute stage must
run as a map loop, and every array must be bit-identical to a run with each
loop executed one iteration at a time.  For the default and the staged
pipeline the outputs must also be bit-identical to a run on the per-point
data movers in ``reference_data_movers``.  The default pipeline of both
kernels is also checked against the reference on a 16×16×8 grid.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_data_movers

from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import KERNEL_BUILDERS, PIPELINE_VARIANTS
from repro.fpga import dataflow_sim
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

KERNELS = ("pw_advection", "tracer_advection")


def _copy(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: array.copy() for name, array in arrays.items()}


def _problem(kernel: str, shape: tuple[int, int, int]):
    """(input arrays, scalars, reference outputs) on ``shape``."""
    if kernel == "pw_advection":
        arrays = initial_fields(shape, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS)
        small = pw_advection_small_data(shape)
        scalars = dict(PW_SCALARS)
        expected = pw_advection_reference(_copy(arrays), small, scalars, shape)
        arrays.update(small)
    else:
        arrays = initial_fields(shape, TRACER_INPUT_FIELDS + TRACER_WORKSPACE_FIELDS)
        scalars = dict(TRACER_SCALARS)
        expected = tracer_advection_reference(_copy(arrays), {}, scalars, shape)
    return arrays, scalars, expected


@pytest.fixture(scope="session")
def designs(small_shape):
    """``(kernel, variant) -> (xclbin, arrays, scalars, expected)``, each
    compiled on first use and kept for the session."""
    modules, problems, compiled = {}, {}, {}

    def design(kernel: str, variant: str):
        if (kernel, variant) not in compiled:
            if kernel not in modules:
                modules[kernel] = KERNEL_BUILDERS[kernel](small_shape)
                problems[kernel] = _problem(kernel, small_shape)
            compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
            compiled[kernel, variant] = compiler.compile(modules[kernel])
        return (compiled[kernel, variant], *problems[kernel])

    return design


def _simulate(xclbin, arrays, scalars) -> dict[str, np.ndarray]:
    arrays = _copy(arrays)
    dataflow_sim.FunctionalDataflowSimulator(xclbin.hls_module, xclbin.plan).run(arrays, scalars)
    return arrays


@pytest.mark.parametrize("variant", list(PIPELINE_VARIANTS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_design_matches_the_numpy_reference(kernel, variant, designs):
    xclbin, arrays, scalars, expected = designs(kernel, variant)
    simulated = _simulate(xclbin, arrays, scalars)
    for name, want in expected.items():
        assert np.allclose(simulated[name], want), name


@pytest.mark.parametrize("variant", ["default", "staged"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_per_point_movers_give_bit_identical_outputs(kernel, variant, designs, monkeypatch):
    xclbin, arrays, scalars, _ = designs(kernel, variant)
    simulated = _simulate(xclbin, arrays, scalars)
    planned = []

    def reference_externals(plan):
        planned.append(plan)
        return reference_data_movers.make_externals(plan)

    monkeypatch.setattr(dataflow_sim, "make_externals", reference_externals)
    per_point = _simulate(xclbin, arrays, scalars)
    assert planned == [xclbin.plan]
    assert simulated.keys() == per_point.keys()
    for name, values in per_point.items():
        assert np.array_equal(simulated[name], values), name


@pytest.mark.parametrize("variant", list(PIPELINE_VARIANTS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_map_loops_give_bit_identical_outputs(kernel, variant, designs, monkeypatch):
    xclbin, arrays, scalars, _ = designs(kernel, variant)
    per_point_reads = []
    stream_read = dataflow_sim.HLSInterpreter._stream_read

    def counted_read(interp, stream, env):
        per_point_reads.append(stream)
        return stream_read(interp, stream, env)

    monkeypatch.setattr(dataflow_sim.HLSInterpreter, "_stream_read", counted_read)
    mapped = _simulate(xclbin, arrays, scalars)
    assert per_point_reads == []             # every compute stage ran as a map

    monkeypatch.setattr(dataflow_sim.HLSInterpreter, "array_handlers", {})
    per_iteration = _simulate(xclbin, arrays, scalars)
    assert per_point_reads                   # ... and now one iteration at a time
    assert mapped.keys() == per_iteration.keys()
    for name, values in per_iteration.items():
        assert np.array_equal(mapped[name], values), name


@pytest.mark.parametrize("kernel", KERNELS)
def test_default_design_matches_the_numpy_reference_on_16x16x8(kernel):
    shape = (16, 16, 8)
    compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS["default"])
    xclbin = compiler.compile(KERNEL_BUILDERS[kernel](shape))
    arrays, scalars, expected = _problem(kernel, shape)
    simulated = _simulate(xclbin, arrays, scalars)
    for name, want in expected.items():
        assert np.allclose(simulated[name], want), name
