"""Shared fixtures.

Functional simulations interpret IR in Python, so every correctness
fixture uses a deliberately tiny grid; the paper-scale problem sizes are
exercised through the analytic models only (see benchmarks/).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CompilerOptions
from repro.core.pipeline import StencilHMLSCompiler
from repro.kernels.grids import initial_fields
from repro.kernels.pw_advection import (
    PW_INPUT_FIELDS,
    PW_OUTPUT_FIELDS,
    PW_SCALARS,
    build_pw_advection,
    pw_advection_small_data,
)
from repro.kernels.tracer_advection import (
    TRACER_INPUT_FIELDS,
    TRACER_SCALARS,
    TRACER_WORKSPACE_FIELDS,
    build_tracer_advection,
)

#: Tiny grid used by all functional correctness tests.
SMALL_SHAPE = (6, 5, 4)


@pytest.fixture(scope="session")
def small_shape():
    return SMALL_SHAPE


@pytest.fixture(scope="session")
def pw_module():
    return build_pw_advection(SMALL_SHAPE)


@pytest.fixture(scope="session")
def tracer_module():
    return build_tracer_advection(SMALL_SHAPE)


@pytest.fixture(scope="session")
def pw_xclbin(pw_module):
    return StencilHMLSCompiler(CompilerOptions()).compile(pw_module)


@pytest.fixture(scope="session")
def tracer_xclbin(tracer_module):
    return StencilHMLSCompiler(CompilerOptions()).compile(tracer_module)


@pytest.fixture()
def pw_data():
    arrays = initial_fields(SMALL_SHAPE, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS)
    small = pw_advection_small_data(SMALL_SHAPE)
    return arrays, small, dict(PW_SCALARS)


@pytest.fixture()
def tracer_data():
    arrays = initial_fields(SMALL_SHAPE, TRACER_INPUT_FIELDS + TRACER_WORKSPACE_FIELDS)
    return arrays, {}, dict(TRACER_SCALARS)


def copy_arrays(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: array.copy() for name, array in arrays.items()}
