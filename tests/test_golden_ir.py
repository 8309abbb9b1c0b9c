"""Golden-IR tests: each stencil→HLS sub-pass and the HLS→LLVM lowering,
locked by a FileCheck-lite file.

Every ``tests/golden/*.filecheck`` file carries a header naming the kernel
and the pipeline prefix to run::

    // RUN: pipeline=stencil-shape-inference,stencil-interface-lowering
    // KERNEL: pw_advection@8M

The driver builds the kernel, runs the pipeline through the pass registry,
prints the module and matches it against the file's CHECK directives.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.ir.pass_registry import PassRegistry
from repro.ir.passes import PassContext
from repro.ir.printer import print_module
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection
from repro.transforms.stencil_hls import LoweringContext

from filecheck import FileCheckError, run_filecheck

GOLDEN_DIR = Path(__file__).parent / "golden"

_KERNELS = {
    "pw_advection": (build_pw_advection, PW_ADVECTION_SIZES),
    "tracer_advection": (build_tracer_advection, TRACER_ADVECTION_SIZES),
}


def _load_header(text: str, key: str, default: str | None = None) -> str:
    found = re.search(rf"//\s*{key}:\s*(\S+)", text)
    if found is None:
        if default is None:
            raise AssertionError(f"golden file is missing a '// {key}:' header")
        return default
    return found.group(1)


def golden_files() -> list[Path]:
    return sorted(GOLDEN_DIR.glob("*.filecheck"))


def test_golden_directory_covers_all_six_sub_passes():
    specs = [
        _load_header(path.read_text(), "RUN").removeprefix("pipeline=")
        for path in golden_files()
    ]
    scheduled = {name for spec in specs for name in spec.split(",")}
    assert {
        "stencil-shape-inference",
        "stencil-interface-lowering",
        "stencil-small-data-buffering",
        "stencil-wave-pipelining",
        "stencil-compute-split",
        "hls-bundle-assignment",
        "convert-hls-to-llvm",
    } <= scheduled


@pytest.mark.parametrize("path", golden_files(), ids=lambda p: p.stem)
def test_golden_ir(path: Path):
    text = path.read_text()
    spec = _load_header(text, "RUN").removeprefix("pipeline=")
    kernel_ref = _load_header(text, "KERNEL", "pw_advection@8M")
    kernel, _, size = kernel_ref.partition("@")
    builder, sizes = _KERNELS[kernel]
    module = builder(sizes[size].shape)

    context = PassContext()
    context.set(LoweringContext())
    PassRegistry.parse(spec, context=context).run(module)

    try:
        run_filecheck(print_module(module), text)
    except FileCheckError as err:
        pytest.fail(f"{path.name}: {err}", pytrace=False)
