"""Frozen lowering output for every pipeline variant on both paper kernels.

``tests/golden/lowering_digests.json`` holds the sha256 of the printed
HLS-dialect module and of the printed LLVM-dialect module that
``StencilHMLSCompiler`` produces for every ``PIPELINE_VARIANTS`` entry on
pw_advection and tracer_advection at a 16x16x8 grid.  Any change to the
lowering's output (op order, SSA names, attributes, outlined stage
functions) changes a digest, so refactors of the IR core and the passes
are checked against the output they had before.

Regenerate the file only when a change is meant to alter the output::

    PYTHONPATH=src python tests/test_lowering_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import KERNEL_BUILDERS, PIPELINE_VARIANTS
from repro.ir.printer import print_module

DIGESTS = Path(__file__).parent / "golden" / "lowering_digests.json"
GRID = (16, 16, 8)
KERNELS = ("pw_advection", "tracer_advection")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lowering_digests(kernel: str, variant: str) -> dict[str, str]:
    """sha256 of the printed HLS and LLVM modules of one cold compile."""
    module = KERNEL_BUILDERS[kernel](GRID)
    compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
    xclbin = compiler.compile(module)
    return {
        "hls": _sha256(print_module(xclbin.hls_module)),
        "llvm": _sha256(print_module(xclbin.llvm_module)),
    }


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_every_variant_and_kernel_is_recorded():
    expected = {f"{kernel}/{variant}" for kernel in KERNELS for variant in PIPELINE_VARIANTS}
    assert set(_recorded()) == expected


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("variant", list(PIPELINE_VARIANTS))
def test_lowering_output_matches_recorded_digest(kernel: str, variant: str):
    recorded = _recorded()[f"{kernel}/{variant}"]
    assert lowering_digests(kernel, variant) == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lowering_digests.py --write")
    table = {
        f"{kernel}/{variant}": lowering_digests(kernel, variant)
        for kernel in KERNELS
        for variant in PIPELINE_VARIANTS
    }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DIGESTS}")
