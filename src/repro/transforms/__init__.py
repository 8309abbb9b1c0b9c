"""IR transformations.

* ``stencil_analysis`` — classification of kernel arguments and stencil
  structure shared by all lowerings (step 1 of §3.3 and more).
* ``stencil_to_scf`` — the standard CPU lowering of the stencil dialect
  (used directly by the Vitis HLS baseline and by correctness tests).
* ``stencil_hls`` — the paper's nine automatic FPGA optimisation steps as
  discrete, individually-runnable sub-passes.
* ``stencil_to_hls`` — the thin composite running the full staged lowering.
* ``hls_to_llvm`` — lowering of the HLS dialect to annotated LLVM dialect IR.
* ``hls_to_circt`` — structural hardware lowering stub (paper future work).
* ``canonicalize`` / ``cse`` / ``dce`` — generic clean-up passes.

Every pass is registered in :mod:`repro.ir.pass_registry` and can be
scheduled from an MLIR-style textual pipeline spec such as
``"canonicalize,convert-stencil-to-hls{pack=0},convert-hls-to-llvm"``.
"""

from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.cse import CSEPass
from repro.transforms.dce import DCEPass
from repro.transforms.stencil_to_scf import StencilToSCFPass
from repro.transforms.stencil_hls import (
    HLSBundleAssignmentPass,
    LoweringContext,
    StencilComputeSplitPass,
    StencilInterfaceLoweringPass,
    StencilShapeInferencePass,
    StencilSmallDataBufferingPass,
    StencilWavePipeliningPass,
    build_stencil_to_hls_pipeline,
)
from repro.transforms.stencil_to_hls import StencilToHLSPass
from repro.transforms.hls_to_llvm import HLSToLLVMPass

__all__ = [
    "CanonicalizePass",
    "CSEPass",
    "DCEPass",
    "HLSBundleAssignmentPass",
    "HLSToLLVMPass",
    "LoweringContext",
    "StencilComputeSplitPass",
    "StencilInterfaceLoweringPass",
    "StencilShapeInferencePass",
    "StencilSmallDataBufferingPass",
    "StencilToHLSPass",
    "StencilToSCFPass",
    "StencilWavePipeliningPass",
    "build_stencil_to_hls_pipeline",
]
