"""Stencil-HMLS wrapped in the common framework interface."""

from __future__ import annotations

from repro.baselines.base import CompilationFailure, Framework, FrameworkArtifact
from repro.core.config import CompilerOptions
from repro.core.pipeline import StencilHMLSCompiler
from repro.dialects.builtin import ModuleOp
from repro.fpga.device import ALVEO_U280, FPGADevice
from repro.fpga.hbm import HBMAllocationError
from repro.fpga.synthesis import SynthesisError


class StencilHMLSFramework(Framework):
    """The paper's contribution, driven exactly like the baselines."""

    name = "Stencil-HMLS"
    supports_multi_bank = True
    supports_cu_replication = True

    def __init__(
        self,
        device: FPGADevice = ALVEO_U280,
        options: CompilerOptions | None = None,
        pass_pipeline: str | None = None,
    ) -> None:
        super().__init__(device)
        self.options = options or CompilerOptions()
        self.pass_pipeline = pass_pipeline

    def compile(self, stencil_module: ModuleOp, **options) -> FrameworkArtifact:
        compiler = StencilHMLSCompiler(self.options, self.device, pass_pipeline=self.pass_pipeline)
        try:
            xclbin = compiler.compile(stencil_module)
        except (SynthesisError, HBMAllocationError) as err:
            raise CompilationFailure(str(err)) from err
        return FrameworkArtifact(
            framework=self.name,
            design=xclbin.design,
            analysis=xclbin.plan.analysis,
            xclbin=xclbin,
            notes=list(xclbin.design.notes),
            pass_statistics=list(compiler.pass_statistics),
        )
