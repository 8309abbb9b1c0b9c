"""The end-to-end Stencil-HMLS compilation pipeline (Figure 1 of the paper).

Source code is turned into stencil-dialect IR by a frontend
(:mod:`repro.frontends`); this module drives everything below that level:

    stencil dialect
      │   staged stencil→HLS lowering (the nine steps of §3.3, see
      │   repro.transforms.stencil_hls; scheduled via the pass registry)
      ▼
    HLS dialect                      ──► kept for functional simulation
      │   HLSToLLVMPass (§3.2)
      ▼
    annotated LLVM dialect
      │   f++ preprocessing + runtime linking
      ▼
    Vitis-HLS-like synthesis model   ──► KernelDesign
      ▼
    Xclbin (design + plan + IR + reports)

The middle-end is driven by an MLIR-style textual pipeline spec (default
``canonicalize,convert-stencil-to-hls,convert-hls-to-llvm``); pass
``pass_pipeline=...`` (or ``--pass-pipeline`` on the CLI) to customise it,
e.g. to ablate individual lowering stages.  Per-pass timing/change
statistics of the last compilation are kept on ``compiler.pass_statistics``.

The compiler keeps no cache: every compile runs its whole pipeline once.
Whole evaluated cases are what gets cached, under the ``result`` stage of
:class:`~repro.core.compile_cache.CompileCache`, by
:meth:`EvaluationHarness.run_matrix
<repro.evaluation.harness.EvaluationHarness.run_matrix>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CompilerOptions
from repro.core.plan import DataflowPlan
from repro.dialects import hls, stencil
from repro.dialects.builtin import ModuleOp
from repro.fpga.device import ALVEO_U280, FPGADevice
from repro.fpga.synthesis import KernelDesign, VitisHLSBackend
from repro.fpga.xclbin import Xclbin
from repro.fpp.preprocessor import FPPReport, run_fpp
from repro.ir.hashing import module_hash  # noqa: F401 - perfbench's tracer wraps this name
from repro.ir.pass_registry import PassRegistry
from repro.ir.passes import PassContext, PassManager, PassStatistics
from repro.ir.verifier import verify_module
from repro.transforms.hls_to_llvm import HLSToLLVMPass
from repro.transforms.stencil_hls import HLSBundleAssignmentPass, LoweringContext


def select_plan(plans: dict[str, DataflowPlan], kernel_name: str | None = None) -> DataflowPlan:
    """Look up one kernel's plan, accepting base or ``<name>_hls`` spellings.

    Raises a :class:`KeyError` listing the available kernel names when the
    lookup fails, and a :class:`ValueError` when ``kernel_name`` is needed
    but missing.
    """
    if kernel_name is None:
        if len(plans) != 1:
            raise ValueError(
                "module contains several kernels; pass kernel_name explicitly "
                f"(available: {', '.join(sorted(plans))})"
            )
        return next(iter(plans.values()))
    for candidate in (kernel_name, f"{kernel_name}_hls"):
        if candidate in plans:
            return plans[candidate]
    raise KeyError(
        f"no kernel named '{kernel_name}' was lowered "
        f"(available: {', '.join(sorted(plans))})"
    )


@dataclass
class CompilationArtifacts:
    """All intermediate artefacts of one compilation, for inspection/tests."""

    stencil_module: ModuleOp
    hls_module: ModuleOp
    llvm_module: ModuleOp
    plan: DataflowPlan
    fpp_report: FPPReport
    design: KernelDesign
    pass_statistics: list[PassStatistics] = field(default_factory=list)


@dataclass
class MiddleEndResult:
    """Device-independent output of the pass pipeline."""

    hls_module: ModuleOp
    llvm_module: ModuleOp
    plans: dict[str, DataflowPlan]
    fpp_report: FPPReport
    pass_statistics: list[PassStatistics]


class StencilHMLSCompiler:
    """Compile stencil-dialect modules into simulated FPGA bitstreams."""

    def __init__(
        self,
        options: CompilerOptions | None = None,
        device: FPGADevice = ALVEO_U280,
        clock_mhz: float | None = None,
        canonicalize: bool = True,
        pass_pipeline: str | None = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.options.validate()
        self.device = device
        self.backend = VitisHLSBackend(device, clock_mhz)
        self.canonicalize = canonicalize
        self.pass_pipeline = pass_pipeline
        #: Per-pass statistics of the most recent compilation.
        self.pass_statistics: list[PassStatistics] = []

    def default_pipeline(self) -> str:
        prefix = "canonicalize," if self.canonicalize else ""
        return f"{prefix}convert-stencil-to-hls,convert-hls-to-llvm"

    # -- public API -------------------------------------------------------------

    def compile(self, stencil_module: ModuleOp, kernel_name: str | None = None) -> Xclbin:
        """Run the full flow and return the xclbin-like artefact."""
        artifacts = self.compile_with_artifacts(stencil_module, kernel_name)
        return Xclbin(
            kernel_name=artifacts.plan.kernel_name,
            design=artifacts.design,
            plan=artifacts.plan,
            stencil_module=artifacts.stencil_module,
            hls_module=artifacts.hls_module,
            llvm_module=artifacts.llvm_module,
            fpp_report=artifacts.fpp_report,
        )

    def compile_with_artifacts(
        self, stencil_module: ModuleOp, kernel_name: str | None = None
    ) -> CompilationArtifacts:
        verify_module(stencil_module)
        spec = self.pass_pipeline or self.default_pipeline()
        middle = self._run_middle_end(stencil_module.clone(), spec)
        self.pass_statistics = list(middle.pass_statistics)

        plan = select_plan(middle.plans, kernel_name)
        # Vitis-HLS-like synthesis.  The plan carries the effective
        # options (including any per-pass pipeline overrides).
        design = self.backend.synthesise(plan, middle.fpp_report, plan.options or self.options)

        return CompilationArtifacts(
            stencil_module=stencil_module,
            hls_module=middle.hls_module,
            llvm_module=middle.llvm_module,
            plan=plan,
            fpp_report=middle.fpp_report,
            design=design,
            pass_statistics=list(self.pass_statistics),
        )

    # -- middle-end (device-independent pass pipeline) -----------------------

    def _run_middle_end(self, working: ModuleOp, spec: str) -> MiddleEndResult:
        context = PassContext()
        context.set(LoweringContext(options=self.options))
        manager = PassRegistry.parse(spec, context=context)

        # Snapshot the HLS-dialect module right before it is lowered to LLVM
        # dialect: it is what the functional dataflow simulator executes.  A
        # convert-hls-to-llvm scheduled *before* the stencil lowering no-ops
        # on a stencil module — only snapshot once kernels were lowered.
        snapshots: dict[str, ModuleOp] = {}

        def snapshot_hls(pass_, module) -> None:
            if isinstance(pass_, HLSToLLVMPass) and "hls" not in snapshots:
                lowering = context.get(LoweringContext)
                if lowering is not None and lowering.plans:
                    snapshots["hls"] = module.clone()

        manager.run(working, on_pass_start=snapshot_hls)
        statistics = list(manager.statistics)

        lowering = context.get(LoweringContext)
        plans = dict(lowering.plans) if lowering is not None else {}
        if not plans:
            missing = lowering.next_missing_stage() if lowering is not None else None
            if missing is not None:
                raise ValueError(
                    f"pipeline '{spec}' stopped before the stencil lowering "
                    f"finished: add '{missing}' (and the stages after it), or "
                    "use 'convert-stencil-to-hls'"
                )
            if any(True for _ in working.walk_type(stencil.ApplyOp)):
                raise ValueError(
                    f"pipeline '{spec}' schedules no stencil lowering stage: "
                    "add 'convert-stencil-to-hls' (or the stencil-* sub-passes)"
                )
            raise ValueError(
                "module contains no stencil kernel to compile "
                f"(pipeline: '{spec}')"
            )

        # A plan without AXI bundle assignment synthesises into a nonsense
        # design (zero ports): complete the pipeline while the HLS-dialect
        # interface ops are still around, or refuse if they are already gone.
        if lowering.unbundled_kernels:
            if "hls" in snapshots:
                raise ValueError(
                    "pipeline lowered to LLVM before 'hls-bundle-assignment' "
                    f"ran for kernel(s) {', '.join(sorted(lowering.unbundled_kernels))}; "
                    "schedule it before convert-hls-to-llvm"
                )
            bundle = PassManager([HLSBundleAssignmentPass()], context=context)
            bundle.run(working)
            statistics.extend(bundle.statistics)
            plans = dict(lowering.plans)

        hls_module = snapshots.get("hls")
        if any(isinstance(op, hls.DIALECT_OPERATIONS) for op in working.walk()):
            # The custom pipeline stopped at (or never left) the HLS dialect:
            # snapshot it and finish the mandatory LLVM lowering implicitly.
            if hls_module is None:
                hls_module = working.clone()
            tail = PassManager([HLSToLLVMPass()], context=context)
            tail.run(working)
            statistics.extend(tail.statistics)
        elif hls_module is None:
            hls_module = working.clone()

        fpp_report = run_fpp(working)

        return MiddleEndResult(
            hls_module=hls_module,
            llvm_module=working,
            plans=plans,
            fpp_report=fpp_report,
            pass_statistics=statistics,
        )
