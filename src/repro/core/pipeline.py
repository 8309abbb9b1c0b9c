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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.compile_cache import CacheKey, CompileCache
from repro.core.config import CompilerOptions
from repro.core.plan import DataflowPlan
from repro.dialects import hls, stencil
from repro.dialects.builtin import ModuleOp
from repro.fpga.device import ALVEO_U280, FPGADevice
from repro.fpga.synthesis import KernelDesign, VitisHLSBackend
from repro.fpga.xclbin import Xclbin
from repro.fpp.preprocessor import FPPReport, run_fpp
from repro.ir.hashing import fingerprint_mapping, module_hash
from repro.ir.pass_registry import PassRegistry, canonical_pipeline_spec
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
    """Device-independent output of the pass pipeline — the unit the
    compile cache stores under the ``middle-end`` stage."""

    hls_module: ModuleOp
    llvm_module: ModuleOp
    plans: dict[str, DataflowPlan]
    fpp_report: FPPReport
    pass_statistics: list[PassStatistics]

    def with_note(self, note: str) -> "MiddleEndResult":
        """Restamp statistics (e.g. ``cached``) without copying the IR: a
        cache hit is already a private copy."""
        return dataclasses.replace(
            self,
            pass_statistics=[
                dataclasses.replace(stat, note=note) for stat in self.pass_statistics
            ],
        )


class StencilHMLSCompiler:
    """Compile stencil-dialect modules into simulated FPGA bitstreams."""

    def __init__(
        self,
        options: CompilerOptions | None = None,
        device: FPGADevice = ALVEO_U280,
        clock_mhz: float | None = None,
        canonicalize: bool = True,
        pass_pipeline: str | None = None,
        cache: CompileCache | None = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.options.validate()
        self.device = device
        self.backend = VitisHLSBackend(device, clock_mhz)
        self.canonicalize = canonicalize
        self.pass_pipeline = pass_pipeline
        #: Optional content-addressed artefact cache shared across sessions.
        self.cache = cache
        #: Per-pass statistics of the most recent compilation.
        self.pass_statistics: list[PassStatistics] = []

    def default_pipeline(self) -> str:
        prefix = "canonicalize," if self.canonicalize else ""
        return f"{prefix}convert-stencil-to-hls,convert-hls-to-llvm"

    def cache_key(self, stencil_module: ModuleOp, spec: str | None = None) -> CacheKey:
        """Content address of compiling ``stencil_module`` with this compiler.

        Device-independent: the ``middle-end`` stage uses it as-is, the
        ``synthesis`` stage appends device/clock/kernel to ``extra``.  The
        pipeline component is the *canonicalised* spec, so the full pass
        list and every pass option participate in the key.
        """
        spec = spec or self.pass_pipeline or self.default_pipeline()
        return CacheKey(
            module_hash=module_hash(stencil_module),
            pipeline=canonical_pipeline_spec(spec),
            options=fingerprint_mapping(dataclasses.asdict(self.options)),
        )

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

        key = self.cache_key(stencil_module, spec) if self.cache is not None else None
        middle: MiddleEndResult | None = None
        if self.cache is not None and key is not None:
            middle = self.cache.get(
                key, "middle-end", rehydrate=lambda m: m.with_note("cached")
            )
        if middle is None:
            middle = self._run_middle_end(stencil_module.clone(), spec)
            if self.cache is not None and key is not None:
                self.cache.put(key, "middle-end", middle)
        self.pass_statistics = list(middle.pass_statistics)

        plan = select_plan(middle.plans, kernel_name)

        design: KernelDesign | None = None
        synth_key: CacheKey | None = None
        if self.cache is not None and key is not None:
            synth_key = dataclasses.replace(
                key,
                extra=f"device={self.device.name}|clock={self.backend.clock_mhz}"
                f"|kernel={plan.kernel_name}",
            )
            design = self.cache.get(synth_key, "synthesis")
        if design is None:
            fpp_report = middle.fpp_report
            # Vitis-HLS-like synthesis.  The plan carries the effective
            # options (including any per-pass pipeline overrides).
            design = self.backend.synthesise(plan, fpp_report, plan.options or self.options)
            if self.cache is not None and synth_key is not None:
                self.cache.put(synth_key, "synthesis", design)

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
