"""The Stencil-HMLS transformation: stencil dialect → HLS dialect (§3.3).

This pass restructures a Von-Neumann style stencil kernel into the
shift-buffer based dataflow form of Figure 3.  Since the staged-pipeline
refactor it is a *thin composition* of the discrete sub-passes in
:mod:`repro.transforms.stencil_hls`, which implement the nine automatic
optimisation steps of the paper:

====  =================================  ===============================
step  paper (§3.3)                       sub-pass
====  =================================  ===============================
1     classify kernel arguments          ``stencil-shape-inference``
2     512-bit packed interface types     ``stencil-interface-lowering``
3, 7  streams, shift buffers, load_data  ``stencil-wave-pipelining``
4, 5  per-field compute split + window   ``stencil-compute-split``
6     single write_data stage            ``stencil-compute-split``
8     small data copies into BRAM        ``stencil-small-data-buffering``
9     per-argument AXI bundles           ``hls-bundle-assignment``
====  =================================  ===============================

The sub-passes communicate through a
:class:`~repro.transforms.stencil_hls.context.LoweringContext` carried on
the pass manager's :class:`~repro.ir.passes.PassContext`; they can equally
be scheduled individually from a textual pipeline spec (see
:mod:`repro.ir.pass_registry`) to ablate single optimisation steps.

Kernels whose stencil stages depend on each other (the tracer advection
case) are emitted as a sequence of dependency *waves*; stages within a wave
run concurrently, waves run back-to-back.  Besides the HLS-dialect IR the
lowering records a :class:`~repro.core.plan.DataflowPlan` per kernel, which
the synthesis model, functional simulator and resource/power models consume.
"""

from __future__ import annotations

from repro.core.config import CompilerOptions
from repro.core.plan import DataflowPlan
from repro.dialects.builtin import ModuleOp
from repro.ir.passes import PassManager
from repro.transforms.stencil_hls import (
    StencilLoweringPass,
    build_stencil_to_hls_pipeline,
)


class StencilToHLSPass(StencilLoweringPass):
    """Apply the full staged Stencil-HMLS lowering to every stencil kernel."""

    name = "convert-stencil-to-hls"

    def __init__(self, options: CompilerOptions | None = None, **overrides) -> None:
        super().__init__(options, **overrides)
        #: Dataflow plans recorded per generated kernel (kernel name → plan).
        self.plans: dict[str, DataflowPlan] = {}

    def apply(self, module: ModuleOp) -> bool:
        lowering = self.lowering_context()
        # The composite runs before any stage, so every option may still be
        # overridden here (unlike per-sub-pass overrides, which are checked
        # against the stages that already consumed them).
        self.apply_global_overrides(lowering)
        # The outer pass manager verifies around this composite; the
        # intermediate states are valid IR but re-verifying five times per
        # kernel would only add cost.
        inner = PassManager(
            build_stencil_to_hls_pipeline(), verify_each=False, context=self.ctx
        )
        inner.run(module)
        self.plans = dict(lowering.plans)
        return any(stat.changed for stat in inner.statistics)
