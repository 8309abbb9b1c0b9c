"""``shmls-lint`` — semantic lint passes over kernels and planned sweeps.

Every rule is a small function registered in :data:`LINT_RULES`: it
inspects one :class:`LintTarget` (a stencil-dialect module plus the
pipeline spec / effective options / device it is planned to compile with)
and emits :class:`~repro.ir.diagnostics.Diagnostic` records with op-path
locations through a shared :class:`~repro.ir.diagnostics.DiagnosticEngine`.
Dataflow facts come from the content-keyed
:class:`~repro.ir.analysis.AnalysisManager`, so repeated lint runs over an
unchanged module (e.g. one kernel under many sweep variants) are cache
hits; each target hashes its module once, on its first lookup.

Rule catalogue (see ``docs/analysis.md`` for triggering examples):

``out-of-bounds-access``   stencil access offsets escape the field bounds
``dead-field``             stage results never stored / arguments never read
``small-data-budget``      BRAM copies of small data exceed the budget
``unconsumed-option``      pipeline option no scheduled pass ever consumes
``pipeline-spec``          malformed spec / unknown pass / too-late option
``bundle-conflict``        AXI bundle demands exceed the device's port budget
``infeasible-config``      resource-model floor estimate cannot fit the device

Exit codes: 0 clean, 1 warnings only, 2 errors (also used by
``--verify-diagnostics`` corpus mismatches).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Any, Callable

from repro.core.config import CompilerOptions, resolve_option_field, resolve_option_overrides
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.fpga.device import ALVEO_U280, FPGADevice, device_by_name
from repro.fpga.resource_model import (
    COST_PER_AXI_PORT_BRAM,
    COST_PER_AXI_PORT_FF,
    COST_PER_AXI_PORT_LUT,
    COST_PER_FLOP_FF,
    COST_PER_FLOP_LUT,
    COST_PER_MUL_DSP,
    COST_PER_STAGE_FF,
    COST_PER_STAGE_LUT,
    COST_PER_STREAM_FF,
    COST_PER_STREAM_LUT,
    KERNEL_BASE_FF,
    KERNEL_BASE_LUT,
    ResourceUsage,
    _bram_blocks,
)
from repro.ir.analysis import AnalysisManager, ModuleAnalyses
from repro.ir.diagnostics import Diagnostic, DiagnosticEngine
from repro.ir.pass_registry import PassRegistry, PipelineParseError, parse_pipeline_spec

#: Fraction of the device's usable BRAM the small-data copies may claim
#: before the ``small-data-budget`` rule warns.
SMALL_DATA_BRAM_FRACTION = 0.05


@dataclass
class LintTarget:
    """One unit of linting: a module plus its planned compilation context."""

    module: ModuleOp
    label: str = "<module>"
    spec: str = ""
    options: CompilerOptions = dataclass_field(default_factory=CompilerOptions)
    device: FPGADevice = ALVEO_U280
    analyses: AnalysisManager = dataclass_field(default_factory=AnalysisManager)

    @cached_property
    def _module_analyses(self) -> ModuleAnalyses:
        return self.analyses.view(self.module)

    def analysis(self, name: str) -> Any:
        """The ``name`` analysis of this target's module.  The module is
        hashed once per target, however many rules ask; rules must not
        mutate it."""
        return self._module_analyses.get(name)


LintRule = Callable[[LintTarget, DiagnosticEngine], None]

LINT_RULES: dict[str, LintRule] = {}


def lint_rule(name: str) -> Callable[[LintRule], LintRule]:
    def decorator(fn: LintRule) -> LintRule:
        LINT_RULES[name] = fn
        return fn

    return decorator


def effective_options(
    spec: str, base: CompilerOptions | None = None
) -> CompilerOptions:
    """Flatten every pipeline-spec option override on top of ``base``.

    Malformed specs/options resolve to ``base`` unchanged — the
    ``pipeline-spec`` rule reports them separately.
    """
    options = base if base is not None else CompilerOptions()
    if not spec:
        return options
    try:
        entries = parse_pipeline_spec(spec)
    except PipelineParseError:
        return options
    for _name, overrides in entries:
        try:
            options = resolve_option_overrides(options, overrides)
        except ValueError:
            continue
    return options


def run_lint(
    target: LintTarget,
    rules: list[str] | None = None,
    engine: DiagnosticEngine | None = None,
) -> DiagnosticEngine:
    """Run the (selected) lint rules over ``target``."""
    engine = engine if engine is not None else DiagnosticEngine()
    selected = rules if rules is not None else list(LINT_RULES)
    for name in selected:
        rule = LINT_RULES.get(name)
        if rule is None:
            raise KeyError(
                f"unknown lint rule '{name}' (known: {', '.join(sorted(LINT_RULES))})"
            )
        rule(target, engine)
    return engine


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@lint_rule("out-of-bounds-access")
def _rule_out_of_bounds(target: LintTarget, engine: DiagnosticEngine) -> None:
    """Stencil access offsets must keep the store domain inside the field."""
    bounds = target.analysis("access-bounds")
    for record in bounds.violations:
        axes = record.out_of_bounds_axes
        engine.error(
            f"stencil access offset {record.offset} on field "
            f"'{record.field_name}' reads outside the field bounds",
            op=record.access_op,
            rule="out-of-bounds-access",
            notes=tuple(
                f"axis {axis}: access covers [{record.access_lower[axis]}, "
                f"{record.access_upper[axis]}) but the field only spans "
                f"[{record.field_lower[axis]}, {record.field_upper[axis]})"
                for axis in axes
            ),
        )


@lint_rule("dead-field")
def _rule_dead_field(target: LintTarget, engine: DiagnosticEngine) -> None:
    """Fields written but never read, and arguments never used at all."""
    from repro.dialects import stencil

    def_use = target.analysis("def-use")
    for result in def_use.unused_results:
        if isinstance(result.op, stencil.ApplyOp):
            engine.warning(
                "stencil stage result is never stored or read "
                "(field written, never read)",
                op=result.op,
                rule="dead-field",
            )
    for arg in def_use.unused_args:
        func = arg.block.parent_op()
        name = arg.name_hint or f"arg{arg.index}"
        engine.warning(
            f"kernel argument '{name}' is never read or written",
            op=func,
            rule="dead-field",
        )


@lint_rule("small-data-budget")
def _rule_small_data_budget(target: LintTarget, engine: DiagnosticEngine) -> None:
    """Small-data BRAM copies must stay within a fraction of usable BRAM."""
    if not target.options.copy_small_data_to_bram:
        return
    analysis = target.analysis("stencil-kernel")
    if analysis is None or not analysis.small_data:
        return
    blocks = sum(
        _bram_blocks(arg.num_elements * arg.element_bits)
        for arg in analysis.small_data
    )
    budget = int(target.device.usable.bram_36k * SMALL_DATA_BRAM_FRACTION)
    if blocks <= budget:
        return
    func = _kernel_func(target.module, analysis.func_name)
    names = ", ".join(arg.name for arg in analysis.small_data)
    engine.warning(
        f"small data promoted to BRAM needs {blocks} BRAM blocks, past the "
        f"small_data budget of {budget} on {target.device.name}",
        op=func,
        path="" if func is not None else f"func @{analysis.func_name}",
        rule="small-data-budget",
        notes=(
            f"small data arguments: {names}",
            "disable copy_small_data_to_bram (bram=0) or shrink the arrays",
        ),
    )


@lint_rule("pipeline-spec")
def _rule_pipeline_spec(target: LintTarget, engine: DiagnosticEngine) -> None:
    """The pipeline spec must parse, build, and not schedule options too late."""
    if not target.spec:
        return
    registry = PassRegistry.default()
    try:
        entries = parse_pipeline_spec(target.spec)
    except PipelineParseError as err:
        engine.error(str(err), path=f"pipeline '{target.spec}'", rule="pipeline-spec")
        return
    for name, options in entries:
        try:
            pass_ = registry.create(name, options)
        except PipelineParseError as err:
            engine.error(
                str(err), path=f"pipeline '{target.spec}'", rule="pipeline-spec"
            )
            continue
        check_timing = getattr(pass_, "check_override_timing", None)
        if check_timing is None:
            continue
        try:
            check_timing()
        except ValueError as err:
            engine.error(
                str(err), path=f"pipeline '{target.spec}'", rule="pipeline-spec"
            )


@lint_rule("unconsumed-option")
def _rule_unconsumed_option(target: LintTarget, engine: DiagnosticEngine) -> None:
    """Every spec option must have a consuming pass scheduled in the pipeline."""
    from repro.transforms.stencil_hls.context import (
        _OPTION_CONSUMER_PHASE,
        _PHASE_HINTS,
        StencilLoweringPass,
    )

    if not target.spec:
        return
    registry = PassRegistry.default()
    try:
        entries = parse_pipeline_spec(target.spec)
    except PipelineParseError:
        return  # the pipeline-spec rule reports it
    scheduled_phases: set[int] = set()
    built: list[tuple[str, dict, object]] = []
    for name, options in entries:
        try:
            pass_ = registry.create(name, options)
        except PipelineParseError:
            continue
        built.append((name, options, pass_))
        if registry.resolve(name) == "convert-stencil-to-hls":
            scheduled_phases.update(_PHASE_HINTS)
        elif isinstance(pass_, StencilLoweringPass):
            scheduled_phases.add(pass_.produces_phase)
    for name, options, pass_ in built:
        for key in options:
            try:
                field_name = resolve_option_field(key)
            except ValueError:
                continue  # unknown option: already a build error
            consumer = _OPTION_CONSUMER_PHASE.get(field_name)
            if consumer is None or consumer in scheduled_phases:
                continue
            engine.warning(
                f"option '{key}' on pass '{name}' is consumed by no scheduled "
                f"pass: '{_PHASE_HINTS[consumer]}' is not in the pipeline",
                path=f"pipeline '{target.spec}'",
                rule="unconsumed-option",
            )


@lint_rule("bundle-conflict")
def _rule_bundle_conflict(target: LintTarget, engine: DiagnosticEngine) -> None:
    """AXI bundle assignment must fit the device's master-port budget."""
    analysis = target.analysis("stencil-kernel")
    if analysis is None:
        return
    func = _kernel_func(target.module, analysis.func_name)
    options = target.options
    if not options.separate_bundles and not options.bundle_small_data:
        engine.warning(
            "bundle_small_data=false has no effect when separate_bundles=false "
            "(everything already shares one bundle)",
            op=func,
            rule="bundle-conflict",
        )
    if options.separate_bundles and target.device.max_axi_ports > 0:
        ports = analysis.ports_per_cu(options.bundle_small_data)
        if ports > target.device.max_axi_ports:
            engine.error(
                f"kernel needs {ports} AXI ports per compute unit but "
                f"{target.device.name} supports at most "
                f"{target.device.max_axi_ports}",
                op=func,
                rule="bundle-conflict",
                notes=(
                    "share bundles (separate_bundles=false) or bundle the "
                    "small data (bundle_small_data=true)",
                ),
            )


@lint_rule("infeasible-config")
def _rule_infeasible_config(target: LintTarget, engine: DiagnosticEngine) -> None:
    """A floor resource estimate of the planned configuration must fit."""
    analysis = target.analysis("stencil-kernel")
    if analysis is None or not analysis.stages:
        return
    usage = estimate_configuration_floor(analysis, target.options)
    if usage.fits(target.device):
        return
    func = _kernel_func(target.module, analysis.func_name)
    usable = target.device.usable
    over = []
    if usage.bram_36k > usable.bram_36k:
        over.append(f"BRAM {usage.bram_36k}/{usable.bram_36k}")
    if usage.luts > usable.luts:
        over.append(f"LUT {usage.luts}/{usable.luts}")
    if usage.flip_flops > usable.flip_flops:
        over.append(f"FF {usage.flip_flops}/{usable.flip_flops}")
    if usage.dsps > usable.dsps:
        over.append(f"DSP {usage.dsps}/{usable.dsps}")
    engine.error(
        "configuration is infeasible for "
        f"{target.device.name}: floor estimate exceeds the device "
        f"({'; '.join(over) or 'capacity'})",
        op=func,
        rule="infeasible-config",
        notes=(
            f"ii={target.options.target_ii} depth={target.options.stream_depth} "
            f"width={target.options.interface_width_bits} "
            f"pack={int(target.options.pack_interfaces)}",
        ),
    )


def estimate_configuration_floor(analysis, options: CompilerOptions) -> ResourceUsage:
    """Irreducible pre-lowering resource floor of one configuration.

    Deliberately conservative (no shift buffers, one compute unit): stream
    FIFOs at the requested depth/width, BRAM copies of small data and the
    AXI interfaces — storage no later optimisation can remove.  If *this*
    does not fit the device, the real design cannot either.
    """
    usage = ResourceUsage(luts=KERNEL_BASE_LUT, flip_flops=KERNEL_BASE_FF)
    width = options.interface_width_bits if options.pack_interfaces else 64
    lanes = max(width // 64, 1)
    for stage in analysis.stages:
        flops = max(stage.flops, 1)
        usage.luts += COST_PER_STAGE_LUT + flops * COST_PER_FLOP_LUT
        usage.flip_flops += COST_PER_STAGE_FF + flops * COST_PER_FLOP_FF
        usage.dsps += max(flops // 2, 1) * COST_PER_MUL_DSP
        # One window stream per read field plus the stage's output stream.
        streams = len(stage.offsets) + 1
        usage.luts += streams * COST_PER_STREAM_LUT
        usage.flip_flops += streams * COST_PER_STREAM_FF
        usage.bram_36k += streams * _bram_blocks(64 * lanes * options.stream_depth)
    if options.copy_small_data_to_bram:
        for arg in analysis.small_data:
            usage.bram_36k += _bram_blocks(arg.num_elements * arg.element_bits)
    ports = analysis.ports_per_cu(options.bundle_small_data)
    usage.luts += ports * COST_PER_AXI_PORT_LUT
    usage.flip_flops += ports * COST_PER_AXI_PORT_FF
    usage.bram_36k += ports * COST_PER_AXI_PORT_BRAM
    return usage


def _kernel_func(module: ModuleOp, func_name: str) -> FuncOp | None:
    for op in module.walk_type(FuncOp):
        if op.sym_name == func_name:
            return op
    return None


# ---------------------------------------------------------------------------
# --verify-diagnostics corpus harness
# ---------------------------------------------------------------------------

_EXPECTED_RE = re.compile(
    r"#\s*expected-(error|warning|remark):\s*(.+?)\s*$", re.MULTILINE
)


def compile_expectation(pattern: str) -> re.Pattern[str]:
    """FileCheck-style pattern: literal text with ``{{...}}`` regex islands."""
    parts: list[str] = []
    pos = 0
    for match in re.finditer(r"\{\{(.*?)\}\}", pattern):
        parts.append(re.escape(pattern[pos : match.start()]))
        parts.append(match.group(1))
        pos = match.end()
    parts.append(re.escape(pattern[pos:]))
    return re.compile("".join(parts))


@dataclass
class ExpectedDiagnostic:
    severity: str
    pattern: str

    def matches(self, diag: Diagnostic) -> bool:
        if diag.severity != self.severity:
            return False
        return compile_expectation(self.pattern).search(diag.render()) is not None


def parse_expected_diagnostics(text: str) -> list[ExpectedDiagnostic]:
    return [
        ExpectedDiagnostic(severity=m.group(1), pattern=m.group(2))
        for m in _EXPECTED_RE.finditer(text)
    ]


def verify_diagnostics(
    expectations: list[ExpectedDiagnostic], diagnostics: list[Diagnostic]
) -> list[str]:
    """Match expectations 1:1 against emitted diagnostics; return mismatches.

    Every expectation must match exactly one distinct diagnostic, and every
    emitted error/warning must be claimed by an expectation (remarks are
    free unless expected).  Returns human-readable failure lines, empty on
    success.
    """
    failures: list[str] = []
    unclaimed = list(diagnostics)
    for expected in expectations:
        match = next((d for d in unclaimed if expected.matches(d)), None)
        if match is None:
            failures.append(
                f"expected-{expected.severity} never emitted: {expected.pattern}"
            )
            continue
        unclaimed.remove(match)
    for diag in unclaimed:
        if diag.severity in ("error", "warning"):
            failures.append(f"unexpected diagnostic: {diag.render()}")
    return failures


def lint_corpus_file(path: str) -> tuple[list[str], DiagnosticEngine]:
    """Run lint over one corpus fixture and check its expected diagnostics.

    A fixture is a python file defining ``build() -> ModuleOp`` and
    optionally ``SPEC`` (pipeline spec), ``DEVICE`` (device name), ``RULES``
    (rule subset) and ``OPTIONS`` (keyword overrides for
    :class:`CompilerOptions`), plus ``# expected-error:`` /
    ``# expected-warning:`` / ``# expected-remark:`` comment lines with
    FileCheck-style ``{{regex}}`` islands matched against the rendered
    diagnostics.
    """
    import importlib.util

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    expectations = parse_expected_diagnostics(text)
    spec_obj = importlib.util.spec_from_file_location(f"lint_corpus_{id(text)}", path)
    assert spec_obj is not None and spec_obj.loader is not None
    module = importlib.util.module_from_spec(spec_obj)
    spec_obj.loader.exec_module(module)

    pipeline_spec = getattr(module, "SPEC", "")
    device = device_by_name(getattr(module, "DEVICE", ALVEO_U280.name))
    rules = getattr(module, "RULES", None)
    base = CompilerOptions(**getattr(module, "OPTIONS", {}))
    ir_module = module.build()
    target = LintTarget(
        module=ir_module,
        label=path,
        spec=pipeline_spec,
        options=effective_options(pipeline_spec, base),
        device=device,
    )
    engine = run_lint(target, rules=rules)
    return verify_diagnostics(expectations, engine.diagnostics), engine


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def exit_code_for(engines: list[DiagnosticEngine]) -> int:
    if any(e.has_errors for e in engines):
        return 2
    if any(e.has_warnings for e in engines):
        return 1
    return 0


def _print_engine(label: str, engine: DiagnosticEngine) -> None:
    status = "clean"
    if engine.has_errors:
        status = f"{len(engine.errors)} error(s), {len(engine.warnings)} warning(s)"
    elif engine.has_warnings:
        status = f"{len(engine.warnings)} warning(s)"
    print(f"{label}: {status}")
    for line in engine.render_lines():
        print(f"  {line}")


def _target_json(label: str, engine: DiagnosticEngine) -> dict:
    return {
        "label": label,
        "errors": len(engine.errors),
        "warnings": len(engine.warnings),
        "diagnostics": [d.as_dict() for d in engine.diagnostics],
    }


def _lint_kernel_target(
    kernel: str, size: str, spec: str, device: FPGADevice
) -> LintTarget:
    from repro.evaluation.harness import KERNEL_BUILDERS, KERNEL_SIZES

    builders = KERNEL_BUILDERS
    if kernel not in builders:
        raise KeyError(f"unknown kernel '{kernel}' (known: {', '.join(builders)})")
    sizes = KERNEL_SIZES[kernel]
    if size not in sizes:
        raise KeyError(
            f"unknown size '{size}' for {kernel} (known: {', '.join(sizes)})"
        )
    module = builders[kernel](sizes[size].shape)
    return LintTarget(
        module=module,
        label=f"{kernel}@{size}",
        spec=spec,
        options=effective_options(spec),
        device=device,
    )


def lint_benchmark_case(
    kernel: str,
    size: str,
    variant: str,
    device: FPGADevice,
    analyses: AnalysisManager | None = None,
) -> DiagnosticEngine:
    """Lint one planned benchmark case (kernel @ size under a named
    pipeline variant).  This is the orchestrator's ``--dry-run`` hook: a
    case whose engine reports errors is doomed to fail at compile time.

    Passing a shared ``analyses`` manager makes repeated lints of the same
    kernel module (one per sweep variant) hit its content-keyed cache.
    """
    from repro.evaluation.harness import PIPELINE_VARIANTS

    spec = PIPELINE_VARIANTS.get(variant) or ""
    target = _lint_kernel_target(kernel, size, spec, device)
    target.label = f"{kernel}@{size}/{variant}"
    if analyses is not None:
        target.analyses = analyses
    return run_lint(target)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shmls-lint",
        description="Semantic lint over stencil kernels and planned sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel_p = sub.add_parser("kernel", help="lint one benchmark kernel")
    kernel_p.add_argument("name", help="kernel name (e.g. pw_advection)")
    kernel_p.add_argument("--size", default="8M", help="problem size label")
    kernel_p.add_argument("--device", default=ALVEO_U280.name)
    kernel_p.add_argument("--pass-pipeline", default="", metavar="SPEC")
    kernel_p.add_argument("--json", action="store_true", help="emit JSON")

    sweep_p = sub.add_parser("sweep", help="lint a planned sweep (kernels × variants)")
    sweep_p.add_argument("--kernels", default="pw_advection,tracer_advection")
    sweep_p.add_argument("--sizes", default="8M")
    sweep_p.add_argument(
        "--variants", default="default", help="comma-separated PIPELINE_VARIANTS names"
    )
    sweep_p.add_argument("--device", default=ALVEO_U280.name)
    sweep_p.add_argument("--json", action="store_true", help="emit JSON")

    corpus_p = sub.add_parser("corpus", help="lint fixture files")
    corpus_p.add_argument("files", nargs="+", help="corpus fixture .py files")
    corpus_p.add_argument(
        "--verify-diagnostics",
        action="store_true",
        help="check each fixture's expected-diagnostic comments 1:1",
    )
    corpus_p.add_argument("--json", action="store_true", help="emit JSON")

    args = parser.parse_args(argv)
    device = device_by_name(getattr(args, "device", ALVEO_U280.name))

    engines: list[DiagnosticEngine] = []
    results: list[dict] = []

    if args.command == "kernel":
        try:
            target = _lint_kernel_target(
                args.name, args.size, args.pass_pipeline, device
            )
        except KeyError as err:
            parser.error(str(err))
        engine = run_lint(target)
        engines.append(engine)
        results.append(_target_json(target.label, engine))
        if not args.json:
            _print_engine(target.label, engine)

    elif args.command == "sweep":
        from repro.evaluation.harness import PIPELINE_VARIANTS

        kernels = [k for k in args.kernels.split(",") if k]
        variants = [v for v in args.variants.split(",") if v]
        sizes = [s for s in args.sizes.split(",") if s]
        for variant in variants:
            if variant not in PIPELINE_VARIANTS:
                parser.error(
                    f"unknown variant '{variant}' "
                    f"(known: {', '.join(sorted(PIPELINE_VARIANTS))})"
                )
        for kernel in kernels:
            for size in sizes:
                for variant in variants:
                    spec = PIPELINE_VARIANTS[variant] or ""
                    try:
                        target = _lint_kernel_target(kernel, size, spec, device)
                    except KeyError as err:
                        parser.error(str(err))
                    target.label = f"{kernel}@{size}/{variant}"
                    engine = run_lint(target)
                    engines.append(engine)
                    results.append(_target_json(target.label, engine))
                    if not args.json:
                        _print_engine(target.label, engine)

    elif args.command == "corpus":
        verify_failures: list[str] = []
        for path in args.files:
            failures, engine = lint_corpus_file(path)
            engines.append(engine)
            entry = _target_json(path, engine)
            if args.verify_diagnostics:
                entry["verify_failures"] = failures
                verify_failures.extend(f"{path}: {line}" for line in failures)
            results.append(entry)
            if not args.json:
                _print_engine(path, engine)
                for line in failures if args.verify_diagnostics else []:
                    print(f"  VERIFY: {line}")
        if args.verify_diagnostics:
            code = 2 if verify_failures else 0
            if args.json:
                print(
                    json.dumps(
                        {"targets": results, "exit_code": code}, indent=2, sort_keys=True
                    )
                )
            elif not verify_failures:
                print(f"verified {len(args.files)} fixture(s): all diagnostics match")
            return code

    code = exit_code_for(engines)
    if getattr(args, "json", False):
        print(json.dumps({"targets": results, "exit_code": code}, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main())
