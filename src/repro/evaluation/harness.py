"""The experiment runner regenerating the paper's evaluation.

For every (framework, kernel, problem size, pipeline variant) combination
the harness builds the stencil-dialect module at that size, compiles it
with the framework's flow, models one execution on the simulated U280 and
records performance (MPt/s), power, energy, resource utilisation and any
failure the framework exhibits (compilation failure, deadlock, unsupported
kernel) — the same outcomes §4 reports.

Since the caching/parallel-evaluation rework the harness is a *scenario
matrix* runner:

* :meth:`EvaluationHarness.cases_for` expands a cartesian
  kernel × size × framework × pipeline-variant product into cases;
* :meth:`EvaluationHarness.run_matrix` dispatches the cases over a
  ``concurrent.futures`` process pool (``jobs > 1``) with deterministic
  result ordering — parallel and serial runs produce identical reports;
* a content-addressed :class:`~repro.core.compile_cache.CompileCache`
  (``cache=``) stores each evaluated case under the ``result`` stage as
  soon as it finishes, so warm re-runs skip it.
"""

from __future__ import annotations

import statistics
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence, Type

from repro.baselines import (
    ALL_FRAMEWORKS,
    CompilationFailure,
    DeadlockError,
    Framework,
    UnsupportedKernelError,
)
from repro.baselines.stencil_hmls import StencilHMLSFramework
from repro.core.compile_cache import CacheKey, CompileCache
from repro.core.pipeline import StencilHMLSCompiler
from repro.dialects.builtin import ModuleOp
from repro.evaluation.metrics import FrameworkResult
from repro.fpga.device import ALVEO_U280, FPGADevice, device_by_name
from repro.ir.hashing import module_hash
from repro.ir.pass_registry import canonical_pipeline_spec
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES, ProblemSize
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection


@dataclass(frozen=True)
class BenchmarkCase:
    """One matrix scenario: a kernel at one problem size, optionally pinned
    to a single framework and/or a named pipeline variant."""

    kernel: str
    size: ProblemSize
    #: ``None`` expands over the frameworks passed to :meth:`run_matrix`.
    framework: str | None = None
    variant: str = "default"

    @property
    def label(self) -> str:
        label = f"{self.kernel}/{self.size.label}"
        if self.framework is not None:
            label += f"/{self.framework}"
        if self.variant != "default":
            label += f"@{self.variant}"
        return label


def case_to_dict(case: BenchmarkCase) -> dict[str, Any]:
    """A :class:`BenchmarkCase` as a JSON-safe dict (label *and* shape, so
    custom problem sizes survive the round-trip): the one form cases take
    in shard specs, process-pool payloads and manifest records."""
    return {
        "kernel": case.kernel,
        "size": case.size.label,
        "shape": list(case.size.shape),
        "framework": case.framework,
        "variant": case.variant,
    }


def case_from_dict(entry: dict[str, Any]) -> BenchmarkCase:
    """Inverse of :func:`case_to_dict`.

    >>> case_from_dict(case_to_dict(DEFAULT_CASES[0])) == DEFAULT_CASES[0]
    True
    """
    return BenchmarkCase(
        kernel=entry["kernel"],
        size=ProblemSize(entry["size"], tuple(entry["shape"])),
        framework=entry.get("framework"),
        variant=entry.get("variant", "default"),
    )


KERNEL_BUILDERS: dict[str, Callable[[tuple[int, int, int]], ModuleOp]] = {
    "pw_advection": build_pw_advection,
    "tracer_advection": build_tracer_advection,
}

KERNEL_SIZES: dict[str, dict[str, ProblemSize]] = {
    "pw_advection": PW_ADVECTION_SIZES,
    "tracer_advection": TRACER_ADVECTION_SIZES,
}

#: The six stencil→HLS sub-passes spelled out individually.  Ablation
#: variants toggle options on *one* sub-pass, so each variant isolates the
#: effect of one lowering stage.
STAGED_PIPELINE: str = (
    "canonicalize,stencil-shape-inference,stencil-interface-lowering,"
    "stencil-small-data-buffering,stencil-wave-pipelining,"
    "stencil-compute-split,hls-bundle-assignment,convert-hls-to-llvm"
)


def staged_variant(pass_name: str, **options: object) -> str:
    """The staged pipeline with ``options`` set on one sub-pass.

    ``staged_variant("stencil-wave-pipelining", depth=32)`` renders
    ``...,stencil-wave-pipelining{depth=32},...`` — the canonical way to
    build one point of an ablation axis.

    >>> "stencil-wave-pipelining{depth=32}" in staged_variant(
    ...     "stencil-wave-pipelining", depth=32)
    True
    """
    entries = STAGED_PIPELINE.split(",")
    if pass_name not in entries:
        raise KeyError(f"pass '{pass_name}' is not part of the staged pipeline")
    rendered = ",".join(f"{key}={value}" for key, value in options.items())
    entry = f"{pass_name}{{{rendered}}}" if rendered else pass_name
    return ",".join(entry if name == pass_name else name for name in entries)


#: Named Stencil-HMLS pass-pipeline variants for matrix sweeps.  ``None``
#: means the compiler's default pipeline; baselines model fixed flows, so
#: non-default variants only ever pair with Stencil-HMLS.  The ``ii-*`` /
#: ``depth-*`` / ``width-*`` entries form the ablation-matrix axis over the
#: staged sub-passes; each option lands on its earliest consumer pass (see
#: ``_OPTION_CONSUMER_PHASE`` in the lowering context).
PIPELINE_VARIANTS: dict[str, str | None] = {
    "default": None,
    "no-pack": "canonicalize,convert-stencil-to-hls{pack=0},convert-hls-to-llvm",
    "no-split": "canonicalize,convert-stencil-to-hls{split=0},convert-hls-to-llvm",
    "single-bundle": "canonicalize,convert-stencil-to-hls{bundles=0},convert-hls-to-llvm",
    "staged": STAGED_PIPELINE,
    "ii-2": staged_variant("stencil-interface-lowering", ii=2),
    "ii-4": staged_variant("stencil-interface-lowering", ii=4),
    "width-256": staged_variant("stencil-interface-lowering", width=256),
    "width-1024": staged_variant("stencil-interface-lowering", width=1024),
    "depth-8": staged_variant("stencil-wave-pipelining", depth=8),
    "depth-64": staged_variant("stencil-wave-pipelining", depth=64),
    "single-bundle-staged": staged_variant("hls-bundle-assignment", bundles=0),
}


@lru_cache(maxsize=256)
def canonical_variant_spec(variant: str) -> str:
    """The canonical pass-pipeline spec a variant runs: a
    :data:`PIPELINE_VARIANTS` name (``default`` is the compiler's default
    pipeline) or a raw spec.  Memoised, because result keys and the
    orchestrator's planner ask for a handful of variants many times; the
    bound keeps raw specs sent to a long-lived service from piling up.

    >>> canonical_variant_spec("default")
    'canonicalize,convert-stencil-to-hls,convert-hls-to-llvm'
    """
    spec = PIPELINE_VARIANTS.get(variant, variant)
    return canonical_pipeline_spec(spec or StencilHMLSCompiler().default_pipeline())


#: The variant names forming the staged ablation axis: the untoggled
#: staged pipeline, then the toggles in pipeline order of the sub-pass
#: each one lands on (same-pass toggles are adjacent).
ABLATION_VARIANTS: tuple[str, ...] = (
    "staged",
    "ii-2",
    "ii-4",
    "width-256",
    "width-1024",
    "depth-8",
    "depth-64",
    "single-bundle-staged",
)

FRAMEWORKS_BY_NAME: dict[str, Type[Framework]] = {cls.name: cls for cls in ALL_FRAMEWORKS}

#: Every case evaluated in the paper (Figures 4-6, Tables 1-2).
DEFAULT_CASES: list[BenchmarkCase] = [
    BenchmarkCase("pw_advection", size) for size in PW_ADVECTION_SIZES.values()
] + [
    BenchmarkCase("tracer_advection", size) for size in TRACER_ADVECTION_SIZES.values()
]


def _resolve_framework_names(
    frameworks: Sequence[Type[Framework] | str] | None,
) -> list[str]:
    if frameworks is None:
        return [cls.name for cls in ALL_FRAMEWORKS]
    names: list[str] = []
    for entry in frameworks:
        name = entry if isinstance(entry, str) else entry.name
        if name not in FRAMEWORKS_BY_NAME:
            raise KeyError(
                f"unknown framework '{name}' (known: {', '.join(FRAMEWORKS_BY_NAME)})"
            )
        names.append(name)
    return names


def expand_matrix_slots(
    cases: Iterable[BenchmarkCase], framework_names: Sequence[str]
) -> list[tuple[BenchmarkCase, str]]:
    """Expand cases into fully-pinned ``(case, framework name)`` slots, in
    deterministic case-major order.

    Cases with ``framework=None`` expand over ``framework_names``; pipeline
    variants describe Stencil-HMLS pass pipelines, so an unpinned
    non-default-variant case never expands to baselines.  This is the one
    expansion rule shared by :meth:`EvaluationHarness.run_matrix` and the
    orchestrator's planner — the two must agree or resume digests would
    never match.
    """
    slots: list[tuple[BenchmarkCase, str]] = []
    for case in cases:
        if case.framework is not None:
            pinned = [case.framework]
        else:
            pinned = [
                name
                for name in framework_names
                if case.variant == "default" or name == StencilHMLSFramework.name
            ]
            if not pinned:
                raise ValueError(
                    f"case {case.label}: pipeline variant '{case.variant}' needs "
                    f"{StencilHMLSFramework.name}, which is not in the framework "
                    f"selection ({', '.join(framework_names)})"
                )
        for name in pinned:
            if name not in FRAMEWORKS_BY_NAME:
                raise KeyError(
                    f"unknown framework '{name}' (known: {', '.join(FRAMEWORKS_BY_NAME)})"
                )
            slots.append((case, name))
    return slots


def _run_case_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Process-pool worker: evaluate one fully-pinned case.

    Takes and returns plain dicts so payloads cross process boundaries
    cheaply.  Workers use no cache: the parent reads and stores every
    ``result``.
    """
    harness = EvaluationHarness(
        device=device_by_name(payload["device"]), repeats=payload["repeats"]
    )
    case = case_from_dict(payload["case"])
    return harness.run_case(FRAMEWORKS_BY_NAME[case.framework], case).as_dict()


@dataclass
class EvaluationHarness:
    """Run frameworks over benchmark cases and collect results.

    Case expansion is pure and cheap; evaluation happens in
    :meth:`run_matrix`:

    >>> harness = EvaluationHarness(repeats=1)
    >>> cases = harness.cases_for("pw_advection", ["8M"],
    ...                           frameworks=["Stencil-HMLS"],
    ...                           variants=["staged", "depth-8"])
    >>> [case.label for case in cases]
    ['pw_advection/8M/Stencil-HMLS@staged', 'pw_advection/8M/Stencil-HMLS@depth-8']
    """

    device: FPGADevice = ALVEO_U280
    #: The paper averages every measurement over 10 runs.
    repeats: int = 10
    #: Optional content-addressed cache of whole-case results, reused on
    #: warm runs.
    cache: CompileCache | None = None
    #: Default process-pool width for :meth:`run_matrix` (1 = in-process).
    jobs: int = 1
    _module_cache: dict[tuple[str, tuple[int, int, int]], ModuleOp] = field(default_factory=dict)
    _hash_cache: dict[tuple[str, tuple[int, int, int]], str] = field(default_factory=dict)
    #: The compile service shares one harness between its event loop and
    #: its compile-executor threads; the module/hash memos mutate under
    #: this lock so a concurrent request can never observe (or race to
    #: fill) a half-built entry.
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    # -- module construction -------------------------------------------------------

    def build_module(self, kernel: str, shape: tuple[int, int, int]) -> ModuleOp:
        key = (kernel, tuple(shape))
        with self._lock:
            if key not in self._module_cache:
                builder = KERNEL_BUILDERS.get(kernel)
                if builder is None:
                    raise KeyError(f"unknown kernel '{kernel}' (known: {', '.join(KERNEL_BUILDERS)})")
                self._module_cache[key] = builder(shape)
            return self._module_cache[key]

    def module_hash_for(self, kernel: str, shape: tuple[int, int, int]) -> str:
        key = (kernel, tuple(shape))
        with self._lock:
            if key not in self._hash_cache:
                self._hash_cache[key] = module_hash(self.build_module(kernel, shape))
            return self._hash_cache[key]

    # -- single case ------------------------------------------------------------------

    def _framework_instance(
        self, framework: Framework | Type[Framework], case: BenchmarkCase
    ) -> Framework:
        variant_spec = PIPELINE_VARIANTS.get(case.variant, case.variant)
        if isinstance(framework, type):
            if issubclass(framework, StencilHMLSFramework):
                return framework(self.device, pass_pipeline=variant_spec)
            framework = framework(self.device)
        if case.variant != "default":
            if not isinstance(framework, StencilHMLSFramework):
                raise ValueError(
                    f"pipeline variant '{case.variant}' only applies to Stencil-HMLS, "
                    f"not {framework.name}"
                )
            if framework.pass_pipeline != variant_spec:
                # Refuse rather than silently mislabel: the instance would run
                # its own pipeline while the result claims `case.variant`.
                raise ValueError(
                    f"framework instance runs pipeline {framework.pass_pipeline!r}, "
                    f"which is not variant '{case.variant}' ({variant_spec!r}); "
                    "pass the framework class to let the harness apply the variant"
                )
        return framework

    def run_case(self, framework: Framework | Type[Framework], case: BenchmarkCase) -> FrameworkResult:
        framework = self._framework_instance(framework, case)
        result = FrameworkResult(
            framework=framework.name,
            kernel=case.kernel,
            size_label=case.size.label,
            points=case.size.points,
            variant=case.variant,
        )
        module = self.build_module(case.kernel, case.size.shape)
        try:
            artifact = framework.compile(module)
        except UnsupportedKernelError as err:
            result.status = "unsupported"
            result.error = str(err)
            return result
        except CompilationFailure as err:
            result.status = "compile_failed"
            result.error = str(err)
            return result

        result.utilisation = artifact.utilisation()
        result.achieved_ii = artifact.achieved_ii
        result.compute_units = artifact.design.compute_units
        result.notes = list(artifact.notes)
        result.pass_statistics = [
            stat.as_dict() for stat in getattr(artifact, "pass_statistics", [])
        ]

        try:
            runs = [framework.execute(artifact) for _ in range(max(self.repeats, 1))]
        except DeadlockError as err:
            result.status = "deadlock"
            result.error = str(err)
            return result

        runtime_s = statistics.fmean(r.runtime_s for r in runs)
        mpts = statistics.fmean(r.mpts for r in runs)
        timing = runs[0]
        power = artifact.estimate_power(timing)
        result.runtime_s = runtime_s
        result.mpts = mpts
        result.average_power_w = power.average_power_w
        result.energy_j = power.average_power_w * runtime_s
        return result

    # -- caching ------------------------------------------------------------------------

    def result_key(self, case: BenchmarkCase, framework_name: str | None = None) -> CacheKey:
        """Content address of one fully-evaluated case (the ``result`` stage).

        This is the key the orchestrator's resumability manifest records:
        a case whose digest is already in the manifest restarts with zero
        recompiles.  ``framework_name`` defaults to the case's own pin.

        >>> from repro.kernels.grids import PW_ADVECTION_SIZES
        >>> harness = EvaluationHarness(repeats=1)
        >>> case = BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"])
        >>> key = harness.result_key(case, "Vitis")
        >>> "framework=Vitis" in key.extra and len(key.digest("result")) == 64
        True
        """
        if framework_name is None:
            if case.framework is None:
                raise ValueError(
                    f"case {case.label} is not pinned to a framework; pass "
                    "framework_name explicitly"
                )
            framework_name = case.framework
        pipeline = ""
        if framework_name == StencilHMLSFramework.name:
            # Embed the full canonicalised pipeline + options of the variant:
            # `…{pack=0}` and `…{pack=1}` sweeps must never share an entry.
            pipeline = canonical_variant_spec(case.variant)
        return CacheKey(
            module_hash=self.module_hash_for(case.kernel, case.size.shape),
            pipeline=pipeline,
            extra=(
                f"framework={framework_name}|variant={case.variant}"
                f"|device={self.device.name}|repeats={max(self.repeats, 1)}"
            ),
        )

    # -- sweeps -------------------------------------------------------------------------

    def run_matrix(
        self,
        cases: Iterable[BenchmarkCase] | None = None,
        frameworks: Sequence[Type[Framework] | str] | None = None,
        *,
        jobs: int | None = None,
        on_result: Callable[[BenchmarkCase, str, FrameworkResult, bool], None] | None = None,
    ) -> list[FrameworkResult]:
        """Evaluate a scenario matrix, optionally in parallel and cached.

        Cases with ``framework=None`` expand over ``frameworks`` (all five
        by default).  Results come back in deterministic case-major order
        regardless of ``jobs`` or cache state.

        ``on_result(case, framework_name, result, cached)`` fires once per
        completed case *while the matrix is still running* — cache-served
        cases first (``cached=True``), then fresh evaluations as they
        finish — which is how the orchestrator and ``report.py --stream``
        publish incremental JSONL progress events.  A fresh result is in
        the cache before its ``on_result`` fires, so a process killed
        after announcing a case has cached it too.
        """
        cases = list(cases) if cases is not None else list(DEFAULT_CASES)
        framework_names = _resolve_framework_names(frameworks)
        jobs = self.jobs if jobs is None else jobs

        # 1. Expand the matrix into fully-pinned slots, in deterministic order.
        slots = expand_matrix_slots(cases, framework_names)

        # 2. Cache-aware skipping: fill whole-case hits straight from the cache.
        results: list[FrameworkResult | None] = [None] * len(slots)
        keys: list[CacheKey | None] = [None] * len(slots)
        pending: list[int] = []
        for index, (case, name) in enumerate(slots):
            if self.cache is not None:
                keys[index] = self.result_key(case, name)
                payload = self.cache.get(keys[index], "result")
                if payload is not None:
                    results[index] = FrameworkResult.from_dict(payload)
                    if on_result is not None:
                        on_result(case, name, results[index], True)
                    continue
            pending.append(index)

        def finished(index: int, result: FrameworkResult) -> None:
            results[index] = result
            case, name = slots[index]
            if self.cache is not None:
                self.cache.put(keys[index], "result", result.as_dict())
            if on_result is not None:
                on_result(case, name, result, False)

        # 3. Evaluate the misses — in-process, or over a process pool —
        # storing and publishing each result as it completes
        # (``pool.map`` yields lazily in submission order).
        if jobs > 1 and len(pending) > 1:
            payloads = [
                {
                    "case": case_to_dict(replace(slots[i][0], framework=slots[i][1])),
                    "device": self.device.name,
                    "repeats": self.repeats,
                }
                for i in pending
            ]
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                for index, payload in zip(pending, pool.map(_run_case_payload, payloads)):
                    finished(index, FrameworkResult.from_dict(payload))
        else:
            for index in pending:
                case, name = slots[index]
                finished(index, self.run_case(FRAMEWORKS_BY_NAME[name], case))

        return [result for result in results if result is not None]

    def run_all(
        self,
        frameworks: Sequence[Type[Framework]] | None = None,
        cases: Iterable[BenchmarkCase] | None = None,
        *,
        jobs: int | None = None,
    ) -> list[FrameworkResult]:
        return self.run_matrix(cases=cases, frameworks=frameworks, jobs=jobs)

    def cases_for(
        self,
        kernels: str | Sequence[str] | None = None,
        sizes: Sequence[str] | None = None,
        frameworks: Sequence[Type[Framework] | str] | None = None,
        variants: Sequence[str] | None = None,
    ) -> list[BenchmarkCase]:
        """Cartesian kernel × size × framework × variant case expansion.

        With only ``kernels``/``sizes`` given this returns unpinned cases
        (one per kernel × size, the historical behaviour).  Passing
        ``frameworks``/``variants`` pins each case; non-default pipeline
        variants pair only with Stencil-HMLS, since the baselines model
        fixed flows.
        """
        if isinstance(kernels, str):
            kernels = [kernels]
        kernel_list = list(kernels) if kernels is not None else list(KERNEL_BUILDERS)
        framework_names: list[str | None]
        if frameworks is None:
            framework_names = [None]
        else:
            framework_names = list(_resolve_framework_names(frameworks))
        variant_list = list(variants) if variants is not None else ["default"]
        for variant in variant_list:
            if variant not in PIPELINE_VARIANTS:
                raise KeyError(
                    f"unknown pipeline variant '{variant}' "
                    f"(known: {', '.join(PIPELINE_VARIANTS)})"
                )

        expanded: list[BenchmarkCase] = []
        for kernel in kernel_list:
            if kernel not in KERNEL_SIZES:
                raise KeyError(
                    f"unknown kernel '{kernel}' (known: {', '.join(KERNEL_SIZES)})"
                )
            size_table = KERNEL_SIZES[kernel]
            labels = list(sizes) if sizes is not None else list(size_table)
            for label in labels:
                if label not in size_table:
                    raise KeyError(
                        f"unknown problem size '{label}' for {kernel} "
                        f"(known: {', '.join(size_table)})"
                    )
                for name in framework_names:
                    for variant in variant_list:
                        if variant != "default" and name not in (
                            None,
                            StencilHMLSFramework.name,
                        ):
                            continue
                        expanded.append(
                            BenchmarkCase(kernel, size_table[label], name, variant)
                        )
        return expanded
