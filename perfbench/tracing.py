"""Spans around each layer's public entry points, for the traced run.

The benchmark owns this instrumentation: :func:`install` replaces public
callables of the program with timing wrappers at the name each caller
resolves, and the returned function puts the originals back.  Each span
records a bucket (the per-layer metric its self time feeds), start, end,
its parent (through :mod:`contextvars`, so the asyncio service and its
executor threads keep separate stacks) and the root span of its case or
request.  Spans stay in memory; :meth:`Recorder.export` hands them out
when the run ends.  A span's self time is its duration minus the time its
children cover, so the self times of all buckets plus the time no span
covers add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Every registered pass that runs in some workload.  ``convert-stencil-
#: to-hls`` is the composite the default pipeline runs; it drives the six
#: sub-passes through an inner pass manager, so its self time is small.
PASSES: tuple[str, ...] = (
    "canonicalize",
    "cse",
    "dce",
    "convert-stencil-to-hls",
    "stencil-shape-inference",
    "stencil-interface-lowering",
    "stencil-small-data-buffering",
    "stencil-wave-pipelining",
    "stencil-compute-split",
    "hls-bundle-assignment",
    "convert-hls-to-llvm",
)
CACHE_STAGES: tuple[str, ...] = (
    "result", "middle-end", "synthesis", "pass-prefix", "pass-prefix-hash",
)
#: Baseline framework name -> metric key.
BASELINES: dict[str, str] = {
    "Vitis HLS": "vitis",
    "DaCe": "dace",
    "StencilFlow": "stencilflow",
    "SODA-opt": "soda",
}

#: Buckets whose self time is a layer's time (all in ms).
TIME_BUCKETS: tuple[str, ...] = (
    "kernels.build_ms",
    "ir.verifier_ms",
    "ir.analysis_ms",
    "ir.hashing_ms",
    *(f"transforms.{name}.self_ms" for name in PASSES),
    "fpp.self_ms",
    "fpga.synthesis_ms",
    "fpga.timing_ms",
    "fpga.power_ms",
    *(f"baselines.{key}.compile_ms" for key in BASELINES.values()),
    "core.pipeline.self_ms",
    "core.compile_cache.get_ms",
    "core.compile_cache.put_ms",
    "core.compile_cache.probe_ms",
    "evaluation.harness.self_ms",
    "evaluation.orchestrator.self_ms",
    "evaluation.orchestrator.plan_ms",
    "service.handle_ms",
    "service.spec_ms",
    "service.digest_ms",
    "interp.self_ms",
    "runtime.self_ms",
    # Time the tracing itself spends inside spans (IR size walks).
    "trace.bookkeeping_ms",
)
#: The root span a workload puts around each timed operation; its self
#: time is work no layer covers.
ROOT_BUCKET = "bench"

#: Every per-layer metric a traced run prints, in BENCHMARK.json order.
PER_LAYER: tuple[str, ...] = (
    *TIME_BUCKETS[:3],
    "kernels.build_calls",
    "ir.analysis_calls",
    "ir.analysis_hit_ratio",
    "ir.hashing_calls",
    *TIME_BUCKETS[3:],
    *(f"transforms.{name}.runs" for name in PASSES),
    *(f"transforms.{name}.ops_out" for name in PASSES),
    *(f"core.compile_cache.hits.{stage}" for stage in CACHE_STAGES),
    *(f"core.compile_cache.misses.{stage}" for stage in CACHE_STAGES),
    *(f"core.compile_cache.stores.{stage}" for stage in CACHE_STAGES),
    "core.compile_cache.prefix_reuse_ratio",
    "core.compile_cache.disk_bytes",
    "service.warm_ratio",
    "service.led",
    "service.coalesced",
    "service.shed",
    "service.compile_busy_share",
    "loadgen.late_ms_max",
    "sim.points",
    "python.gc_ms",
    "python.gc_gen2",
    "trace.wall_ms",
    "trace.overhead_ratio",
    "trace.uncovered_share",
)


class _Span:
    __slots__ = ("bucket", "start", "end", "child", "parent", "root", "thread")

    def __init__(self, bucket: str, parent: "_Span | None") -> None:
        self.bucket = bucket
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.thread = threading.get_ident()
        self.child = 0.0
        self.end = 0.0
        self.start = time.perf_counter()


@dataclass
class TraceData:
    """Exported spans and counters of one traced process.

    ``rows`` are ``(bucket, self_seconds, root_start, thread)``; ``root_start``
    is a ``time.perf_counter`` stamp, which on Linux is the system-wide
    monotonic clock, so windows measured in another process apply.
    """

    rows: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    gc_ms: float = 0.0
    gc_gen2: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "counts": self.counts,
            "gc_ms": self.gc_ms,
            "gc_gen2": self.gc_gen2,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "TraceData":
        return cls(
            rows=[tuple(row) for row in payload["rows"]],
            counts=dict(payload["counts"]),
            gc_ms=payload["gc_ms"],
            gc_gen2=payload["gc_gen2"],
        )

    def merge(self, other: "TraceData") -> None:
        self.rows.extend(other.rows)
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.gc_ms += other.gc_ms
        self.gc_gen2 += other.gc_gen2


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self._spans: list[_Span] = []
        self._current: contextvars.ContextVar[_Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Re-entrant: mark() may run from a signal handler on a thread that
        # is inside count().
        self._lock = threading.RLock()
        self.counts: dict[str, float] = defaultdict(float)
        self.analysis_stats: dict[int, Any] = {}
        self.gc_ms = 0.0
        self.gc_gen2 = 0
        self._gc_start: float | None = None
        self._baseline: dict[str, float] = {}

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, bucket: str) -> Iterator[None]:
        """A span of ``bucket`` around the ``with`` body."""
        span, token = self._open(bucket)
        try:
            yield
        finally:
            self._close(span, token)

    def _open(self, bucket: str) -> tuple[_Span, contextvars.Token]:
        span = _Span(bucket, self._current.get())
        self._spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: _Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def wrap(
        self, fn: Callable, bucket: str | Callable[..., str], counter: str | None = None
    ) -> Callable:
        """``fn`` timed as a span of ``bucket`` (or ``bucket(*args)``),
        counting its calls under ``counter`` when one is given."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                recorder.count(counter)
            name = bucket(*args) if callable(bucket) else bucket
            span, token = recorder._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(span, token)

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- garbage collection ------------------------------------------------------

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1000.0
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- export ------------------------------------------------------------------

    def _totals(self) -> dict[str, float]:
        managers = list(self.analysis_stats.values())
        hits = sum(stats.total_hits for stats in managers)
        misses = sum(stats.total_misses for stats in managers)
        with self._lock:
            totals = dict(self.counts)
        totals["ir.analysis_hits"] = hits
        totals["ir.analysis_calls"] = hits + misses
        totals["python.gc_ms"] = self.gc_ms
        totals["python.gc_gen2"] = self.gc_gen2
        return totals

    def mark(self) -> None:
        """Start counting from here: :meth:`export` reports counters as the
        change since the last mark (spans are windowed by their start)."""
        self._baseline = self._totals()

    def export(self) -> TraceData:
        rows = [
            (
                span.bucket,
                (span.end - span.start) - span.child,
                span.root.start,
                span.thread,
            )
            for span in self._spans
            if span.end
        ]
        counts = {
            key: value - self._baseline.get(key, 0)
            for key, value in self._totals().items()
        }
        return TraceData(
            rows=rows,
            counts=counts,
            gc_ms=counts.pop("python.gc_ms"),
            gc_gen2=int(counts.pop("python.gc_gen2")),
        )


# -- installing the wrappers ---------------------------------------------------------


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo function."""
    from repro.baselines import ALL_FRAMEWORKS
    from repro.baselines.stencil_hmls import StencilHMLSFramework
    from repro.core import pipeline
    from repro.core.compile_cache import CompileCache
    from repro.evaluation import harness, orchestrator
    from repro.fpga import dataflow_sim
    from repro.fpga.dataflow_sim import FunctionalDataflowSimulator, TimingModel
    from repro.fpga.power_model import PowerModel
    from repro.fpga.synthesis import VitisHLSBackend
    from repro.ir import verifier
    from repro.ir.analysis import AnalysisManager
    from repro.ir.pass_registry import PassRegistry
    from repro.service import server

    undo: list[Callable[[], None]] = []

    def patch(owner: Any, name: str, replacement: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, replacement)
        undo.append(lambda: setattr(owner, name, original))

    def wrap_attr(owner: Any, name: str, bucket: Any, counter: str | None = None) -> None:
        fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        patch(owner, name, recorder.wrap(fn, bucket, counter))

    # kernels: the builders the harness resolves through KERNEL_BUILDERS.
    for kernel, builder in list(harness.KERNEL_BUILDERS.items()):
        harness.KERNEL_BUILDERS[kernel] = recorder.wrap(
            builder, "kernels.build_ms", "kernels.build_calls"
        )
        undo.append(lambda k=kernel, b=builder: harness.KERNEL_BUILDERS.__setitem__(k, b))

    # ir: verification, cached analyses and module hashing.
    wrap_attr(pipeline, "verify_module", "ir.verifier_ms")
    wrap_attr(verifier, "verify_module_diagnostics", "ir.verifier_ms")
    wrap_attr(pipeline, "module_hash", "ir.hashing_ms", "ir.hashing_calls")
    wrap_attr(harness, "module_hash", "ir.hashing_ms", "ir.hashing_calls")
    analysis_get = recorder.wrap(AnalysisManager.__dict__["get"], "ir.analysis_ms")

    def traced_analysis_get(self: AnalysisManager, name: str, module: Any) -> Any:
        recorder.analysis_stats.setdefault(id(self.stats), self.stats)
        return analysis_get(self, name, module)

    patch(AnalysisManager, "get", traced_analysis_get)

    # transforms: every registered pass class that defines its own apply.
    registry = PassRegistry.default()
    pass_classes = {registry.create(name).__class__ for name in registry.registered_names}
    for cls in pass_classes:
        if "apply" not in cls.__dict__:
            continue
        original_apply = cls.__dict__["apply"]

        def traced_apply(self: Any, module: Any, _apply: Callable = original_apply) -> bool:
            name = self.name
            with recorder.span(f"transforms.{name}.self_ms"):
                changed = _apply(self, module)
                with recorder.span("trace.bookkeeping_ms"):
                    ops = sum(1 for _ in module.walk())
            recorder.count(f"transforms.{name}.runs")
            recorder.count(f"transforms.{name}.ops_total", ops)
            return changed

        patch(cls, "apply", functools.wraps(original_apply)(traced_apply))

    # fpp and the fpga models.
    wrap_attr(pipeline, "run_fpp", "fpp.self_ms")
    wrap_attr(VitisHLSBackend, "synthesise", "fpga.synthesis_ms")
    wrap_attr(TimingModel, "estimate", "fpga.timing_ms")
    wrap_attr(PowerModel, "estimate", "fpga.power_ms")

    # baselines and the Stencil-HMLS framework (a thin layer over the
    # compiler, so its self time belongs to core.pipeline).  The bucket
    # follows the instance: SODA-opt's compile calls Vitis HLS's.
    def framework_bucket(framework: Any, *args: Any) -> str:
        if isinstance(framework, StencilHMLSFramework):
            return "core.pipeline.self_ms"
        return f"baselines.{BASELINES[framework.name]}.compile_ms"

    for cls in ALL_FRAMEWORKS:
        if "compile" in cls.__dict__:
            wrap_attr(cls, "compile", framework_bucket)

    # the compile cache.
    wrap_attr(CompileCache, "get", "core.compile_cache.get_ms")
    wrap_attr(CompileCache, "put", "core.compile_cache.put_ms")
    wrap_attr(CompileCache, "probe", "core.compile_cache.probe_ms")

    # evaluation: harness, orchestrator and planner.
    wrap_attr(harness.EvaluationHarness, "run_case", "evaluation.harness.self_ms")
    wrap_attr(harness.EvaluationHarness, "run_matrix", "evaluation.harness.self_ms")
    wrap_attr(orchestrator, "orchestrate", "evaluation.orchestrator.self_ms")
    wrap_attr(orchestrator, "plan_matrix", "evaluation.orchestrator.plan_ms")

    # service: request routing, spec parsing and content addressing.
    wrap_attr(server.CompileService, "handle_compile_request", "service.handle_ms")
    wrap_attr(server, "parse_request", "service.spec_ms")
    wrap_attr(server, "request_digest", "service.digest_ms")

    # interp and runtime: the simulator and the data movers it calls.
    wrap_attr(FunctionalDataflowSimulator, "run", "interp.self_ms")
    make_externals = dataflow_sim.make_externals

    def traced_make_externals(plan: Any) -> dict[str, Callable]:
        return {
            name: recorder.wrap(fn, "runtime.self_ms")
            for name, fn in make_externals(plan).items()
        }

    patch(dataflow_sim, "make_externals", traced_make_externals)

    gc.callbacks.append(recorder._on_gc)
    undo.append(lambda: gc.callbacks.remove(recorder._on_gc))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(
    data: TraceData,
    *,
    wall_ms: float,
    untraced_wall_ms: float,
    window_start: float | None = None,
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``wall_ms`` is the traced wall time the self times partition (summed
    over threads when several threads ran spans); only spans whose root
    started at or after ``window_start`` count.  Layers that did not run
    report 0.  ``extra`` supplies counters that come from the program's
    own public objects (cache stats, ``/stats``, load generator).
    """
    metrics: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    covered = 0.0
    for bucket, self_s, root_start, _thread in data.rows:
        if window_start is not None and root_start < window_start:
            continue
        if bucket == ROOT_BUCKET:
            continue
        metrics[bucket] += self_s * 1000.0
        covered += self_s * 1000.0
    counts = data.counts
    metrics["kernels.build_calls"] = counts.get("kernels.build_calls", 0)
    metrics["ir.hashing_calls"] = counts.get("ir.hashing_calls", 0)
    calls = counts.get("ir.analysis_calls", 0)
    metrics["ir.analysis_calls"] = calls
    metrics["ir.analysis_hit_ratio"] = counts.get("ir.analysis_hits", 0) / calls if calls else 0.0
    for name in PASSES:
        runs = counts.get(f"transforms.{name}.runs", 0)
        metrics[f"transforms.{name}.runs"] = runs
        total = counts.get(f"transforms.{name}.ops_total", 0)
        metrics[f"transforms.{name}.ops_out"] = total / runs if runs else 0.0
    metrics["python.gc_ms"] = data.gc_ms
    metrics["python.gc_gen2"] = data.gc_gen2
    for key, value in (extra or {}).items():
        if key not in metrics:
            raise KeyError(f"unknown per-layer metric {key}")
        metrics[key] = value
    metrics["trace.wall_ms"] = wall_ms
    metrics["trace.overhead_ratio"] = wall_ms / untraced_wall_ms - 1.0 if untraced_wall_ms else 0.0
    metrics["trace.uncovered_share"] = (wall_ms - covered) / wall_ms if wall_ms else 0.0
    return metrics


def cache_counters(stats: list[dict[str, Any]]) -> dict[str, float]:
    """Per-stage compile-cache counters summed over ``CacheStats.as_dict()``s."""
    out: dict[str, float] = {}
    for kind in ("hits", "misses", "stores"):
        for stage in CACHE_STAGES:
            out[f"core.compile_cache.{kind}.{stage}"] = sum(
                entry.get("stages", {}).get(stage, {}).get(kind, 0) for entry in stats
            )
    stores = out["core.compile_cache.stores.pass-prefix"]
    hits = out["core.compile_cache.hits.pass-prefix"]
    out["core.compile_cache.prefix_reuse_ratio"] = hits / stores if stores else 0.0
    out["core.compile_cache.disk_bytes"] = max(
        (entry.get("disk_bytes", 0) for entry in stats), default=0
    )
    return out
