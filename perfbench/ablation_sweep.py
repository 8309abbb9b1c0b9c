"""ablation-sweep: the staged ablation axis through the orchestrator.

Stencil-HMLS × the eight ``ABLATION_VARIANTS`` × {PW 8M, tracer 8M}.  Each
cycle plans the 16 cases with ``plan_matrix`` (prefix order, 2 shards) and
runs them with ``orchestrate`` and the local launcher against a fresh
cache directory (the cold pass), then runs the same plan again against the
now-warm cache with a fresh state directory in a process of its own (the
warm pass), as a user re-running a sweep does, many times over.  The seed
shuffles the case list handed to the planner.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from common import (
    HostSpeed,
    Metric,
    RunResult,
    median,
    run_dir,
    self_peak_rss_mb,
    write_json,
)

KERNELS = ("pw_advection", "tracer_advection")
SIZES = ("8M",)
SHARDS = 2
#: Warm passes per cycle, each in a process of its own.  One takes about
#: 0.08 s and moves by a third from one pass to the next, so the warm
#: figure is the median of many.
WARM_PASSES = 40
#: A warm pass still running after this long is killed and counts as failed.
WARM_PASS_TIMEOUT_S = 60.0


def sweep_cases(seed: int) -> list:
    from repro.evaluation.harness import ABLATION_VARIANTS, EvaluationHarness

    cases = EvaluationHarness(repeats=1).cases_for(
        list(KERNELS), list(SIZES), frameworks=["Stencil-HMLS"],
        variants=list(ABLATION_VARIANTS),
    )
    random.Random(seed).shuffle(cases)
    return cases


def run_pass(seed: int, cache_dir: Path, state_dir: Path, span: Any = None) -> dict[str, Any]:
    """Plan and run the sweep once; returns wall time, exit code, the merged
    report's bytes and each shard's cache statistics."""
    from repro.evaluation import orchestrator

    cases = sweep_cases(seed)
    report = state_dir / "report.json"
    events = state_dir / "events.jsonl"
    began = time.perf_counter()
    with span("bench") if span else nullcontext():
        plan = orchestrator.plan_matrix(cases, shards=SHARDS, order="prefix")
        code, _ = orchestrator.orchestrate(
            plan, state_dir=state_dir, launcher="local", cache_dir=str(cache_dir),
            events=orchestrator.EventWriter(events), output=report,
        )
    wall = time.perf_counter() - began
    return {
        "wall_s": wall,
        "code": code,
        "cases": len(cases),
        "report": report.read_text() if report.exists() else "",
        "cache_stats": [
            event["cache_stats"]
            for event in orchestrator.read_events(events)
            if event.get("event") == "shard_finished" and event.get("cache_stats")
        ],
    }


def warm_pass(seed: int, cache_dir: Path, state_dir: Path, trace_out: Path | None) -> dict:
    """One warm pass; with ``trace_out`` it is traced and its spans are
    written there."""
    if trace_out is None:
        return run_pass(seed, cache_dir, state_dir)
    from tracing import Recorder, install

    recorder = Recorder()
    uninstall = install(recorder)
    try:
        result = run_pass(seed, cache_dir, state_dir, recorder.span)
    finally:
        uninstall()
    write_json(trace_out, recorder.export().to_json())
    return result


class WarmPasses:
    """Runs each warm pass in a process of its own, forked from a template.

    The template is forked at set-up, after the imports and before any
    pass, and forks one child per warm pass.  Each pass so starts from the
    state a new process has once its imports are done, without the cold
    pass's IR garbage, at the cost of a fork instead of an interpreter
    start (whose imports take about 0.55 s against a 0.08 s pass).  Forking
    is safe here: no Python thread runs in either, and OpenBLAS, whose
    worker thread the numpy import starts, stops its pool before a fork.
    """

    def __init__(self) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the template: never returns into the benchmark
            code = 1
            try:
                os.close(requests_w)
                os.close(replies_r)
                _serve_warm_passes(requests_r, replies_w)
                code = 0
            finally:
                os._exit(code)
        os.close(requests_r)
        os.close(replies_w)
        self._requests = os.fdopen(requests_w, "w")
        self._replies = os.fdopen(replies_r)

    def run(self, seed: int, cache_dir: Path, state_dir: Path,
            trace_out: Path | None = None) -> dict:
        request = [seed, str(cache_dir), str(state_dir), trace_out and str(trace_out)]
        self._requests.write(json.dumps(request) + "\n")
        self._requests.flush()
        line = self._replies.readline()
        if not line:
            raise RuntimeError("the warm-pass template process ended")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"warm pass failed: {reply['error']}")
        return reply

    def close(self) -> None:
        """End the template (it sees end-of-file) and wait for it."""
        for stream in (self._requests, self._replies):
            try:
                stream.close()
            except OSError:
                pass
        os.waitpid(self.pid, 0)


def _serve_warm_passes(requests_fd: int, replies_fd: int) -> None:
    with os.fdopen(requests_fd) as requests, os.fdopen(replies_fd, "w") as replies:
        for line in requests:
            seed, cache_dir, state_dir, trace_out = json.loads(line)
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # one warm pass
                code = 1
                try:
                    os.close(reply_r)
                    try:
                        reply = warm_pass(
                            seed, Path(cache_dir), Path(state_dir),
                            trace_out and Path(trace_out),
                        )
                    except Exception:  # noqa: BLE001 - handed to the benchmark
                        reply = {"error": traceback.format_exc()}
                    with os.fdopen(reply_w, "w") as handle:
                        handle.write(json.dumps(reply))
                    code = 0
                finally:
                    os._exit(code)
            os.close(reply_w)
            with os.fdopen(reply_r) as handle:
                if not select.select([handle], [], [], WARM_PASS_TIMEOUT_S)[0]:
                    os.kill(pid, signal.SIGKILL)
                text = handle.read()
            _, status = os.waitpid(pid, 0)
            if not text:
                text = json.dumps({"error": f"warm pass process ended with status {status}"})
            replies.write(text + "\n")
            replies.flush()


def reference_report(seed: int) -> str:
    """The sweep's deterministic report from an uncached in-process
    ``run_matrix`` — what every orchestrated pass must reproduce byte for byte."""
    from repro.evaluation.harness import EvaluationHarness
    from repro.evaluation.report import merge_results, results_to_json

    results = EvaluationHarness(repeats=1).run_matrix(cases=sweep_cases(seed))
    entries = json.loads(results_to_json(results, deterministic=True))
    return json.dumps(merge_results(entries), indent=2, sort_keys=True)


def run(seed: int, seconds: float, trace: bool, clock: Any) -> RunResult:
    from repro.evaluation import orchestrator  # noqa: F401 - import is set-up work

    out = RunResult()
    root = run_dir()
    forker = WarmPasses()
    try:
        clock.setup_done()
        _measure(seed, seconds, trace, root, forker, out)
    finally:
        forker.close()
    # Taken once the template has been waited for, so that the warm
    # passes' peaks count too.
    out.native["peak_rss_mb"] = out.end_to_end["peak_rss_mb"] = Metric(self_peak_rss_mb(), "MB")
    return out


def _measure(seed: int, seconds: float, trace: bool, root: Path, forker: WarmPasses,
             out: RunResult) -> None:
    passes: list[tuple[str, dict]] = []
    cold_walls: list[float] = []
    warm_walls: list[float] = []
    host = HostSpeed()
    cycle = 0

    def one_cycle(
        span: Any = None, trace_out: Path | None = None, warm_passes: int = WARM_PASSES
    ) -> tuple[dict, list[dict]]:
        nonlocal cycle
        cycle += 1
        base = root / f"cycle{cycle}"
        host.probe()
        cold = run_pass(seed, base / "cache", base / "cold", span)
        passes.append(("cold", cold))
        warms = []
        for index in range(warm_passes):
            warms.append(forker.run(seed, base / "cache", base / f"warm{index}", trace_out))
            host.probe()
        passes.extend(("warm", warm) for warm in warms)
        return cold, warms

    began = time.perf_counter()
    while not cold_walls or (not trace and time.perf_counter() - began < seconds):
        cold, warms = one_cycle()
        cold_walls.append(cold["wall_s"])
        warm_walls.extend(warm["wall_s"] for warm in warms)

    if trace:
        from tracing import Recorder, TraceData, cache_counters, install, layer_metrics

        recorder = Recorder()
        uninstall = install(recorder)
        try:
            cold, (warm,) = one_cycle(recorder.span, root / "warm-trace.json", 1)
        finally:
            uninstall()
        data = recorder.export()
        data.merge(TraceData.from_json(json.loads((root / "warm-trace.json").read_text())))
        counters = cache_counters(cold["cache_stats"] + warm["cache_stats"])
        # Shard workers never rescan the disk tier, so their CacheStats
        # carry no size; measure the cache directory the cycle filled.
        counters["core.compile_cache.disk_bytes"] = sum(
            path.stat().st_size
            for path in (root / f"cycle{cycle}" / "cache").rglob("*") if path.is_file()
        )
        out.trace = data
        out.per_layer = layer_metrics(
            data,
            wall_ms=(cold["wall_s"] + warm["wall_s"]) * 1000.0,
            untraced_wall_ms=(median(cold_walls) + median(warm_walls)) * 1000.0,
            extra=counters,
        )

    reference = reference_report(seed)
    for kind, result in passes:
        out.attempted += result["cases"]
        if result["code"] != 0:
            out.fail(f"{kind} pass: orchestrate exited {result['code']}")
        elif result["report"] != reference:
            got = json.loads(result["report"] or "[]")
            want = json.loads(reference)
            wrong = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
            for _ in range(max(wrong, 1)):
                out.fail(f"{kind} pass: merged report differs from uncached run_matrix")

    # The cold rate is over all cold passes (each several seconds long);
    # the warm figure is the median pass, which one slow pass cannot move.
    cases = passes[0][1]["cases"]
    warm_s = median(warm_walls)
    out.native = {
        "cases_per_s": Metric(cases * len(cold_walls) / sum(cold_walls), "1/s", len(cold_walls)),
        "warm_cases_per_s": Metric(cases / warm_s, "1/s", len(warm_walls)),
        "host_reference_ms": host.metric(),
    }
    out.end_to_end = {
        "throughput_per_s": host.rate(out.native["cases_per_s"]),
        "latency_ms": host.time(Metric(warm_s / cases * 1000.0, "ms", len(warm_walls))),
    }
