"""served-mix: ``shmls-serve`` under a seeded open-loop request mix.

The server runs with its default settings in its own process, with a fresh
cache and state directory.  Set-up computes every request's expected
results with an uncached in-process harness while a fixed request set warms
the server.  The timed phase then sends a seeded schedule at a fixed rate
over at most two connections: mostly warm repeats of that set, plus a few
distinct cold specs, one per kernel, whose wave-pipelining depth is drawn
from the seed; the PW one is sent twice back to back, so the second joins
the first's flight.  Latency runs from each request's due time to its
last streamed event, so a stall also delays the requests queued behind it.
A short fixed-rate ladder follows; its highest rate whose tail latency
meets :data:`SLO_MS` without a growing backlog is ``max_rps_within_slo``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from common import (
    Metric,
    RunResult,
    child_env,
    median,
    percentile,
    tail_percentile,
    pid_peak_rss_mb,
    run_dir,
    self_peak_rss_mb,
)

_ALL_FRAMEWORKS = ["Stencil-HMLS", "DaCe", "SODA-opt", "Vitis HLS", "StencilFlow"]
#: The fixed request set set-up warms; warm repeats draw from it.
WARM_SET: tuple[dict[str, Any], ...] = (
    {"kernel": "pw_advection", "size": "8M"},
    {"kernel": "tracer_advection", "size": "8M"},
    {"kernel": "pw_advection", "sizes": ["8M", "32M", "134M"], "frameworks": _ALL_FRAMEWORKS},
    {"kernel": "tracer_advection", "sizes": ["8M", "33M"], "frameworks": _ALL_FRAMEWORKS},
    {"kernel": "pw_advection", "size": "8M", "variants": ["staged", "ii-2", "depth-8"]},
    {"kernel": "tracer_advection", "size": "8M", "variants": ["staged", "single-bundle-staged"]},
)
#: Offered load of the main schedule and the share of ``--seconds`` it
#: takes; at 20 s that is over 1000 requests, so ten lie beyond the p99.
#: A long main schedule keeps the share of requests a single pause delays
#: small, which is what moves the median between runs.
BASE_RATE = 70.0
BASE_SHARE = 0.75
#: The main schedule's cold specs: one per kernel at seeded positions, the
#: PW one sent twice back to back.  A duplicated tracer spec would hold both
#: connections for a whole tracer compile; drawing which kernel to duplicate
#: made the median latency bimodal across seeds.
COLD_KERNELS = ("pw_advection", "tracer_advection")
DUPLICATED_KERNEL = "pw_advection"
#: The ladder doubles the rate from LADDER_START until a rung fails (or
#: LADDER_MAX passes), then bisects between the last pass and the first
#: failure BISECT times.  Each rung is warm repeats plus one cold PW spec,
#: so the compile thread takes part without a tracer compile alone
#: breaking the limit.
LADDER_START = 100.0
LADDER_MAX = 1600.0
BISECT = 3
LADDER_RUNGS = 5 + BISECT
#: Latency limit on a rung's tail: its p99, or for rungs too short to have
#: ten requests beyond the p99, the highest percentile that does.  It sits
#: above the server's garbage-collection pauses; a rung also fails when the
#: generator ends it further behind schedule than the limit, which is what
#: a growing backlog does.
SLO_MS = 500.0
CONNECTIONS = 2
#: Set-up sends the warm set this often: once to compile, then warm.
WARM_ROUNDS = 3


@dataclass
class Request:
    due: float                      #: seconds after the phase starts
    spec: dict[str, Any]
    cold: bool
    sent: float = 0.0
    done: float = 0.0
    error: str = ""


@dataclass
class Phase:
    requests: list[Request]
    start: float = 0.0

    @property
    def failed(self) -> list[Request]:
        return [r for r in self.requests if r.error]

    def latency_ms(self) -> list[float]:
        """Per-request latency from due time; failures miss every limit."""
        return [
            float("inf") if r.error else (r.done - self.start - r.due) * 1000.0
            for r in self.requests
        ]

    def late_ms(self) -> list[float]:
        return [max(0.0, (r.sent - self.start - r.due) * 1000.0) for r in self.requests]


def _spec_key(spec: dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def _cold_spec(kernel: str, depth: int) -> dict[str, Any]:
    from repro.evaluation.harness import staged_variant

    return {
        "kernel": kernel,
        "size": "8M",
        "variants": [staged_variant("stencil-wave-pipelining", depth=depth)],
    }


class Schedule:
    """Every request the run sends, derived from the seed alone."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.rng = random.Random(seed)
        self._round: list[dict[str, Any]] = []
        depths = iter(self.rng.sample(range(100, 5000), len(COLD_KERNELS) + LADDER_RUNGS))
        count = int(BASE_RATE * seconds * BASE_SHARE)
        cold = dict(zip(self.rng.sample(range(count), len(COLD_KERNELS)), COLD_KERNELS))
        self.base: list[Request] = []
        for index in range(count):
            due = index / BASE_RATE
            if index in cold:
                spec = _cold_spec(cold[index], next(depths))
                copies = 2 if cold[index] == DUPLICATED_KERNEL else 1
                self.base.extend(Request(due, spec, True) for _ in range(copies))
            else:
                self.base.append(Request(due, self.warm(), False))
        self.rung_seconds = seconds * (1.0 - BASE_SHARE) / LADDER_RUNGS
        self.rung_colds = [_cold_spec("pw_advection", next(depths)) for _ in range(LADDER_RUNGS)]

    def warm(self) -> dict[str, Any]:
        """The next warm repeat: every spec of the set once per round, in a
        seeded order, so the mix (whose requests differ several-fold in
        latency) is the same whatever the seed."""
        if not self._round:
            self._round = list(WARM_SET)
            self.rng.shuffle(self._round)
        return self._round.pop()

    def specs(self) -> list[dict[str, Any]]:
        specs: dict[str, dict[str, Any]] = {}
        for spec in [*WARM_SET, *(r.spec for r in self.base), *self.rung_colds]:
            specs.setdefault(_spec_key(spec), spec)
        return list(specs.values())

    def rung(self, rate: float) -> list[Request]:
        count = max(int(rate * self.rung_seconds), 4)
        cold = self.rng.randrange(count)
        spec = self.rung_colds.pop()
        return [
            Request(index / rate, spec, True) if index == cold
            else Request(index / rate, self.warm(), False)
            for index in range(count)
        ]


class Expected:
    """Every request's expected results, from an uncached in-process harness."""

    def __init__(self, specs: list[dict[str, Any]]) -> None:
        from repro.evaluation.harness import FRAMEWORKS_BY_NAME, EvaluationHarness
        from repro.evaluation.report import merge_results, results_to_json
        from repro.service.spec import parse_request

        harness = EvaluationHarness(repeats=1)
        self.by_digest: dict[str, Any] = {}
        self.complete: dict[str, Any] = {}
        for spec in specs:
            parsed = parse_request(spec)
            entries = []
            for case in parsed.cases():
                digest = harness.result_key(case).digest("result")
                if digest not in self.by_digest:
                    result = harness.run_case(FRAMEWORKS_BY_NAME[case.framework], case)
                    self.by_digest[digest] = json.loads(
                        results_to_json([result], deterministic=True)
                    )[0]
                entries.append(self.by_digest[digest])
            self.complete[_spec_key(spec)] = merge_results(entries)

    def check(self, spec: dict[str, Any], events: list[dict[str, Any]]) -> str:
        """Empty when the stream matches; otherwise what went wrong."""
        complete = None
        for event in events:
            kind = event.get("event")
            if kind == "case_result":
                if event.get("result") != self.by_digest.get(event.get("digest")):
                    return f"case {event.get('label')} differs from the reference"
            elif kind == "request_complete":
                complete = event
            elif kind == "request_failed":
                return f"request_failed: {event.get('error')}"
        if complete is None:
            return "no request_complete event"
        if complete.get("results") != self.complete[_spec_key(spec)]:
            return "request_complete results differ from the reference"
        return ""


def send_phase(port: int, phase: Phase, expected: Expected) -> None:
    """Send ``phase`` open-loop over :data:`CONNECTIONS` sender threads."""
    from repro.service.client import ServiceClient, ServiceError

    lock = threading.Lock()
    cursor = iter(phase.requests)

    def sender() -> None:
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            delay = phase.start + request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.sent = time.perf_counter()
            try:
                events = list(client.compile_events(request.spec))
                request.done = time.perf_counter()
                request.error = expected.check(request.spec, events)
            except (ServiceError, OSError, ValueError) as err:
                request.done = time.perf_counter()
                request.error = f"{type(err).__name__}: {err}"

    phase.start = time.perf_counter() + 0.05
    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Server:
    """One ``shmls-serve`` process with a fresh cache and state directory."""

    def __init__(self, workdir: Path, trace_out: Path | None = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        port_file = workdir / "port"
        port_file.unlink(missing_ok=True)
        args = [
            "--port", "0", "--port-file", str(port_file),
            "--state-dir", str(workdir / "state"), "--cache-dir", str(workdir / "cache"),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service.server", *args]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                "--trace-out", str(trace_out), "--", *args,
            ]
        self.log = (workdir / "server.log").open("w")
        self.proc = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT, env=child_env()
        )
        # Server and load generator each get a core of their own when there
        # are two: left to the scheduler, they sometimes share one, which
        # moved the median latency by a third between identical runs.
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(self.proc.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"shmls-serve did not start; see {workdir / 'server.log'}")
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def stats(self) -> dict[str, Any]:
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=30.0).stats()

    def stop(self) -> float | None:
        """Stop the server; returns its peak resident memory in MB."""
        peak = pid_peak_rss_mb(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return peak


def _warm(port: int, results: list) -> None:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient("127.0.0.1", port, timeout=120.0)
    for spec in WARM_SET * WARM_ROUNDS:
        try:
            results.append((spec, list(client.compile_events(spec)), ""))
        except (ServiceError, OSError, ValueError) as err:
            results.append((spec, [], f"{type(err).__name__}: {err}"))


def _stats_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    stages = {}
    for stage, counts in after["cache"]["stages"].items():
        old = before["cache"]["stages"].get(stage, {})
        stages[stage] = {key: value - old.get(key, 0) for key, value in counts.items()}
    return {
        "cache": {"stages": stages, "disk_bytes": after["cache"]["disk_bytes"]},
        "service": {
            key: after["service"][key] - before["service"][key] for key in after["service"]
        },
        "singleflight": {
            key: after["singleflight"][key] - before["singleflight"][key]
            for key in ("led", "coalesced")
        },
    }


def serve_session(
    seed: int, seconds: float, workdir: Path, out: RunResult, clock: Any,
    *, ladder: bool, trace_out: Path | None = None,
) -> dict[str, Any]:
    """Set up a server, run the main schedule (and the ladder), stop it."""
    schedule = Schedule(seed, seconds)
    server = Server(workdir, trace_out)
    try:
        warmed: list = []
        warmer = threading.Thread(target=_warm, args=(server.port, warmed))
        warmer.start()
        expected = Expected(schedule.specs())
        warmer.join()
        for spec, events, error in warmed:
            out.attempted += 1
            problem = error or expected.check(spec, events)
            if problem:
                out.fail(f"warm-up {_spec_key(spec)}: {problem}")
        before = server.stats()
        # The load generator's own collections would show up as server
        # latency; set-up garbage goes, and what is left is frozen.
        gc.collect()
        gc.freeze()
        if trace_out is not None:
            os.kill(server.proc.pid, signal.SIGUSR1)
        clock.setup_done()

        main = Phase(schedule.base)
        send_phase(server.port, main, expected)
        after = server.stats()
        phases = [main]
        passed: list[tuple[float, float]] = []

        def probe(rate: float) -> bool:
            phase = Phase(schedule.rung(rate))
            send_phase(server.port, phase, expected)
            phases.append(phase)
            late = phase.late_ms()
            if (tail_percentile(phase.latency_ms()) > SLO_MS
                    or median(late[len(late) * 3 // 4:]) > SLO_MS):
                return False
            finished = max(r.done for r in phase.requests) - phase.start
            passed.append((rate, len(phase.requests) / finished))
            return True

        if ladder:
            low, high = 0.0, LADDER_START
            while high <= LADDER_MAX and probe(high):
                low, high = high, high * 2
            if high <= LADDER_MAX and low:
                for _ in range(BISECT):
                    middle = (low * high) ** 0.5
                    if probe(middle):
                        low = middle
                    else:
                        high = middle
    finally:
        peak = server.stop()
    for phase in phases:
        out.attempted += len(phase.requests)
        for request in phase.failed:
            out.fail(f"{_spec_key(request.spec)}: {request.error}")
    return {
        "main": main,
        "window": (main.start, max(r.done for r in main.requests)),
        "passed": passed,
        "delta": _stats_delta(before, after),
        "peak_rss_mb": peak,
    }


def run(seed: int, seconds: float, trace: bool, clock: Any) -> RunResult:
    out = RunResult()
    root = run_dir()
    if not trace:
        session = serve_session(seed, seconds, root / "server", out, clock, ladder=True)
    else:
        from tracing import TraceData, cache_counters, layer_metrics

        half = seconds / 2
        session = serve_session(seed, half, root / "server", out, clock, ladder=False)
        trace_file = root / "server-trace.json"
        traced = serve_session(
            seed, half, root / "traced", out, clock, ladder=False, trace_out=trace_file
        )
        data = TraceData.from_json(json.loads(trace_file.read_text()))
        start, end = traced["window"]
        rows = [row for row in data.rows if row[2] >= start]
        threads = {row[3] for row in rows}
        compile_threads = {row[3] for row in rows if row[0] == "evaluation.harness.self_ms"}
        busy = sum(row[1] for row in rows if row[3] in compile_threads)
        delta = traced["delta"]
        requests = delta["service"]["requests"]
        extra = cache_counters([delta["cache"]])
        extra.update({
            "service.warm_ratio": delta["service"]["warm_requests"] / requests if requests else 0.0,
            "service.led": delta["singleflight"]["led"],
            "service.coalesced": delta["singleflight"]["coalesced"],
            "service.shed": delta["service"]["shed"],
            "service.compile_busy_share": busy / (end - start),
            "loadgen.late_ms_max": max(traced["main"].late_ms()),
        })
        # Overhead on the warm path: the same schedule's median latency
        # with and without spans (a sum would be dominated by pauses).
        untraced_p50 = median(session["main"].latency_ms())
        traced_p50 = median(traced["main"].latency_ms())
        wall_ms = (end - start) * 1000.0 * max(1, len(threads))
        out.trace = data
        out.per_layer = layer_metrics(
            data,
            wall_ms=wall_ms,
            untraced_wall_ms=wall_ms * untraced_p50 / traced_p50,
            window_start=start,
            extra=extra,
        )

    main: Phase = session["main"]
    latencies = main.latency_ms()
    delta = session["delta"]
    requests = delta["service"]["requests"]
    passed = session["passed"]
    answered = [r for r in main.requests if not r.error]
    finished = max(r.done for r in main.requests) - main.start
    out.native = {
        "goodput_per_s": Metric(len(answered) / finished, "1/s", len(answered)),
        "request_ms_p50": Metric(median(latencies), "ms", len(latencies)),
        "request_ms_p99": Metric(percentile(latencies, 99), "ms", len(latencies)),
        "peak_rss_mb": Metric(session["peak_rss_mb"] or self_peak_rss_mb(), "MB"),
    }
    if not trace:
        best = max(passed, default=(0.0, 0.0))
        out.native["max_rps_within_slo"] = Metric(best[1], "1/s", len(passed))
    out.notes["server"] = {
        "requests": requests,
        "warm_requests": delta["service"]["warm_requests"],
        "coalesced": delta["singleflight"]["coalesced"],
        "shed": delta["service"]["shed"],
        "generator_late_ms_max": round(max(main.late_ms()), 3),
        "ladder_passed": [round(rate, 1) for rate, _ in passed],
        "slo_ms": SLO_MS,
    }
    out.end_to_end = {
        "throughput_per_s": out.native["goodput_per_s"],
        "latency_ms": out.native["request_ms_p50"],
        "peak_rss_mb": out.native["peak_rss_mb"],
    }
    return out
