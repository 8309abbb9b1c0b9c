"""Compile-service concurrency battery: thundering herds, single-flight
coalescing, warm fast paths, admission control, error fan-out, and
kill-the-server-mid-stream fault tolerance.

Determinism notes: herd tests gate the compile on a :class:`threading.
Event` the test releases only after every client has joined, so "all N
requests coalesce onto one flight" is guaranteed, not a race the test
hopes to win.  The mid-stream kill test reuses the orchestrator's chaos
convention — the server SIGKILLs *itself* after N manifest appends — so
the interruption point is exact.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.compile_cache import CompileCache
from repro.evaluation.harness import ABLATION_VARIANTS, EvaluationHarness
from repro.fpga.device import ALVEO_U280
from repro.service import (
    RequestFailed,
    RequestRejected,
    ServiceClient,
    ServiceSaturated,
    ServiceThread,
    StreamInterrupted,
    parse_request,
    wait_for_service,
)

SPEC = {"kernel": "pw_advection", "size": "8M", "repeats": 1}
#: Baseline-only spec for the subprocess chaos test (cheap, two cases).
BASELINE_SPEC = {
    "kernel": "pw_advection",
    "size": "8M",
    "frameworks": ["DaCe", "Vitis HLS"],
    "repeats": 1,
}


def _gate_compile(service, gate, error=None):
    """Replace the service's compile step with one that waits for ``gate``
    (then optionally raises ``error`` instead of compiling)."""
    real = service._compile_sync

    def gated(*args, **kwargs):
        assert gate.wait(timeout=60), "test never released the compile gate"
        if error is not None:
            raise error
        return real(*args, **kwargs)

    service._compile_sync = gated
    return real


def _raw_stream(host, port, spec, connect_only=False, settle=None):
    """POST ``spec`` over a raw socket; return the response's raw lines.

    ``connect_only`` sends the request but defers reading (the slow-reader
    scenario); call the returned ``finish()`` later to drain the stream.
    """
    body = json.dumps(spec).encode()
    sock = socket.create_connection((host, port), timeout=120)
    sock.sendall(
        (
            f"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
            "\r\nConnection: close\r\n\r\n"
        ).encode()
        + body
    )

    def finish():
        stream = sock.makefile("rb")
        raw = stream.read()
        stream.close()
        sock.close()
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200"), head
        return payload.splitlines()

    if settle is not None:
        settle.set()
    if connect_only:
        return finish
    return finish()


def _wait_until(predicate, timeout=30, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(0.01)


class TestThunderingHerd:
    def test_herd_coalesces_to_one_compile_with_identical_streams(self, tmp_path):
        """The headline guarantee: N concurrent identical requests run
        exactly ONE compile (real CacheStats counters, not mocks) and
        every client streams a byte-identical result set."""
        herd = 8

        # Control: the same cases through a plain harness + fresh cache
        # establish how many cache misses exactly one cold compile costs.
        control_cache = CompileCache(tmp_path / "control")
        control = EvaluationHarness(device=ALVEO_U280, repeats=1, cache=control_cache)
        control.run_matrix(cases=parse_request(SPEC).cases())
        one_compile_misses = control_cache.stats.total_misses
        assert one_compile_misses > 0

        cache = CompileCache(tmp_path / "cache")
        with ServiceThread(cache=cache) as server:
            service = server.service
            gate = threading.Event()
            _gate_compile(service, gate)

            streams = [None] * herd
            def drive(i):
                streams[i] = _raw_stream("127.0.0.1", server.port, SPEC)

            threads = [threading.Thread(target=drive, args=(i,)) for i in range(herd)]
            for t in threads:
                t.start()
            # Every request joins the flight before the compile may run.
            _wait_until(lambda: service.stats.requests == herd, message="herd joined")
            gate.set()
            for t in threads:
                t.join(timeout=120)

            # Exactly one compile: one flight led, one dispatch, one
            # compiled case, and precisely one cold compile's worth of
            # real cache misses.
            assert service.table.led == 1
            assert service.table.coalesced == herd - 1
            assert service.stats.dispatched == 1
            assert service.stats.cases_compiled == 1
            assert cache.stats.total_misses == one_compile_misses
            assert len(service.table) == 0

            # Byte-identical result sets.  The preamble legitimately
            # differs (exactly one client is the non-coalesced leader);
            # everything after it must match to the byte.
            preambles = [json.loads(lines[0]) for lines in streams]
            assert sorted(p["coalesced"] for p in preambles) == [False] + [True] * (herd - 1)
            assert len({p["digest"] for p in preambles}) == 1
            tails = {b"\n".join(lines[1:]) for lines in streams}
            assert len(tails) == 1
            final = json.loads(streams[0][-1])
            assert final["event"] == "request_complete" and final["ok"]

            # A second herd is pure warm fast path: zero new misses.
            before = (cache.stats.total_misses, service.stats.dispatched)
            again = ServiceClient("127.0.0.1", server.port).compile(SPEC)
            assert again["accepted"]["warm"] is True
            assert (cache.stats.total_misses, service.stats.dispatched) == before
            assert again["complete"]["results"] == final["results"]

    def test_distinct_specs_are_not_coalesced(self, tmp_path):
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            client = ServiceClient("127.0.0.1", server.port)
            a = client.compile(SPEC)
            b = client.compile({**SPEC, "variants": ["no-pack"]})
            assert a["accepted"]["digest"] != b["accepted"]["digest"]
            assert server.service.table.led == 2
            assert server.service.table.coalesced == 0
            assert server.service.stats.cases_compiled == 2

    def test_slow_reader_does_not_stall_other_waiters(self, tmp_path):
        """A coalesced client that never reads must not hold up the herd:
        each connection drains its own queue at its own pace."""
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            service = server.service
            gate = threading.Event()
            _gate_compile(service, gate)
            sent = threading.Event()
            slow_finish = {}

            def slow():
                slow_finish["fn"] = _raw_stream(
                    "127.0.0.1", server.port, SPEC, connect_only=True, settle=sent
                )

            slow_thread = threading.Thread(target=slow)
            slow_thread.start()
            assert sent.wait(timeout=30)
            _wait_until(lambda: service.stats.requests == 1, message="slow client joined")

            fast_lines = {}
            fast_thread = threading.Thread(
                target=lambda: fast_lines.update(
                    lines=_raw_stream("127.0.0.1", server.port, SPEC)
                )
            )
            fast_thread.start()
            _wait_until(lambda: service.stats.requests == 2, message="fast client joined")
            gate.set()
            fast_thread.join(timeout=120)  # completes while slow never read
            assert not fast_thread.is_alive()
            assert json.loads(fast_lines["lines"][-1])["event"] == "request_complete"

            slow_thread.join(timeout=10)
            slow_lines = slow_finish["fn"]()  # now drain the slow stream
            assert slow_lines[1:] == fast_lines["lines"][1:]


class TestWarmFastPath:
    def test_warm_requests_never_touch_the_compile_executor(self, tmp_path):
        """Cache-warm requests are served on the event loop: enqueueing
        *anything* on the compile pool after warm-up fails the test."""
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            cold = ServiceClient("127.0.0.1", server.port).compile(SPEC)

        class NoDispatch:
            def submit(self, *args, **kwargs):
                raise AssertionError("warm request reached the compile executor")

        # A *fresh* service over the same cache directory: no in-memory
        # memo, no manifest — warmth must come from the cache tiers, and
        # the executor is rigged to fail the test if touched at all.
        cache = CompileCache(tmp_path / "cache")
        with ServiceThread(cache=cache) as server:
            server.service._compile_pool = NoDispatch()
            warm = ServiceClient("127.0.0.1", server.port).compile(SPEC)
            assert warm["accepted"]["warm"] is True
            assert warm["accepted"]["coalesced"] is False
            # Presence came from the restore-free probe, results from get().
            assert cache.stats.probes > 0
            assert warm["complete"]["results"] == cold["complete"]["results"]
            assert [e["source"] for e in warm["events"]] == ["cache"]
            assert server.service.stats.dispatched == 0

    def test_cache_entry_that_is_not_a_result_is_compiled_again(self, tmp_path):
        """A cache entry that decodes as JSON but is not a result dict is
        not served warm: a fresh service compiles the case again, answers
        with the cold result and overwrites the entry."""
        spec = {"kernel": "pw_advection", "size": "8M", "frameworks": ["Vitis HLS"],
                "repeats": 1}
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            cold = ServiceClient("127.0.0.1", server.port).compile(spec)
        (entry,) = (tmp_path / "cache").rglob("*.json")
        for payload in (b"[]", b"{}", b"5"):
            entry.write_bytes(payload)
            with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
                again = ServiceClient("127.0.0.1", server.port).compile(spec)
                assert again["accepted"]["warm"] is False, payload
                assert [e["source"] for e in again["events"]] == ["compile"], payload
                assert server.service.stats.cases_compiled == 1, payload
            assert again["complete"]["results"] == cold["complete"]["results"], payload
            assert json.loads(entry.read_bytes())["framework"] == "Vitis HLS", payload

    def test_stats_and_health_endpoints(self, tmp_path):
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            client = ServiceClient("127.0.0.1", server.port)
            assert client.healthz() is True
            client.compile(SPEC)
            stats = client.stats()
            assert stats["service"]["requests"] == 1
            assert stats["singleflight"] == {"led": 1, "coalesced": 0, "inflight": 0}
            assert stats["cache"]["misses"] > 0
            # No state dir: the manifest memo is in-memory only.
            assert stats["manifest_entries"] == 1

    def test_bad_requests_are_rejected_not_crashed(self, tmp_path):
        with ServiceThread() as server:
            client = ServiceClient("127.0.0.1", server.port)
            with pytest.raises(RequestRejected) as exc:
                client.compile({"kernel": "pw_advection", "size": "8M", "bogus": 1})
            assert exc.value.status == 400 and "bogus" in str(exc.value)
            with pytest.raises(RequestRejected) as exc:
                client.compile({"size": "8M"})
            assert "kernel" in str(exc.value)
            with pytest.raises(RequestRejected) as exc:
                client._json_request("GET", "/nope")
            assert exc.value.status == 404
            # Malformed JSON body → 400, not a wedged connection.
            status, _, stream = client._request("POST", "/compile", b"{nope")
            stream.close()
            assert status == 400
            assert client.healthz() is True  # still serving


class TestAdmissionControl:
    def test_saturation_sheds_with_retry_after_but_still_coalesces(self, tmp_path):
        """Past ``max_inflight`` the server sheds NEW work with 429 +
        Retry-After — but a request identical to one already in flight
        coalesces instead of being shed (it costs no compile)."""
        with ServiceThread(
            cache=CompileCache(tmp_path / "cache"), max_inflight=1, retry_after=0.05
        ) as server:
            service = server.service
            gate = threading.Event()
            _gate_compile(service, gate)
            client = ServiceClient("127.0.0.1", server.port)

            first = {}
            leader = threading.Thread(
                target=lambda: first.update(out=client.compile(SPEC))
            )
            leader.start()
            _wait_until(lambda: service.stats.dispatched == 1, message="leader dispatched")

            distinct = {**SPEC, "variants": ["no-pack"]}
            with pytest.raises(ServiceSaturated) as exc:
                client.compile(distinct)
            assert exc.value.retry_after == pytest.approx(0.05)
            assert service.stats.shed == 1

            # Identical request: coalesced onto the gated flight, not shed.
            rider = {}
            rider_thread = threading.Thread(
                target=lambda: rider.update(out=client.compile(SPEC))
            )
            rider_thread.start()
            _wait_until(lambda: service.table.coalesced == 1, message="rider coalesced")
            assert service.stats.shed == 1  # unchanged

            gate.set()
            leader.join(timeout=120)
            rider_thread.join(timeout=120)
            assert first["out"]["complete"]["results"] == rider["out"]["complete"]["results"]

            # The shed spec succeeds once capacity frees up — the client's
            # reference retry loop honours Retry-After.
            out = client.compile_with_retry(distinct, attempts=50)
            assert out["complete"]["ok"] is True
            # The abandoned flight never poisoned the table.
            assert len(service.table) == 0


class TestFaultTolerance:
    def test_compile_error_fans_out_to_every_waiter_without_wedging(self, tmp_path):
        """A compile exception becomes a structured ``request_failed``
        event for ALL coalesced waiters, the in-flight table drains, and
        the next identical request starts a fresh (working) flight."""
        with ServiceThread(cache=CompileCache(tmp_path / "cache")) as server:
            service = server.service
            gate = threading.Event()
            real = _gate_compile(
                service, gate, error=RuntimeError("injected compile failure")
            )

            failures = []
            def drive():
                try:
                    ServiceClient("127.0.0.1", server.port).compile(SPEC)
                except RequestFailed as err:
                    failures.append(str(err))

            threads = [threading.Thread(target=drive) for _ in range(4)]
            for t in threads:
                t.start()
            _wait_until(lambda: service.stats.requests == 4, message="waiters joined")
            gate.set()
            for t in threads:
                t.join(timeout=60)

            assert len(failures) == 4
            assert all("injected compile failure" in msg for msg in failures)
            assert service.stats.failed_flights == 1  # one flight, N waiters
            assert len(service.table) == 0  # never wedged

            # Recovery: the table accepted a fresh flight and it works.
            service._compile_sync = real
            out = ServiceClient("127.0.0.1", server.port).compile(SPEC)
            assert out["complete"]["ok"] is True

    def test_manifest_resume_in_process(self, tmp_path):
        """Restarting the service over the same state dir serves previous
        work warm from the manifest — even with NO compile cache at all."""
        state = tmp_path / "state"
        with ServiceThread(state_dir=state) as server:
            first = ServiceClient("127.0.0.1", server.port).compile(SPEC)
            assert server.service.stats.cases_compiled == 1
        with ServiceThread(state_dir=state) as server:
            assert server.service.manifest_entries == 1
            again = ServiceClient("127.0.0.1", server.port).compile(SPEC)
            assert again["accepted"]["warm"] is True
            assert server.service.stats.dispatched == 0
            assert server.service.stats.cases_compiled == 0
            assert [e["source"] for e in again["events"]] == ["manifest"]
            assert again["complete"]["results"] == first["complete"]["results"]


class TestKillTheServer:
    """The acceptance scenario: SIGKILL the served process mid-stream; a
    reconnecting client resumes from the manifest with zero recompiles of
    the completed cases and a byte-identical final result set."""

    def _spawn(self, tmp_path, *extra, log=subprocess.PIPE):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        port_file = tmp_path / f"port-{len(list(tmp_path.glob('port-*')))}"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.server",
                "--port", "0", "--port-file", str(port_file),
                "--state-dir", str(tmp_path / "state"),
                "--cache-dir", str(tmp_path / "cache"),
                *extra,
            ],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        _wait_until(
            lambda: port_file.exists() and port_file.read_text().strip(),
            timeout=60, message="server port file",
        )
        port = int(port_file.read_text().strip())
        return proc, wait_for_service("127.0.0.1", port, timeout=60)

    def test_kill_mid_stream_then_reconnect_resumes_without_recompiling(self, tmp_path):
        proc, client = self._spawn(tmp_path, "--chaos-kill-after", "1")
        try:
            with pytest.raises((StreamInterrupted, ConnectionError, OSError)):
                client.compile(BASELINE_SPEC)
            assert proc.wait(timeout=60) == -9  # really SIGKILLed
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()

        # One case made it into the manifest before the kill.
        manifest = (tmp_path / "state" / "manifest-service.jsonl").read_text()
        assert len(manifest.strip().splitlines()) == 1

        proc, client = self._spawn(tmp_path)
        try:
            out = client.compile_with_retry(BASELINE_SPEC)
            assert out["complete"]["ok"] is True
            sources = sorted(e["source"] for e in out["events"])
            # The manifested case streamed back without recompiling; only
            # the case the kill interrupted may have actually run.
            assert "manifest" in sources
            assert sum(s == "compile" for s in sources) <= 1
            stats = client.stats()
            assert stats["service"]["cases_compiled"] <= 1

            # And a third, fully-warm request: byte-identical final result
            # set, zero dispatches on top of the resumed run.
            warm = client.compile(BASELINE_SPEC)
            assert warm["accepted"]["warm"] is True
            assert json.dumps(warm["complete"]["results"], sort_keys=True) == json.dumps(
                out["complete"]["results"], sort_keys=True
            )
            assert client.stats()["service"]["dispatched"] == stats["service"]["dispatched"]
        finally:
            proc.kill()
            proc.wait(timeout=30)

    def test_sigterm_trims_the_cache_to_its_budget(self, tmp_path):
        """``--cache-max-bytes`` evicts when the server shuts down."""
        proc, client = self._spawn(tmp_path, "--cache-max-bytes", "0")
        try:
            assert client.compile(BASELINE_SPEC)["complete"]["ok"] is True
            assert list((tmp_path / "cache").rglob("*.json"))  # the run stored entries
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_sigterm_mid_compile_still_trims_the_cache(self, tmp_path):
        """A compile still running at SIGTERM stores its result after the
        loop has stopped; the server trims only once that compile is done,
        so ``--cache-max-bytes 0`` leaves no entry behind."""
        spec = {
            "kernel": "tracer_advection",
            "size": "8M",
            "variants": list(ABLATION_VARIANTS[:7]),
        }
        manifest = tmp_path / "state" / "manifest-service.jsonl"
        proc, client = self._spawn(tmp_path, "--cache-max-bytes", "0")

        def stream() -> None:
            try:
                client.compile(spec)
            except (StreamInterrupted, ConnectionError, OSError):
                pass  # the server goes away mid-stream

        streamer = threading.Thread(target=stream, daemon=True)
        try:
            streamer.start()
            # The first case is done and the next one is compiling.
            _wait_until(
                lambda: manifest.exists() and manifest.read_text().strip(),
                timeout=60, message="first manifested case",
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)
            streamer.join(timeout=30)
        assert len(manifest.read_text().strip().splitlines()) < len(spec["variants"])
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_sigterm_mid_compile_logs_every_abandoned_case(self, tmp_path):
        """SIGTERM while a flight compiles: the flight finishes and
        manifests the case it is running, starts no other, and names every
        case it abandons in the server's log; the process exits 0."""
        variants = list(ABLATION_VARIANTS[:7])
        spec = {"kernel": "tracer_advection", "size": "8M", "variants": variants}
        manifest = tmp_path / "state" / "manifest-service.jsonl"
        log_path = tmp_path / "serve.log"
        with log_path.open("wb") as log:
            proc, client = self._spawn(tmp_path, log=log)

            def stream() -> None:
                try:
                    client.compile(spec)
                except (StreamInterrupted, ConnectionError, OSError):
                    pass  # the server goes away mid-stream

            streamer = threading.Thread(target=stream, daemon=True)
            try:
                streamer.start()
                _wait_until(
                    lambda: manifest.exists() and manifest.read_text().strip(),
                    timeout=60, message="first manifested case",
                )
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup on failure
                    proc.kill()
                    proc.wait(timeout=30)
                streamer.join(timeout=30)
        manifested = [
            json.loads(line)["case"]["variant"] for line in manifest.read_text().splitlines()
        ]
        prefix = "shmls-serve: abandoned at shutdown: "
        named = [
            json.loads(line[len(prefix):])
            for line in log_path.read_text().splitlines()
            if line.startswith(prefix)
        ]
        assert all(
            (case["kernel"], case["size"], case["framework"])
            == ("tracer_advection", "8M", "Stencil-HMLS")
            for case in named
        )
        abandoned = [case["variant"] for case in named]
        assert len(manifested) < len(variants)
        assert len(manifested) + len(abandoned) == len(variants)
        assert sorted(manifested + abandoned) == sorted(variants)
