"""The asyncio HTTP + JSONL-streaming compile service (``shmls-serve``).

One long-lived process turns the batch evaluation harness into a front
door that can face many concurrent clients:

* **Canonical addressing** — every POSTed request spec is canonicalised
  (:func:`~repro.service.spec.parse_request`) and content-addressed by
  the result-stage cache-key digests of its expanded cases
  (:func:`~repro.service.spec.request_digest`).
* **Warm fast path** — a request whose every case is already in the
  resumability manifest or the tiered
  :class:`~repro.core.compile_cache.CompileCache` (local disk *and* the
  ``--remote-cache-dir`` network tier; presence established by the
  restore-free :meth:`~repro.core.compile_cache.CompileCache.probe`) is
  answered entirely on the event loop — no compile executor, no flight.
* **Single-flight** — identical in-flight requests coalesce onto one
  :class:`~repro.service.singleflight.Flight`: one compile runs, its
  event stream fans out to every waiter byte-identically.
* **Admission control** — at most ``max_inflight`` flights may be
  queued/running; beyond that the server sheds with ``429`` and a
  ``Retry-After`` header instead of building an unbounded backlog.
* **Streaming** — results stream as JSONL *as cases land*, bridged off
  :meth:`EvaluationHarness.run_matrix(on_result=…)
  <repro.evaluation.harness.EvaluationHarness.run_matrix>` running on a
  compile-executor thread via ``loop.call_soon_threadsafe``.
* **Resumability** — every completed case is appended to
  ``state_dir/manifest-service.jsonl``
  (:class:`~repro.evaluation.manifest.Manifest`, the orchestrator's
  format); a restarted server reloads every manifest in its state dir,
  so a client reconnecting after a mid-stream kill gets the
  already-completed cases back with zero recompiles.

Protocol (see ``docs/service.md``):

* ``POST /compile`` — request spec JSON in, ``application/x-ndjson``
  event stream out (``request_accepted``, ``case_result`` per case,
  terminal ``request_complete``/``request_failed``).
* ``GET /stats`` — requests/coalescing/shed counters, cache stats,
  manifest size, in-flight table state.
* ``GET /healthz`` — liveness.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.compile_cache import CacheKey, CompileCache, add_cache_arguments, cache_from_args
from repro.evaluation.harness import BenchmarkCase, EvaluationHarness
from repro.evaluation.manifest import Manifest, load_manifest, manifest_path
from repro.evaluation.metrics import FrameworkResult
from repro.evaluation.report import deterministic_entry, merge_results
from repro.fpga.device import device_by_name
from repro.service.singleflight import Flight, SingleFlightTable
from repro.service.spec import RequestSpec, RequestSpecError, parse_request, request_digest

#: Hard caps keeping one hostile/broken client from exhausting the loop.
_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024


@dataclass
class ServiceStats:
    """Lifetime request counters (the /stats payload's service section)."""

    requests: int = 0
    #: Requests answered entirely from manifest/cache on the event loop.
    warm_requests: int = 0
    #: Flights actually dispatched to the compile executor.
    dispatched: int = 0
    #: Requests answered 429 because the in-flight table was saturated.
    shed: int = 0
    #: Flights that finished with an error event.
    failed_flights: int = 0
    bad_requests: int = 0
    cases_streamed: int = 0
    cases_compiled: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "warm_requests": self.warm_requests,
            "dispatched": self.dispatched,
            "shed": self.shed,
            "failed_flights": self.failed_flights,
            "bad_requests": self.bad_requests,
            "cases_streamed": self.cases_streamed,
            "cases_compiled": self.cases_compiled,
        }


class CompileService:
    """The front-door service object (one per process).

    Separate from the socket layer so tests can drive request handling
    in-process; :meth:`start`/:meth:`stop` manage the listening socket.
    """

    def __init__(
        self,
        *,
        cache: CompileCache | None = None,
        state_dir: str | Path | None = None,
        max_inflight: int = 4,
        compile_threads: int = 1,
        retry_after: float = 1.0,
        chaos_kill_after: int | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if compile_threads < 1:
            raise ValueError(f"compile_threads must be >= 1, got {compile_threads}")
        self.cache = cache
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.max_inflight = max_inflight
        self.compile_threads = compile_threads
        self.retry_after = retry_after

        self.table = SingleFlightTable()
        self.stats = ServiceStats()
        self.started_at = time.monotonic()
        self._inflight = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        from concurrent.futures import ThreadPoolExecutor

        self._compile_pool = ThreadPoolExecutor(
            max_workers=compile_threads, thread_name_prefix="shmls-compile"
        )
        #: Per-(device, repeats) harnesses sharing one cache and one
        #: kernel-module memo namespace each; created lazily.
        self._harnesses: dict[tuple[str, int], EvaluationHarness] = {}
        # Fault injection (tests/CI): ``chaos_kill_after`` SIGKILLs this
        # process after N lifetime manifest appends — a deterministic
        # mid-stream kill.
        self.manifest = Manifest(
            None if state_dir is None else manifest_path(state_dir, "service"),
            None if state_dir is None else load_manifest(state_dir),
            chaos_kill_after=chaos_kill_after,
        )

    # -- wiring ---------------------------------------------------------------

    def harness_for(self, spec: RequestSpec) -> EvaluationHarness:
        key = (spec.device, spec.repeats)
        harness = self._harnesses.get(key)
        if harness is None:
            harness = EvaluationHarness(
                device=device_by_name(spec.device),
                repeats=spec.repeats,
                cache=self.cache,
            )
            self._harnesses[key] = harness
        return harness

    @property
    def manifest_entries(self) -> int:
        return len(self.manifest)

    def stats_payload(self) -> dict[str, Any]:
        if self.cache is not None:
            self.cache.disk_bytes()
        return {
            "service": self.stats.as_dict(),
            "singleflight": {
                "led": self.table.led,
                "coalesced": self.table.coalesced,
                "inflight": len(self.table),
            },
            "manifest_entries": self.manifest_entries,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "cache": self.cache.stats.as_dict() if self.cache is not None else None,
        }

    # -- request handling (event-loop side) -----------------------------------

    def _warm_entry(
        self, digest: str, key: CacheKey
    ) -> tuple[dict[str, Any] | None, str]:
        """A case's deterministic result entry if it is warm: manifest
        first, then a cache probe (restore only on a positive probe)."""
        entry = self.manifest.get(digest)
        if entry is not None:
            return entry["result"], "manifest"
        if self.cache is not None and self.cache.probe(key, "result"):
            payload = self.cache.get(key, "result")
            if payload is not None:
                return deterministic_entry(payload), "cache"
        return None, ""

    def handle_compile_request(self, payload: Any) -> tuple[Any, dict[str, Any]]:
        """Route one parsed /compile body (must run on the event loop).

        Returns ``(queue_or_events, preamble)``: either a finished event
        list (warm/shed/bad request — nothing in flight) or a live
        subscription queue yielding events until a ``None`` sentinel.
        """
        self.stats.requests += 1
        try:
            spec = parse_request(payload)
        except RequestSpecError as err:
            self.stats.bad_requests += 1
            return [{"event": "request_failed", "error": str(err)}], {
                "status": 400
            }
        harness = self.harness_for(spec)
        cases = spec.cases()
        keys = [harness.result_key(case) for case in cases]
        digests = [key.digest("result") for key in keys]
        digest = request_digest(digests)
        preamble = {
            "status": 200,
            "digest": digest,
            "cases": len(cases),
            "spec": spec.as_dict(),
        }

        flight = self.table.get(digest)
        if flight is None:
            # Warm fast path: only when *every* case is already served —
            # manifest or cache — do we answer without a flight.  (With a
            # flight in progress we join it instead: its stream already
            # carries these events.)
            warm: list[tuple[dict[str, Any], str]] = []
            for slot_digest, key in zip(digests, keys):
                entry, source = self._warm_entry(slot_digest, key)
                if entry is None:
                    break
                warm.append((entry, source))
            if len(warm) == len(cases):
                self.stats.warm_requests += 1
                events: list[dict[str, Any]] = []
                for index, ((entry, source), case, slot_digest) in enumerate(
                    zip(warm, cases, digests)
                ):
                    events.append(
                        _case_event(index + 1, case, entry, slot_digest, True, source)
                    )
                events.append(_complete_event(digest, [e for e, _ in warm]))
                self.stats.cases_streamed += len(cases)
                preamble.update(coalesced=False, warm=True)
                return events, preamble

        flight, leader = self.table.join(digest)
        preamble.update(coalesced=not leader, warm=False)
        if leader:
            if self._inflight >= self.max_inflight:
                self.table.abandon(flight)
                self.stats.shed += 1
                return [
                    {
                        "event": "request_shed",
                        "error": "service saturated; retry later",
                        "retry_after": self.retry_after,
                    }
                ], {"status": 429, "retry_after": self.retry_after}
            self._inflight += 1
            self.stats.dispatched += 1
            task = asyncio.get_running_loop().create_task(
                self._run_flight(flight, spec, harness, cases, keys, digests, digest)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return flight.subscribe(), preamble

    async def _run_flight(
        self,
        flight: Flight,
        spec: RequestSpec,
        harness: EvaluationHarness,
        cases: list[BenchmarkCase],
        keys: list[CacheKey],
        digests: list[str],
        digest: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            entries = await loop.run_in_executor(
                self._compile_pool,
                self._compile_sync,
                flight, harness, cases, keys, digests, loop,
            )
            flight.publish(_complete_event(digest, entries))
            self.table.finish(flight)
        except Exception as err:  # noqa: BLE001 - every failure must fan out
            self.stats.failed_flights += 1
            flight.publish(
                {
                    "event": "request_failed",
                    "digest": digest,
                    "error": f"{type(err).__name__}: {err}",
                }
            )
            self.table.finish(flight, error=str(err))
        finally:
            self._inflight -= 1

    def _compile_sync(
        self,
        flight: Flight,
        harness: EvaluationHarness,
        cases: list[BenchmarkCase],
        keys: list[CacheKey],
        digests: list[str],
        loop: asyncio.AbstractEventLoop,
    ) -> list[dict[str, Any]]:
        """Run one flight's cases on the compile executor thread.

        Manifest-resumed cases stream first (zero recompiles after a
        restart), then :meth:`run_matrix` handles the rest — cache-warm
        cases ahead of fresh compiles, every completion bridged back to
        the event loop thread-safely.
        """
        index = 0
        entries: list[dict[str, Any]] = []

        def publish(event: dict[str, Any]) -> None:
            self.stats.cases_streamed += 1
            loop.call_soon_threadsafe(flight.publish, event)

        pending: list[BenchmarkCase] = []
        key_by_case: dict[BenchmarkCase, CacheKey] = {}
        for case, key, slot_digest in zip(cases, keys, digests):
            entry = self.manifest.get(slot_digest)
            if entry is not None:
                index += 1
                entries.append(entry["result"])
                publish(
                    _case_event(
                        index, case, entry["result"], slot_digest, True, "manifest"
                    )
                )
                continue
            pending.append(case)
            key_by_case[case] = key

        def on_result(
            case: BenchmarkCase, framework: str,
            result: FrameworkResult, cached: bool,
        ) -> None:
            nonlocal index
            index += 1
            record = self.manifest.record(key_by_case[case], case, result.as_dict())
            entries.append(record["result"])
            if not cached:
                self.stats.cases_compiled += 1
            # The kill lands after the append, before the case is published.
            self.manifest.kill_if_due()
            publish(
                _case_event(
                    index, case, record["result"], record["digest"], cached,
                    "cache" if cached else "compile",
                )
            )

        if pending:
            harness.run_matrix(cases=pending, on_result=on_result)
        return entries

    # -- socket layer ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and serve; returns the bound port (``port=0`` = ephemeral)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        self._compile_pool.shutdown(wait=False, cancel_futures=True)

    def join(self) -> None:
        """Block until a compile still running after :meth:`stop` has
        finished, and with it its cache writes."""
        self._compile_pool.shutdown(wait=True)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await _read_http_request(reader)
        except (_HTTPError, asyncio.IncompleteReadError, ValueError) as err:
            status = err.status if isinstance(err, _HTTPError) else 400
            await _write_json(writer, status, {"error": str(err) or "bad request"})
            return
        except (ConnectionError, asyncio.LimitOverrunError):
            writer.close()
            return
        try:
            if method == "GET" and path == "/healthz":
                await _write_json(writer, 200, {"ok": True})
            elif method == "GET" and path == "/stats":
                await _write_json(writer, 200, self.stats_payload())
            elif method == "POST" and path == "/compile":
                await self._stream_compile(writer, body)
            else:
                await _write_json(
                    writer, 404, {"error": f"no route for {method} {path}"}
                )
        except (ConnectionError, asyncio.CancelledError):
            pass  # the client went away; the flight (if any) lives on
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _stream_compile(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as err:
            self.stats.bad_requests += 1
            await _write_json(writer, 400, {"error": f"request body is not JSON: {err}"})
            return
        source, preamble = self.handle_compile_request(payload)
        status = preamble.pop("status")
        if status != 200:
            extra_headers = []
            if "retry_after" in preamble:
                extra_headers.append(f"Retry-After: {max(1, round(preamble['retry_after']))}")
            event = source[0] if isinstance(source, list) and source else {}
            await _write_json(writer, status, event, extra_headers)
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def emit(event: dict[str, Any]) -> None:
            writer.write(_jsonl(event))
            # Per-event drain: each client's backpressure is its own —
            # a slow reader fills only its socket buffer and its queue,
            # never the flight or another waiter.
            await writer.drain()

        await emit({"event": "request_accepted", **preamble})
        if isinstance(source, list):
            for event in source:
                await emit(event)
            return
        while True:
            event = await source.get()
            if event is None:
                break
            await emit(event)


# -- event shapes -------------------------------------------------------------


def _case_event(
    index: int,
    case: BenchmarkCase,
    entry: dict[str, Any],
    digest: str,
    cached: bool,
    source: str,
) -> dict[str, Any]:
    return {
        "event": "case_result",
        "index": index,
        "label": case.label,
        "framework": case.framework,
        "variant": case.variant,
        "status": entry.get("status", "ok"),
        "cached": cached,
        "source": source,
        "digest": digest,
        "result": entry,
    }


def _complete_event(digest: str, entries: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "event": "request_complete",
        "ok": True,
        "digest": digest,
        "cases": len(entries),
        # merge_results sorts deterministically, so the final result set
        # is byte-identical no matter which order cases landed in.
        "results": merge_results(entries),
    }


def _jsonl(event: dict[str, Any]) -> bytes:
    return (json.dumps(event, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


# -- minimal HTTP/1.1 plumbing ------------------------------------------------


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes]:
    request_line = await reader.readline()
    if not request_line:
        raise _HTTPError(400, "empty request")
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError as err:
        raise _HTTPError(400, "malformed request line") from err
    headers: dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _HTTPError(431, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY_BYTES:
        raise _HTTPError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


async def _write_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict[str, Any],
    extra_headers: list[str] | None = None,
) -> None:
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
        *(extra_headers or []),
    ]
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


# -- in-thread wrapper (tests / benchmarks) -----------------------------------


class ServiceThread:
    """Run a :class:`CompileService` on a background event-loop thread.

    The blocking-client test battery and the soak benchmark drive a real
    served socket without subprocess overhead::

        with ServiceThread(cache=CompileCache(tmp)) as server:
            ServiceClient("127.0.0.1", server.port).healthz()
    """

    def __init__(self, host: str = "127.0.0.1", **service_kwargs: Any) -> None:
        self.service = CompileService(**service_kwargs)
        self.host = host
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            self.port = await self.service.start(self.host, 0)
            self._ready.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # Drain cancellations scheduled by stop() before closing the loop.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop)
        try:
            future.result(timeout=10)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shmls-serve",
        description="Serve compile/evaluation requests over HTTP with JSONL "
        "streaming, single-flight coalescing and a warm-cache fast path",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8471,
                        help="bind port (0 = ephemeral; default 8471)")
    parser.add_argument("--port-file", default=None, metavar="FILE",
                        help="write the bound port here once listening "
                        "(how scripts discover an ephemeral --port 0)")
    parser.add_argument("--state-dir", default=".shmls-serve", metavar="DIR",
                        help="service state directory: the resumability "
                        "manifest lives here (default .shmls-serve)")
    add_cache_arguments(parser)
    parser.add_argument("--max-inflight", type=int, default=4, metavar="N",
                        help="admission control: maximum queued+running "
                        "compile flights before shedding with 429 (default 4)")
    parser.add_argument("--compile-threads", type=int, default=1, metavar="N",
                        help="compile executor width (default 1: distinct "
                        "requests queue; identical ones coalesce regardless)")
    parser.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                        help="Retry-After seconds suggested on 429 (default 1)")
    parser.add_argument("--chaos-kill-after", type=int, default=None, metavar="N",
                        help="fault injection (tests/CI): SIGKILL the server "
                        "after N manifest appends")
    args = parser.parse_args(argv)

    cache = cache_from_args(parser, args)
    service = CompileService(
        cache=cache,
        state_dir=args.state_dir,
        max_inflight=args.max_inflight,
        compile_threads=args.compile_threads,
        retry_after=args.retry_after,
        chaos_kill_after=args.chaos_kill_after,
    )

    async def serve() -> None:
        port = await service.start(args.host, args.port)
        if args.port_file:
            Path(args.port_file).write_text(f"{port}\n")
        print(
            f"shmls-serve listening on http://{args.host}:{port} "
            f"(state {args.state_dir}, manifest {service.manifest_entries} "
            f"entr{'y' if service.manifest_entries == 1 else 'ies'}, "
            f"max-inflight {args.max_inflight})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    # A compile that was running at shutdown still stores its result:
    # trim once it is done, or that entry would outlive the budget.
    service.join()
    if cache is not None:
        cache.trim()
    return 0


if __name__ == "__main__":
    sys.exit(main())
