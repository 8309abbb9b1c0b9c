"""Distributed shard orchestrator for the scenario matrix.

``shmls-orchestrate`` (or ``python -m repro.evaluation.orchestrator``) is
the driver the ROADMAP names as the unlock for multi-machine scale: it
plans the full scenario matrix once, groups the cases by module, fans the
resulting shards out through a pluggable :class:`ShardLauncher`, streams
per-case results over a JSONL event channel while the shards are still
running, and merges the shard artefacts into the usual deterministic
report.

The pieces, in pipeline order:

* **Planning** — :func:`plan_matrix` expands cases (pinning frameworks the
  same way :meth:`EvaluationHarness.run_matrix` does), drops cases already
  recorded in the resumability manifest, orders the remainder with
  :func:`order_by_module` and cuts the ordering into even contiguous
  shards with :func:`split_shards`, so each module's sweep stays on as
  few shards as the cut allows.
* **Launching** — :class:`LocalLauncher` runs shards in-process (tests,
  single machines); :class:`SubprocessLauncher` spawns one
  ``--run-shard`` worker process per shard; :class:`RemoteLauncher` fans
  the same worker argv out over a machine list through a command
  template (``ssh {host} -- {argv}`` being the canonical instance).
  Process-based launchers capture each worker's stdout/stderr into
  ``state_dir/shard<i>.log``.  ``--dry-run`` prints the plan, lints
  every planned case and exits.
* **Fault tolerance** — the fleet loop (:func:`run_fleet`, driven by
  :func:`orchestrate`) retries dead workers with backoff, kills
  stragglers that stop making manifest progress for
  ``--straggler-timeout`` seconds, and *work-steals*: the unfinished
  cases of a dead or straggling shard — computed from the resumability
  manifests' result-stage :class:`CacheKey` digests — are re-queued as
  fresh shards on the surviving capacity, so a ``kill -9`` mid-sweep
  still converges to a merged report byte-identical to a serial run,
  with zero recompiles of already-manifested cases.
* **Streaming** — every shard appends ``case_finished`` events to its own
  ``events-shard<i>.jsonl``; the orchestrator tails those files while the
  pool runs and forwards them to its own event sink (``--events`` /
  ``--stream``).
* **Resuming** — each completed case is appended to
  ``manifest-shard<i>.jsonl`` keyed by its *result-stage compile-cache
  digest* (:meth:`EvaluationHarness.result_key`; the format and the
  files every reader loads live in :mod:`repro.evaluation.manifest`), so
  a killed sweep restarts with zero recompiles: planned cases whose
  digest is already in a manifest are served from the manifest, never
  re-launched.
* **Merging** — the final report is
  :func:`repro.evaluation.report.merge_results` over every manifest
  entry: byte-identical to a single-process run's merged report.

Doctest — planning is pure and cheap enough to inspect directly::

    >>> from repro.evaluation.orchestrator import plan_matrix
    >>> plan = plan_matrix(shards=2, variants=["staged", "depth-8"],
    ...                    kernels=["pw_advection"], sizes=["8M"],
    ...                    frameworks=["Stencil-HMLS"])
    >>> [len(shard.cases) for shard in plan.shards]
    [1, 1]
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TextIO

from repro.baselines.stencil_hmls import StencilHMLSFramework
from repro.core.compile_cache import CompileCache, add_cache_arguments, cache_from_args
from repro.evaluation.harness import (
    DEFAULT_CASES,
    BenchmarkCase,
    EvaluationHarness,
    _resolve_framework_names,
    canonical_variant_spec,
    case_from_dict,
    case_to_dict,
    expand_matrix_slots,
)
from repro.evaluation.manifest import (
    Manifest,
    load_manifest,
    manifest_files,
    manifest_path,
    read_jsonl,
)
from repro.evaluation.metrics import FrameworkResult
from repro.evaluation.report import merge_results
from repro.fpga.device import ALVEO_U280, device_by_name


# ---------------------------------------------------------------------------
# Module-grouped scheduling
# ---------------------------------------------------------------------------


def case_pipeline_spec(case: BenchmarkCase) -> str | None:
    """Canonicalised pass-pipeline spec of a pinned case (``None`` for
    baseline frameworks, which model fixed flows without a pipeline)."""
    if case.framework != StencilHMLSFramework.name:
        return None
    return canonical_variant_spec(case.variant)


def _module_sort_key(case: BenchmarkCase) -> tuple:
    spec = case_pipeline_spec(case)
    return (
        0 if spec is not None else 1,        # Stencil-HMLS sweeps first …
        case.kernel,
        case.size.label,                     # … grouped per module …
        spec or "",                          # … then by canonical spec
        case.framework or "",
        case.variant,
    )


def order_by_module(cases: Sequence[BenchmarkCase]) -> list[BenchmarkCase]:
    """Order cases so each module's (kernel and size) cases are adjacent.

    A contiguous shard cut then spreads each module's cases over as few
    workers as it allows, and the order does not depend on the order the
    cases came in.
    Within a module, cases sort by canonical pipeline spec; baseline
    framework cases carry no pipeline and sort after the Stencil-HMLS
    sweeps.
    """
    return sorted(cases, key=_module_sort_key)


def split_shards(cases: Sequence[BenchmarkCase], count: int) -> list[list[BenchmarkCase]]:
    """Cut an ordered case list into ``count`` contiguous, even shards.

    Shard sizes differ by at most one case, larger shards first; empty
    shards only appear when there are fewer cases than shards.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    cases = list(cases)
    base, extra = divmod(len(cases), count)
    shards = []
    start = 0
    for index in range(count):
        end = start + base + (1 if index < extra else 0)
        shards.append(cases[start:end])
        start = end
    return shards


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class ShardPlan:
    """One shard of the orchestrated matrix."""

    index: int                       #: 1-based shard number
    cases: list[BenchmarkCase]


@dataclass
class OrchestrationPlan:
    """Everything the launcher needs, plus what the resume skipped."""

    shards: list[ShardPlan]
    #: (case, manifest result entry) pairs restored instead of re-launched.
    resumed: list[tuple[BenchmarkCase, dict[str, Any]]] = field(default_factory=list)
    order: str = "prefix"

    @property
    def planned_cases(self) -> int:
        return sum(len(shard.cases) for shard in self.shards)

    def describe(self) -> str:
        """Human-readable dry-run plan."""
        lines = [
            f"orchestration plan: {self.planned_cases} case(s) over "
            f"{len(self.shards)} shard(s), order={self.order}, "
            f"{len(self.resumed)} resumed from manifest"
        ]
        for shard in self.shards:
            lines.append(f"  shard {shard.index}: {len(shard.cases)} case(s)")
            for case in shard.cases:
                framework = case.framework or "<all>"
                lines.append(f"    {case.kernel}/{case.size.label}/{framework}@{case.variant}")
        return "\n".join(lines)


def lint_plan(plan: OrchestrationPlan, device_name: str = ALVEO_U280.name) -> int:
    """Lint every planned case and flag the doomed ones (``--dry-run``).

    Cases are deduplicated by (kernel, size, variant) — the framework pin
    changes only the performance model, not what gets compiled — and
    share one :class:`~repro.ir.analysis.AnalysisManager`, so per-kernel
    dataflow analyses are computed once per module content hash no matter
    how many variants reuse it, and each case hashes its module once.  Returns 2 when any case is doomed (lint
    errors), 1 for warnings only, 0 when the whole plan lints clean.
    """
    from repro.ir.analysis import AnalysisManager
    from repro.tools.lint import lint_benchmark_case

    device = device_by_name(device_name)
    analyses = AnalysisManager()
    seen: dict[tuple[str, str, str], Any] = {}
    for shard in plan.shards:
        for case in shard.cases:
            key = (case.kernel, case.size.label, case.variant)
            if key not in seen:
                seen[key] = lint_benchmark_case(
                    case.kernel, case.size.label, case.variant,
                    device, analyses=analyses,
                )
    doomed: list[str] = []
    warned = False
    for (kernel, size, variant), engine in seen.items():
        label = f"{kernel}/{size}@{variant}"
        if engine.has_errors:
            doomed.append(label)
        warned = warned or engine.has_warnings
        for line in engine.render_lines():
            print(f"  lint {label}: {line}")
    if doomed:
        print(
            f"lint: {len(doomed)} doomed case(s) out of {len(seen)} unique: "
            + ", ".join(doomed)
        )
        return 2
    print(f"lint: {len(seen)} unique case(s), none doomed")
    return 1 if warned else 0


def pin_cases(
    cases: Iterable[BenchmarkCase],
    frameworks: Sequence[str] | None = None,
) -> list[BenchmarkCase]:
    """Expand unpinned cases over ``frameworks`` exactly like
    :meth:`EvaluationHarness.run_matrix` does (same shared
    :func:`expand_matrix_slots` rule and framework defaulting), returning
    fully-pinned cases.
    """
    return [
        BenchmarkCase(case.kernel, case.size, name, case.variant)
        for case, name in expand_matrix_slots(
            cases, _resolve_framework_names(frameworks)
        )
    ]


def plan_matrix(
    cases: Iterable[BenchmarkCase] | None = None,
    *,
    shards: int = 1,
    order: str = "prefix",
    frameworks: Sequence[str] | None = None,
    kernels: Sequence[str] | None = None,
    sizes: Sequence[str] | None = None,
    variants: Sequence[str] | None = None,
    completed: dict[str, dict[str, Any]] | None = None,
    harness: EvaluationHarness | None = None,
) -> OrchestrationPlan:
    """Plan the orchestrated matrix.

    ``cases`` defaults to the paper matrix (or a cartesian
    kernel × size × framework × variant expansion when ``kernels`` /
    ``variants`` are given).  ``completed`` maps result-stage cache-key
    digests to manifest entries; matching cases are resumed, not planned.
    ``order`` is ``prefix`` (the default: grouped by module with
    :func:`order_by_module`, cut into contiguous shards) or ``case``
    (case-major strided sharding, in the order given).
    """
    if order not in ("prefix", "case"):
        raise ValueError(f"unknown order '{order}' (use 'prefix' or 'case')")
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    harness = harness or EvaluationHarness(repeats=1)
    if cases is None:
        if kernels is not None or variants is not None or sizes is not None:
            cases = harness.cases_for(kernels=kernels, sizes=sizes, variants=variants)
        else:
            cases = DEFAULT_CASES
    pinned = pin_cases(cases, frameworks)

    resumed: list[tuple[BenchmarkCase, dict[str, Any]]] = []
    todo: list[BenchmarkCase] = []
    for case in pinned:
        entry = None
        if completed:
            digest = harness.result_key(case).digest("result")
            entry = completed.get(digest)
        if entry is not None:
            resumed.append((case, entry))
        else:
            todo.append(case)

    if order == "prefix":
        chunks = split_shards(order_by_module(todo), shards)
    else:
        chunks = [todo[i::shards] for i in range(shards)]
    return OrchestrationPlan(
        shards=[ShardPlan(i + 1, chunk) for i, chunk in enumerate(chunks)],
        resumed=resumed,
        order=order,
    )


# ---------------------------------------------------------------------------
# JSONL event channel
# ---------------------------------------------------------------------------


class EventWriter:
    """Append-only JSONL event sink: a file path, any text stream, or both
    (``echo=True`` additionally prints every event to stdout)."""

    def __init__(
        self, target: str | Path | TextIO | None, *, echo: bool = False
    ) -> None:
        self._path: Path | None = None
        self._stream: TextIO | None = None
        self.echo = echo
        if target is None:
            pass
        elif isinstance(target, (str, Path)):
            self._path = Path(target)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_text("")
        else:
            self._stream = target

    def emit(self, event: str, **payload: Any) -> dict[str, Any]:
        record = {"event": event, **payload}
        # UTF-8 JSONL: non-ASCII kernel/variant names stream as themselves
        # (the forwarder tails in binary and counts byte offsets).
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        if self._path is not None:
            with self._path.open("a") as handle:
                handle.write(line + "\n")
                handle.flush()
        if self._stream is not None:
            self._stream.write(line + "\n")
            self._stream.flush()
        if self.echo:
            print(line, flush=True)
        return record


#: All events of one JSONL event file (missing file = no events yet).
read_events = read_jsonl


class _EventForwarder:
    """Incrementally tail shard event files into the orchestrator's sink.

    Files are read in *binary* and offsets advanced in *bytes*: a
    text-mode tail that seeks byte offsets but advances by ``len(line)``
    in characters desyncs on the first non-ASCII kernel/variant name and
    corrupts or drops every later event.
    """

    def __init__(self, paths: Sequence[Path], sink: EventWriter) -> None:
        self.paths = list(paths)
        self.sink = sink
        self._offsets = {path: 0 for path in self.paths}

    def add_path(self, path: Path) -> None:
        """Start tailing another event file (a re-queued shard's stream)."""
        if path not in self._offsets:
            self.paths.append(path)
            self._offsets[path] = 0

    def poll(self) -> int:
        forwarded = 0
        for path in self.paths:
            try:
                with path.open("rb") as handle:
                    handle.seek(self._offsets[path])
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            consumed = 0
            for line in chunk.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    break  # incomplete trailing write; re-read next poll
                consumed += len(line)
                try:
                    text = line.decode("utf-8").strip()
                except UnicodeDecodeError:
                    continue  # a corrupt line; skip it but keep the offset honest
                if text:
                    try:
                        record = json.loads(text)
                    except json.JSONDecodeError:
                        continue
                    self.sink.emit(record.pop("event", "unknown"), **record)
                    forwarded += 1
            self._offsets[path] += consumed
        return forwarded


# ---------------------------------------------------------------------------
# Shard execution (worker side)
# ---------------------------------------------------------------------------

#: Exit code of a shard that stopped before finishing all its cases.
EXIT_INTERRUPTED = 3


def shard_spec(
    shard: ShardPlan,
    *,
    state_dir: Path,
    device: str = ALVEO_U280.name,
    repeats: int = 1,
    jobs: int = 1,
    cache: dict[str, Any] | None = None,
    max_cases: int | None = None,
) -> dict[str, Any]:
    """The JSON-safe job description one shard worker executes; ``cache``
    is a :meth:`CompileCache.settings` dict."""
    return {
        "shard": shard.index,
        "cases": [case_to_dict(case) for case in shard.cases],
        "device": device,
        "repeats": repeats,
        "jobs": jobs,
        "cache": cache,
        "max_cases": max_cases,
        "state_dir": str(state_dir),
        "events": str(state_dir / f"events-shard{shard.index}.jsonl"),
        "manifest": str(manifest_path(state_dir, f"shard{shard.index}")),
    }


def run_shard_spec(spec: dict[str, Any]) -> int:
    """Execute one shard: run its cases, streaming an event and appending a
    manifest line per completed case.

    Returns 0, or :data:`EXIT_INTERRUPTED` when ``max_cases`` stopped the
    shard early (the kill-and-resume path CI exercises).
    """
    shard_index = spec["shard"]
    cases = [case_from_dict(entry) for entry in spec["cases"]]
    max_cases = spec.get("max_cases")
    interrupted = False
    if max_cases is not None and len(cases) > max_cases:
        cases = cases[:max_cases]
        interrupted = True

    cache = CompileCache.from_settings(spec.get("cache"))
    harness = EvaluationHarness(
        device=device_by_name(spec["device"]),
        repeats=spec["repeats"],
        cache=cache,
        jobs=max(spec.get("jobs", 1), 1),
    )
    events = EventWriter(spec["events"])
    # Fault injection (tests/CI) dies like a real `kill -9` would: manifest
    # written, no shard_finished event, no cleanup.  Deterministic because
    # the *worker* pulls the trigger, not a racing poll loop in the
    # orchestrator.
    manifest = Manifest(spec["manifest"], chaos_kill_after=spec.get("chaos_kill_after"))
    events.emit(
        "shard_started", shard=shard_index, cases=len(cases),
        interrupted_after=max_cases if interrupted else None,
    )

    finished = 0

    def on_result(
        case: BenchmarkCase, framework: str, result: FrameworkResult, cached: bool
    ) -> None:
        nonlocal finished
        finished += 1
        record = manifest.record(harness.result_key(case, framework), case, result.as_dict())
        events.emit(
            "case_finished",
            shard=shard_index,
            label=case.label,
            framework=framework,
            variant=case.variant,
            status=result.status,
            cached=cached,
            digest=record["digest"],
            index=finished,
        )
        manifest.kill_if_due(
            lambda appended: events.emit("chaos_kill", shard=shard_index, after_cases=appended)
        )

    results = harness.run_matrix(cases=cases, on_result=on_result)
    if cache is not None:
        cache.trim()
    events.emit(
        "shard_finished",
        shard=shard_index,
        completed=len(results),
        interrupted=interrupted,
        cache_stats=cache.stats.as_dict() if cache is not None else None,
    )
    return EXIT_INTERRUPTED if interrupted else 0


# ---------------------------------------------------------------------------
# Launchers
# ---------------------------------------------------------------------------


@dataclass
class ShardHandle:
    """One in-flight shard worker, as the fleet loop sees it."""

    spec: dict[str, Any]
    #: 1-based attempt number of this shard lineage (retries increment it).
    attempt: int = 1
    host: str | None = None
    proc: subprocess.Popen | None = None
    #: Synchronous launchers record the exit code directly.
    code: int | None = None
    log_path: Path | None = None
    _log_handle: Any = None


class ShardLauncher:
    """Fans shard jobs out to workers, one at a time.

    ``start`` launches one shard and returns a :class:`ShardHandle`;
    ``poll_shard`` reports its exit code (``None`` while running);
    ``kill`` SIGKILLs it (straggler replacement / chaos injection).  The
    fleet loop (:func:`run_fleet`) drives these to implement retry,
    straggler detection and work-stealing uniformly over every backend.
    """

    name = "abstract"

    def start(self, spec: dict[str, Any]) -> ShardHandle:
        raise NotImplementedError

    def poll_shard(self, handle: ShardHandle) -> int | None:
        raise NotImplementedError

    def kill(self, handle: ShardHandle) -> None:
        raise NotImplementedError

    def capacity(self) -> int | None:
        """Concurrent-worker capacity (``None`` = unbounded); the fleet
        splits stolen work over the idle share of this."""
        return None


class LocalLauncher(ShardLauncher):
    """Run every shard sequentially in this process.

    Deterministic and dependency-free: the backend for tests, dry runs
    and single-machine sweeps where per-shard ``--jobs`` already provides
    the parallelism.  ``start`` is synchronous, so local shards can never
    straggle and cannot be chaos-killed.
    """

    name = "local"

    def start(self, spec: dict[str, Any]) -> ShardHandle:
        return ShardHandle(spec=spec, code=run_shard_spec(spec))

    def poll_shard(self, handle: ShardHandle) -> int | None:
        return handle.code

    def kill(self, handle: ShardHandle) -> None:
        pass  # already finished by the time anyone could ask

    def capacity(self) -> int | None:
        return 1


class CommandLauncher(ShardLauncher):
    """Launch each shard worker as a *command* rendered from a template.

    The template is a shell-style string containing the placeholders
    ``{argv}`` (the worker command line, ``python -m
    repro.evaluation.orchestrator --run-shard <spec.json>``) and
    optionally ``{host}``.  ``"{argv}"`` runs the worker locally;
    ``"ssh {host} -- {argv}"`` runs it on a machine list (see
    :class:`RemoteLauncher`).  Worker stdout/stderr are captured to
    ``state_dir/shard<i>.log`` so a crashed worker always leaves a trace
    the orchestrator can quote.
    """

    name = "command"
    template = "{argv}"

    def __init__(self, python: str | None = None) -> None:
        self.python = python or sys.executable

    # -- template rendering ---------------------------------------------------

    def _worker_argv(self, spec_path: Path) -> list[str]:
        return [
            self.python, "-m", "repro.evaluation.orchestrator",
            "--run-shard", str(spec_path),
        ]

    def command_for(self, spec_path: Path, host: str | None) -> list[str]:
        argv = self._worker_argv(spec_path)
        rendered: list[str] = []
        for token in shlex.split(self.template):
            if token == "{argv}":
                rendered.extend(argv)
            else:
                token = token.replace("{host}", host or "")
                if "{argv}" in token:
                    token = token.replace("{argv}", shlex.join(argv))
                rendered.append(token)
        return rendered

    # -- host selection (machine-list backends override) ----------------------

    def pick_host(self) -> str | None:
        return None

    def release_host(self, host: str | None) -> None:
        pass

    # -- lifecycle ------------------------------------------------------------

    def _environment(self) -> dict[str, str]:
        env = dict(os.environ)
        # Workers must import repro exactly as this process does.  (Over
        # ssh the template must provide the remote environment instead.)
        src_dir = str(Path(__file__).resolve().parents[2])
        parts = [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return env

    def start(self, spec: dict[str, Any]) -> ShardHandle:
        state_dir = Path(spec["state_dir"])
        spec_path = state_dir / f"shard{spec['shard']}.json"
        spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True))
        host = self.pick_host()
        log_path = state_dir / f"shard{spec['shard']}.log"
        log_handle = log_path.open("ab")
        proc = subprocess.Popen(
            self.command_for(spec_path, host),
            env=self._environment(),
            stdout=log_handle,
            stderr=subprocess.STDOUT,
        )
        return ShardHandle(
            spec=spec, host=host, proc=proc,
            log_path=log_path, _log_handle=log_handle,
        )

    def poll_shard(self, handle: ShardHandle) -> int | None:
        code = handle.proc.poll()
        if code is not None and handle._log_handle is not None:
            handle._log_handle.close()
            handle._log_handle = None
            self.release_host(handle.host)
        return code

    def kill(self, handle: ShardHandle) -> None:
        if handle.proc is not None and handle.proc.poll() is None:
            handle.proc.kill()  # SIGKILL: the worker gets no chance to tidy up


class SubprocessLauncher(CommandLauncher):
    """One ``python -m repro.evaluation.orchestrator --run-shard`` process
    per shard on this machine — :class:`RemoteLauncher`'s degenerate case
    (the template is just ``{argv}``, no host)."""

    name = "subprocess"


class RemoteLauncher(CommandLauncher):
    """Machine-list backend: round-robin shard workers over ``hosts``
    through a command template, ``ssh {host} -- {argv}`` by default.

    The state directory (and any ``--cache-dir``/``--remote-cache-dir``)
    must be a path shared by every machine — an NFS/sshfs mount or a
    synced checkout — since workers write their manifests and event
    streams there and the orchestrator tails them.  Templates can inject
    whatever the remote side needs, e.g.::

        ssh {host} -- env PYTHONPATH=/mnt/repro/src {argv}

    A free host is preferred over a busy one, so work stolen from a dead
    machine lands on surviving machines first.
    """

    name = "remote"

    def __init__(
        self,
        hosts: Sequence[str],
        template: str = "ssh {host} -- {argv}",
        python: str | None = None,
    ) -> None:
        super().__init__(python=python)
        if not hosts:
            raise ValueError("RemoteLauncher needs at least one host")
        self.hosts = list(hosts)
        self.template = template
        self._busy: dict[str, int] = {host: 0 for host in self.hosts}
        self._rotation = 0

    def pick_host(self) -> str | None:
        # Least-busy wins; ties rotate so shards spread over the list.
        ordered = self.hosts[self._rotation:] + self.hosts[:self._rotation]
        self._rotation = (self._rotation + 1) % len(self.hosts)
        host = min(ordered, key=lambda h: self._busy[h])
        self._busy[host] += 1
        return host

    def release_host(self, host: str | None) -> None:
        if host in self._busy and self._busy[host] > 0:
            self._busy[host] -= 1

    def capacity(self) -> int | None:
        return len(self.hosts)


LAUNCHERS: dict[str, Callable[[], ShardLauncher]] = {
    "local": LocalLauncher,
    "subprocess": SubprocessLauncher,
}


# ---------------------------------------------------------------------------
# The fleet loop: retry, straggler detection, work-stealing
# ---------------------------------------------------------------------------


def _log_tail(path: Path | str | None, limit: int = 20) -> str:
    """The last ``limit`` lines of a worker log ('' when there is none)."""
    if path is None:
        return ""
    try:
        lines = Path(path).read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return "\n".join(lines[-limit:])


def _manifest_entry_count(path: Path | str) -> int:
    """Completed-case count of one shard manifest (complete lines only)."""
    try:
        return Path(path).read_bytes().count(b"\n")
    except OSError:
        return 0


def _unfinished_cases(spec: dict[str, Any], state_dir: Path) -> list[BenchmarkCase]:
    """The cases of ``spec`` *not yet recorded* in any resumability manifest
    of the state dir — the work a dead or straggling shard leaves behind,
    computed from result-stage :class:`CacheKey` digests so a case another
    worker (or an earlier attempt) finished is never recompiled."""
    finished = set(load_manifest(state_dir))
    harness = EvaluationHarness(
        device=device_by_name(spec["device"]), repeats=spec["repeats"]
    )
    return [
        case
        for case in (case_from_dict(entry) for entry in spec["cases"])
        if harness.result_key(case).digest("result") not in finished
    ]


def _replacement_spec(
    spec: dict[str, Any], cases: Sequence[BenchmarkCase], index: int, state_dir: Path
) -> dict[str, Any]:
    """A fresh shard spec re-queueing ``cases`` under a new shard index
    (fresh manifest/event/log files; all other job parameters inherited)."""
    new = dict(spec)
    new["shard"] = index
    new["cases"] = [case_to_dict(case) for case in cases]
    new["events"] = str(state_dir / f"events-shard{index}.jsonl")
    new["manifest"] = str(manifest_path(state_dir, f"shard{index}"))
    # Fault injection targets the first attempt only; replacements run clean.
    new.pop("chaos_kill_after", None)
    return new


@dataclass
class _Flight:
    """Fleet-loop bookkeeping for one in-flight shard attempt."""

    handle: ShardHandle
    attempt: int
    manifest: Path
    last_entries: int = 0
    last_progress: float = 0.0
    killed_by: str | None = None


@dataclass
class _Pending:
    """A re-queued shard waiting out its retry backoff."""

    ready_at: float
    spec: dict[str, Any]
    attempt: int
    from_shard: int


def run_fleet(
    specs: list[dict[str, Any]],
    launcher: ShardLauncher,
    *,
    state_dir: str | Path,
    events: EventWriter,
    forwarder: _EventForwarder,
    max_retries: int = 1,
    retry_backoff: float = 0.5,
    straggler_timeout: float | None = None,
    poll_interval: float = 0.05,
) -> tuple[list[int], list[dict[str, Any]]]:
    """Drive shard workers to completion with retry, straggler replacement
    and work-stealing.

    Every shard failure (non-zero exit that is not the resumable
    :data:`EXIT_INTERRUPTED`, including SIGKILL and straggler kills)
    re-queues the shard's *unfinished* cases — anything already recorded
    in a manifest is never re-run — as fresh shards after an exponential
    ``retry_backoff``, split over the launcher's idle capacity so
    surviving machines pick it up (work stealing).  A lineage that fails
    more than ``max_retries`` times is reported as a hard failure with the
    tail of its worker log.

    ``straggler_timeout`` kills (SIGKILL) any worker whose manifest makes
    no progress for that many seconds, then re-queues it like a crash.

    Returns ``(terminal exit codes, hard failures)`` — codes of flights
    that were not replaced, and one diagnostic dict per exhausted lineage.
    """
    state_dir = Path(state_dir)
    codes: list[int] = []
    failures: list[dict[str, Any]] = []
    pending: list[_Pending] = []
    next_index = max((spec["shard"] for spec in specs), default=0) + 1

    def _launch(spec: dict[str, Any], attempt: int) -> _Flight:
        handle = launcher.start(spec)
        handle.attempt = attempt
        return _Flight(
            handle=handle,
            attempt=attempt,
            manifest=Path(spec["manifest"]),
            last_entries=_manifest_entry_count(spec["manifest"]),
            last_progress=time.monotonic(),
        )

    flights = [_launch(spec, 1) for spec in specs]
    while flights or pending:
        forwarder.poll()
        now = time.monotonic()

        for item in [p for p in pending if p.ready_at <= now]:
            pending.remove(item)
            Path(item.spec["events"]).write_text("")
            forwarder.add_path(Path(item.spec["events"]))
            flights.append(_launch(item.spec, item.attempt))

        still_running: list[_Flight] = []
        for flight in flights:
            spec = flight.handle.spec
            code = launcher.poll_shard(flight.handle)
            if code is None:
                entries = _manifest_entry_count(flight.manifest)
                if entries > flight.last_entries:
                    flight.last_entries = entries
                    flight.last_progress = now
                if (
                    straggler_timeout is not None
                    and flight.killed_by is None
                    and now - flight.last_progress > straggler_timeout
                ):
                    events.emit(
                        "shard_straggler",
                        shard=spec["shard"],
                        attempt=flight.attempt,
                        stalled_s=round(now - flight.last_progress, 3),
                    )
                    flight.killed_by = "straggler"
                    launcher.kill(flight.handle)
                still_running.append(flight)
                continue

            if code in (0, EXIT_INTERRUPTED):
                codes.append(code)
                continue

            # Crashed (or killed).  Re-queue whatever it did not finish.
            unfinished = _unfinished_cases(spec, state_dir)
            tail = _log_tail(flight.handle.log_path)
            events.emit(
                "shard_failed",
                shard=spec["shard"],
                attempt=flight.attempt,
                exit_code=code,
                cause=flight.killed_by or "crash",
                unfinished_cases=len(unfinished),
                log_tail=tail,
            )
            if not unfinished:
                # Died after manifesting every case (e.g. before its
                # shard_finished event): the manifest is the source of
                # truth, so nothing is lost and nothing needs re-running.
                codes.append(0)
                continue
            if flight.attempt > max_retries:
                failures.append(
                    {
                        "shard": spec["shard"],
                        "attempts": flight.attempt,
                        "exit_code": code,
                        "unfinished_cases": len(unfinished),
                        "log_tail": tail,
                    }
                )
                codes.append(code)
                continue
            nominal = launcher.capacity() or len(specs)
            idle = max(nominal - len(still_running), 1)
            shard_count = min(idle, len(unfinished))
            delay = retry_backoff * (2 ** (flight.attempt - 1))
            for chunk in split_shards(
                order_by_module(unfinished), shard_count
            ):
                if not chunk:
                    continue
                new_spec = _replacement_spec(spec, chunk, next_index, state_dir)
                next_index += 1
                pending.append(
                    _Pending(now + delay, new_spec, flight.attempt + 1, spec["shard"])
                )
                events.emit(
                    "shard_requeued",
                    shard=new_spec["shard"],
                    from_shard=spec["shard"],
                    attempt=flight.attempt + 1,
                    cases=len(chunk),
                    backoff_s=delay,
                )
        flights = still_running
        if flights or pending:
            time.sleep(poll_interval)
    forwarder.poll()
    return codes, failures


# ---------------------------------------------------------------------------
# The orchestrator driver
# ---------------------------------------------------------------------------


def orchestrate(
    plan: OrchestrationPlan,
    *,
    state_dir: str | Path,
    launcher: ShardLauncher | str = "local",
    device: str = ALVEO_U280.name,
    repeats: int = 1,
    jobs: int = 1,
    cache_dir: str | None = None,
    remote_cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    max_cases_per_shard: int | None = None,
    events: EventWriter | None = None,
    output: str | Path | None = None,
    max_retries: int = 1,
    retry_backoff: float = 0.5,
    straggler_timeout: float | None = None,
    chaos_kill_shard: int | None = None,
    chaos_kill_after: int = 1,
) -> tuple[int, list[dict[str, Any]]]:
    """Run a planned matrix end-to-end.

    Returns ``(exit_code, merged_entries)``: 0 when every planned case
    completed (possibly after retries/steals); :data:`EXIT_INTERRUPTED`
    when shards stopped at a ``max_cases_per_shard`` budget (resumable —
    re-run with the same state dir); 1 when a worker crashed beyond its
    ``max_retries`` budget or vanished without recording its cases (the
    failure message quotes the tail of the worker's captured log).
    Partial results are merged and written in every case.
    """
    cache = CompileCache.from_settings(
        dict(cache_dir=cache_dir, remote_cache_dir=remote_cache_dir, cache_max_bytes=cache_max_bytes)
    )
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(launcher, str):
        launcher = LAUNCHERS[launcher]()
    events = events or EventWriter(None)

    specs = [
        shard_spec(
            shard,
            state_dir=state_dir,
            device=device,
            repeats=repeats,
            jobs=jobs,
            cache=cache.settings() if cache is not None else None,
            max_cases=max_cases_per_shard,
        )
        for shard in plan.shards
        if shard.cases
    ]
    if chaos_kill_shard is not None:
        if isinstance(launcher, LocalLauncher):
            # The worker SIGKILLs itself — in-process that is *this* process.
            raise ValueError(
                "chaos_kill_shard needs a process-based launcher"
            )
        for spec in specs:
            if spec["shard"] == chaos_kill_shard:
                spec["chaos_kill_after"] = chaos_kill_after
    events.emit(
        "plan",
        shards=len(specs),
        cases=plan.planned_cases,
        resumed=len(plan.resumed),
        order=plan.order,
        launcher=launcher.name,
        max_retries=max_retries,
    )
    forwarder = _EventForwarder([Path(spec["events"]) for spec in specs], events)
    # Shard event files are recreated by the workers; start tails at zero
    # against the previous run's leftovers.
    for spec in specs:
        Path(spec["events"]).write_text("")
    codes, failures = run_fleet(
        specs,
        launcher,
        state_dir=state_dir,
        events=events,
        forwarder=forwarder,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        straggler_timeout=straggler_timeout,
    )

    manifest = load_manifest(state_dir)
    harness = EvaluationHarness(device=device_by_name(device), repeats=repeats)
    planned_digests = {
        harness.result_key(case).digest("result")
        for shard in plan.shards
        for case in shard.cases
    }
    # Merge exactly the requested matrix (this run's cases + the ones the
    # plan resumed) — the state dir's manifest may hold results of other
    # sweeps that must not leak into this report.
    wanted = planned_digests | {entry["digest"] for _, entry in plan.resumed}
    merged = merge_results(
        entry["result"]
        for digest, entry in manifest.items()
        if digest in wanted
    )
    payload = json.dumps(merged, indent=2, sort_keys=True)
    if output is not None:
        Path(output).write_text(payload)

    missing = planned_digests - set(manifest)
    crashed = [code for code in codes if code not in (0, EXIT_INTERRUPTED)]
    interrupted = any(code == EXIT_INTERRUPTED for code in codes)
    ok = not missing and not crashed and not interrupted
    events.emit(
        "run_finished",
        ok=ok,
        planned=plan.planned_cases,
        completed=plan.planned_cases - len(missing),
        resumed=len(plan.resumed),
        merged_entries=len(merged),
        shard_exit_codes=codes,
        crashed_shards=len(crashed),
        hard_failures=len(failures),
    )
    for failure in failures:
        message = (
            f"shard {failure['shard']} failed with exit code "
            f"{failure['exit_code']} after {failure['attempts']} attempt(s); "
            f"{failure['unfinished_cases']} case(s) left unfinished"
        )
        tail = failure.get("log_tail") or ""
        if tail:
            message += "; last worker log lines:\n" + "\n".join(
                f"  | {line}" for line in tail.splitlines()
            )
        else:
            message += " (no worker log captured)"
        print(message, file=sys.stderr)
    if ok:
        exit_code = 0
    elif crashed or (missing and not interrupted):
        # A worker died (or "succeeded" without recording its cases):
        # a bug, not a resumable budget stop — fail loudly, don't return
        # the retryable EXIT_INTERRUPTED.
        exit_code = 1
    else:
        exit_code = EXIT_INTERRUPTED
    return exit_code, merged


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shmls-orchestrate",
        description="Plan, shard and run the scenario matrix across workers, "
        "streaming results and resuming killed sweeps with zero recompiles",
    )
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="number of shards to fan the matrix out to (default 2)")
    parser.add_argument("--launcher", choices=sorted([*LAUNCHERS, "remote"]),
                        default="local",
                        help="shard backend: in-process 'local', one "
                        "'subprocess' worker per shard, or 'remote' workers "
                        "over a --hosts machine list")
    parser.add_argument("--hosts", nargs="+", default=None, metavar="HOST",
                        help="machine list for --launcher remote (shards are "
                        "spread least-busy-first over these hosts)")
    parser.add_argument("--remote-template", default="ssh {host} -- {argv}",
                        metavar="TEMPLATE",
                        help="worker command template for --launcher remote; "
                        "{argv} is the worker command line, {host} the "
                        "assigned machine (default 'ssh {host} -- {argv}')")
    parser.add_argument("--order", choices=("prefix", "case"), default="prefix",
                        help="case ordering: grouped by module into contiguous "
                        "shards (default) or case-major striding")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="process-pool width inside each shard (default 1)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs to average each measurement over (default 1)")
    parser.add_argument("--device", default=ALVEO_U280.name, help="target device")
    parser.add_argument("--quick", action="store_true",
                        help="smallest problem sizes only")
    parser.add_argument("--kernels", nargs="+", default=None, metavar="KERNEL",
                        help="kernels to sweep (default: the full paper matrix)")
    parser.add_argument("--sizes", nargs="+", default=None, metavar="LABEL",
                        help="problem-size labels to sweep")
    parser.add_argument("--frameworks", nargs="+", default=None, metavar="NAME",
                        help="frameworks to evaluate (default: all five)")
    parser.add_argument("--variants", nargs="+", default=None, metavar="NAME",
                        help="pipeline variants to sweep (e.g. the staged "
                        "ablation axis; pairs with Stencil-HMLS)")
    parser.add_argument("--state-dir", default=".shmls-orchestrate", metavar="DIR",
                        help="run directory for shard specs, manifests and "
                        "event streams (default .shmls-orchestrate)")
    add_cache_arguments(parser)
    parser.add_argument("--max-retries", type=int, default=1, metavar="N",
                        help="relaunch a dead/straggling shard's unfinished "
                        "cases up to N times before failing hard (default 1)")
    parser.add_argument("--retry-backoff", type=float, default=0.5, metavar="S",
                        help="base delay before a relaunch, doubled per "
                        "attempt (default 0.5s)")
    parser.add_argument("--straggler-timeout", type=float, default=None, metavar="S",
                        help="SIGKILL and re-queue any worker whose manifest "
                        "makes no progress for S seconds (default: off)")
    parser.add_argument("--chaos-kill-shard", type=int, default=None, metavar="I",
                        help="fault injection (tests/CI): SIGKILL shard I's "
                        "first attempt once --chaos-kill-after of its cases "
                        "are manifested")
    parser.add_argument("--chaos-kill-after", type=int, default=1, metavar="N",
                        help="manifested cases before the chaos kill fires "
                        "(default 1)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the merged deterministic report here")
    parser.add_argument("--events", default=None, metavar="FILE",
                        help="write the orchestrator's JSONL event stream here")
    parser.add_argument("--stream", action="store_true",
                        help="stream JSONL events to stdout while shards run")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the shard plan (plus a lint verdict per "
                        "unique case) and exit without running")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the shmls-lint pass over the planned cases "
                        "during --dry-run")
    parser.add_argument("--fresh", action="store_true",
                        help="discard every manifest in --state-dir and "
                        "re-run every case")
    parser.add_argument("--max-cases-per-shard", type=int, default=None, metavar="N",
                        help="stop each shard after N cases (smoke tests / "
                        "budgeted partial runs; the next run resumes)")
    parser.add_argument("--run-shard", default=None, metavar="SPEC.json",
                        help=argparse.SUPPRESS)  # internal worker entry point
    args = parser.parse_args(argv)

    if args.run_shard is not None:
        return run_shard_spec(json.loads(Path(args.run_shard).read_text()))
    cache = cache_from_args(parser, args)

    if args.launcher == "remote":
        if not args.hosts:
            parser.error("--launcher remote needs --hosts")
        launcher: ShardLauncher = RemoteLauncher(
            args.hosts, template=args.remote_template
        )
    else:
        launcher = LAUNCHERS[args.launcher]()
    if args.chaos_kill_shard is not None and isinstance(launcher, LocalLauncher):
        parser.error("--chaos-kill-shard needs a process-based launcher "
                     "(subprocess or remote)")

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    if args.fresh:
        for path in manifest_files(state_dir):
            path.unlink()
    completed = load_manifest(state_dir)

    sizes = args.sizes
    kernels = args.kernels
    if args.quick and sizes is None:
        sizes = ["8M"]
    harness = EvaluationHarness(device=device_by_name(args.device), repeats=args.repeats)
    try:
        plan = plan_matrix(
            shards=args.shards,
            order=args.order,
            frameworks=args.frameworks,
            kernels=kernels,
            sizes=sizes,
            variants=args.variants,
            completed=completed,
            harness=harness,
        )
    except (KeyError, ValueError) as err:
        # KeyError's str() wraps the message in quotes; unwrap for the CLI.
        parser.error(err.args[0] if err.args else str(err))

    if args.dry_run:
        print(plan.describe())
        if args.no_lint:
            return 0
        # Doomed cases (lint errors) make the dry run exit 2 so scripted
        # sweeps can gate on it; warnings exit 1, a clean plan exits 0.
        return lint_plan(plan, device_name=args.device)

    events = EventWriter(args.events, echo=args.stream)

    code, merged = orchestrate(
        plan,
        state_dir=state_dir,
        launcher=launcher,
        device=args.device,
        repeats=args.repeats,
        jobs=args.jobs,
        **(cache.settings() if cache is not None else {}),
        max_cases_per_shard=args.max_cases_per_shard,
        events=events,
        output=args.output,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        straggler_timeout=args.straggler_timeout,
        chaos_kill_shard=args.chaos_kill_shard,
        chaos_kill_after=args.chaos_kill_after,
    )
    print(
        f"orchestrated {plan.planned_cases} case(s) over "
        f"{sum(1 for s in plan.shards if s.cases)} shard(s); "
        f"{len(plan.resumed)} resumed; merged report has {len(merged)} entries"
        + (f" -> {args.output}" if args.output else "")
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
