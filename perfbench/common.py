"""Helpers shared by the benchmark workloads: where the program lives,
statistics, memory, host facts and speed, and the result record."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import Any

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, state dirs and traces; listed in .gitignore.
WORK = ROOT / ".perfbench"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def ensure_program() -> None:
    """Put ``src/`` on the import path, or raise if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_dir() -> Path:
    """This run's scratch directory (removed when the run ends)."""
    path = WORK / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict[str, str]:
    """Environment for child processes: same interpreter, ``src/`` importable."""
    env = dict(os.environ)
    parts = [str(SRC), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values: list[float]) -> float:
    """The p99, or if fewer than ten samples lie beyond it, the highest of
    p95/p90/p75/p50 that has ten beyond it (the p50 for tiny samples)."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return percentile(values, pct)
    return percentile(values, 50.0)


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive samples, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


# -- memory and host --------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pid_peak_rss_mb(pid: int) -> float | None:
    """Peak resident memory of a live process (``VmHWM``), if readable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def host_facts() -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


# -- host speed --------------------------------------------------------------------

#: The reference loop's time, in ms, at the speed scaled figures assume.  On a
#: two-vCPU Xeon virtual machine its median over a run was 1.4-3.8 ms,
#: depending on the host's stretch and on the workload's process.
REFERENCE_MS = 1.5
#: How far the batch figures follow the loop.  Between a fast and a slow
#: stretch of that machine the loop's median grew 1.5-1.8x while the batch
#: figures moved by that factor to the power 0.4-1.0 (0.55 at the median).
HOST_EXPONENT = 0.6


class _Node:
    """A small IR-like object for the reference loop."""

    __slots__ = ("name", "operands", "attributes")

    def __init__(self, name: str, operands: tuple, attributes: dict) -> None:
        self.name = name
        self.operands = operands
        self.attributes = attributes


def _reference_loop() -> int:
    """Fixed pure-Python work in the program's style: small objects, tuples,
    dicts and formatted names."""
    nodes: list[_Node] = []
    table: dict[str, int] = {}
    for index in range(2000):
        name = f"op{index % 97}"
        node = _Node(name, (nodes[-1],) if nodes else (), {"index": index, "kind": name})
        table[name] = table.get(name, 0) + len(node.operands) + len(node.attributes)
        nodes.append(node)
    return len(table)


class HostSpeed:
    """How fast the host runs Python during a run, from a reference loop
    timed between units of measured work.

    A shared host's speed moves by up to a third for seconds to minutes at a
    time, and every timing in a run moves with it.  :meth:`time` and
    :meth:`rate` turn this run's figures into figures at the speed at which
    the loop takes ``REFERENCE_MS``, scaling by the ratio of the loop's
    times to the power ``HOST_EXPONENT``.  The factor comes from the loop,
    not from the program's work, so a change to the program moves a scaled
    figure by the same ratio as the measured one.  Collection is off while
    the loop runs, so it times the host rather than the garbage the program
    left.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            _reference_loop()
            self.samples_ms.append((time.perf_counter() - began) * 1000.0)
        finally:
            if enabled:
                gc.enable()

    def _scale(self) -> float:
        return (REFERENCE_MS / median(self.samples_ms)) ** HOST_EXPONENT

    def time(self, metric: Metric) -> Metric:
        """A time metric at the reference speed."""
        return Metric(metric.value * self._scale(), metric.unit, metric.samples)

    def rate(self, metric: Metric) -> Metric:
        """A rate metric at the reference speed."""
        return Metric(metric.value / self._scale(), metric.unit, metric.samples)

    def metric(self) -> Metric:
        """The reference loop's median time in this run."""
        return Metric(median(self.samples_ms), "ms", len(self.samples_ms))


# -- the result of one run ---------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples the value summarises (1 for a single measurement).
    samples: int = 1


@dataclass
class RunResult:
    """What a workload hands back: metrics plus failure accounting.

    ``native`` holds the workload's own metrics under their descriptive
    names; ``end_to_end`` maps every end-to-end metric of
    ``BENCHMARK.json`` onto this workload's measurement of it.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    native: dict[str, Metric] = field(default_factory=dict)
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: The traced run's spans and counters (a ``tracing.TraceData``).
    trace: Any = None
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record one failed operation (it was already counted as attempted)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
