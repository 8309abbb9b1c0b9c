"""Evaluation metrics, matching §4 of the paper.

* performance in million points per second (MPt/s) = problem size / kernel
  execution time;
* average power draw in watts over the kernel execution;
* energy in joules = average power × execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def megapoints_per_second(points: int, runtime_s: float) -> float:
    """The paper's performance metric."""
    if runtime_s <= 0:
        return 0.0
    return points / runtime_s / 1e6


def energy_joules(average_power_w: float, runtime_s: float) -> float:
    """The paper's energy metric (method of [13])."""
    return average_power_w * runtime_s


@dataclass
class FrameworkResult:
    """One (framework, kernel, problem size) evaluation outcome."""

    framework: str
    kernel: str
    size_label: str
    points: int
    #: Pipeline variant evaluated (see ``evaluation.harness.PIPELINE_VARIANTS``).
    variant: str = "default"
    status: str = "ok"            # 'ok' | 'compile_failed' | 'deadlock' | 'unsupported'
    mpts: float = 0.0
    runtime_s: float = 0.0
    average_power_w: float = 0.0
    energy_j: float = 0.0
    achieved_ii: int = 0
    compute_units: int = 0
    utilisation: dict[str, float] = field(default_factory=dict)
    error: str = ""
    notes: list[str] = field(default_factory=list)
    #: Per-pass compilation statistics (name/seconds/changed dicts) for
    #: pass-based flows; empty for baselines without a pass pipeline.
    pass_statistics: list[dict[str, Any]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"

    @property
    def compiled(self) -> bool:
        return self.status in ("ok", "deadlock")

    def as_dict(self) -> dict[str, Any]:
        return {
            "framework": self.framework,
            "kernel": self.kernel,
            "size": self.size_label,
            "points": self.points,
            "variant": self.variant,
            "status": self.status,
            "mpts": self.mpts,
            "runtime_s": self.runtime_s,
            "average_power_w": self.average_power_w,
            "energy_j": self.energy_j,
            "achieved_ii": self.achieved_ii,
            "compute_units": self.compute_units,
            "utilisation": self.utilisation,
            "error": self.error,
            "notes": self.notes,
            "pass_statistics": self.pass_statistics,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "FrameworkResult":
        """Rebuild a result from :meth:`as_dict` output (cache / JSON merge).

        Raises :class:`ValueError` when ``payload`` is not such a dict: not
        a dict at all, a required key missing, or a field of the wrong kind.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a result entry must be a dict, not {type(payload).__name__}")
        try:
            return cls(
                framework=payload["framework"],
                kernel=payload["kernel"],
                size_label=payload["size"],
                points=payload["points"],
                variant=payload.get("variant", "default"),
                status=payload.get("status", "ok"),
                mpts=payload.get("mpts", 0.0),
                runtime_s=payload.get("runtime_s", 0.0),
                average_power_w=payload.get("average_power_w", 0.0),
                energy_j=payload.get("energy_j", 0.0),
                achieved_ii=payload.get("achieved_ii", 0),
                compute_units=payload.get("compute_units", 0),
                utilisation=dict(payload.get("utilisation", {})),
                error=payload.get("error", ""),
                notes=list(payload.get("notes", [])),
                pass_statistics=[dict(s) for s in payload.get("pass_statistics", [])],
            )
        except (KeyError, TypeError) as err:
            raise ValueError(f"not a result entry: {type(err).__name__}: {err}") from err


def speedup(result: FrameworkResult, baseline: FrameworkResult) -> float:
    """How much faster ``result`` is than ``baseline`` (by MPt/s)."""
    if baseline.mpts <= 0:
        return float("inf")
    return result.mpts / baseline.mpts


def energy_ratio(baseline: FrameworkResult, result: FrameworkResult) -> float:
    """How many times more energy ``baseline`` uses than ``result``."""
    if result.energy_j <= 0:
        return float("inf")
    return baseline.energy_j / result.energy_j
