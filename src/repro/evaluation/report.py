"""Text rendering of the regenerated figures and tables + results.json export.

Usage from the command line::

    python -m repro.evaluation.report                  # everything
    python -m repro.evaluation.report --figure 4       # one figure
    python -m repro.evaluation.report --table 1        # one table
    python -m repro.evaluation.report --quick          # smallest sizes only

The paper's artifact ships a ``results.json``; this module writes the same
kind of file for the simulated runs.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Iterable

from repro.core.compile_cache import add_cache_arguments, cache_from_args
from repro.evaluation.figures import (
    FIGURE_FRAMEWORKS,
    figure4_performance,
    figure5_pw_power_energy,
    figure6_tracer_power_energy,
)
from repro.evaluation.harness import DEFAULT_CASES, BenchmarkCase, EvaluationHarness
from repro.evaluation.metrics import FrameworkResult
from repro.evaluation.tables import RESOURCE_COLUMNS, table1_pw_resources, table2_tracer_resources
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES


def _format_value(value) -> str:
    if value is None:
        return f"{'--':>10}"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:10.0f}"
        return f"{value:10.2f}"
    return f"{value:>10}"


def format_figure(series: dict[str, dict[str, float | None]], title: str, unit: str) -> str:
    """Render one figure's data as an aligned text table."""
    sizes: list[str] = []
    for framework_series in series.values():
        for size in framework_series:
            if size not in sizes:
                sizes.append(size)
    lines = [f"{title}  [{unit}]", "-" * max(len(title) + len(unit) + 4, 40)]
    header = f"{'framework':<14}" + "".join(f"{size:>11}" for size in sizes)
    lines.append(header)
    for framework in FIGURE_FRAMEWORKS:
        if framework not in series:
            continue
        row = f"{framework:<14}"
        for size in sizes:
            row += " " + _format_value(series[framework].get(size))
        lines.append(row)
    return "\n".join(lines)


def format_table(rows: list[dict], title: str) -> str:
    """Render a resource-utilisation table like Tables 1/2 of the paper."""
    lines = [title, "-" * max(len(title), 60)]
    header = f"{'FRAMEWORK':<14}{'SIZE':>8}" + "".join(f"{'%' + c:>9}" for c in RESOURCE_COLUMNS)
    lines.append(header)
    for row in rows:
        line = f"{row['framework']:<14}{row['size']:>8}"
        for column in RESOURCE_COLUMNS:
            line += f"{row[column]:>9.2f}"
        lines.append(line)
    return "\n".join(lines)


def deterministic_entry(entry: dict[str, Any]) -> dict[str, Any]:
    """Strip run-dependent noise — per-pass seconds and cache-provenance
    notes — so reports compare byte-for-byte across serial/parallel/cached
    runs."""
    entry = dict(entry)
    entry["pass_statistics"] = [
        {k: v for k, v in stat.items() if k not in ("seconds", "note")}
        for stat in entry.get("pass_statistics", [])
    ]
    return entry


def results_to_json(
    results: Iterable[FrameworkResult],
    path: str | Path | None = None,
    *,
    deterministic: bool = False,
) -> str:
    entries = [r.as_dict() for r in results]
    if deterministic:
        entries = [deterministic_entry(e) for e in entries]
    payload = json.dumps(entries, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(payload)
    return payload


def merge_results(*result_sets: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Merge JSON result lists, deduplicating by scenario identity.

    Later sets win on conflicts (a re-run supersedes stale entries); output
    order is deterministic — sorted by kernel, size, framework and variant —
    so merged reports from any shard/job split compare byte-for-byte.

    >>> stale = [{"kernel": "pw", "size": "8M", "framework": "F", "mpts": 0}]
    >>> fresh = [{"kernel": "pw", "size": "8M", "framework": "F", "mpts": 9}]
    >>> merge_results(stale, fresh)[0]["mpts"]
    9
    """
    merged: dict[tuple, dict[str, Any]] = {}
    for result_set in result_sets:
        for entry in result_set:
            key = (
                entry["kernel"],
                entry["size"],
                entry["framework"],
                entry.get("variant", "default"),
            )
            merged[key] = entry
    return [
        merged[key]
        for key in sorted(merged, key=lambda k: (k[0], str(k[1]), k[2], k[3]))
    ]


def merge_result_files(paths: Iterable[str | Path], output: str | Path | None = None) -> str:
    """Merge several ``results.json`` shards into one deterministic report."""
    merged = merge_results(*(json.loads(Path(p).read_text()) for p in paths))
    payload = json.dumps(merged, indent=2, sort_keys=True)
    if output is not None:
        Path(output).write_text(payload)
    return payload


def generate_all(results: list[FrameworkResult]) -> str:
    """Render every figure and table of the evaluation section."""
    fig4 = figure4_performance(results)
    fig5 = figure5_pw_power_energy(results)
    fig6 = figure6_tracer_power_energy(results)
    sections = [
        format_figure(fig4["pw_advection"], "Figure 4a: PW advection performance", "MPt/s"),
        format_figure(fig4["tracer_advection"], "Figure 4b: tracer advection performance", "MPt/s"),
        format_figure(fig5["power_w"], "Figure 5a: PW advection average power", "W"),
        format_figure(fig5["energy_j"], "Figure 5b: PW advection energy", "J"),
        format_figure(fig6["power_w"], "Figure 6a: tracer advection average power", "W"),
        format_figure(fig6["energy_j"], "Figure 6b: tracer advection energy", "J"),
        format_table(table1_pw_resources(results), "Table 1: resource usage, PW advection"),
        format_table(table2_tracer_resources(results), "Table 2: resource usage, tracer advection"),
    ]
    return "\n\n".join(sections)


def _quick_cases() -> list[BenchmarkCase]:
    return [
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"]),
        BenchmarkCase("tracer_advection", TRACER_ADVECTION_SIZES["8M"]),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures and tables")
    parser.add_argument("--figure", type=int, choices=(4, 5, 6), help="only this figure")
    parser.add_argument("--table", type=int, choices=(1, 2), help="only this table")
    parser.add_argument("--quick", action="store_true", help="smallest problem sizes only")
    parser.add_argument("--output", type=str, default=None, help="write results.json here")
    parser.add_argument("--repeats", type=int, default=10, help="runs to average over")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="evaluate cases over N worker processes (default: serial)")
    add_cache_arguments(parser)
    parser.add_argument("--deterministic", action="store_true",
                        help="strip wall-clock noise from --output JSON so runs compare byte-for-byte")
    parser.add_argument("--stream", action="store_true",
                        help="print a JSONL progress event per completed case "
                        "while the matrix is still running")
    args = parser.parse_args(argv)

    cache = cache_from_args(parser, args)
    harness = EvaluationHarness(repeats=args.repeats, cache=cache, jobs=max(args.jobs, 1))
    cases = _quick_cases() if args.quick else list(DEFAULT_CASES)
    on_result = None
    if args.stream:
        progress = {"done": 0}

        def on_result(case, framework, result, cached):
            progress["done"] += 1
            print(
                json.dumps(
                    {
                        "event": "case_finished",
                        "label": case.label,
                        "framework": framework,
                        "variant": case.variant,
                        "status": result.status,
                        "cached": cached,
                        "index": progress["done"],
                    },
                    sort_keys=True,
                ),
                flush=True,
            )

    results = harness.run_matrix(cases=cases, on_result=on_result)

    if args.output:
        results_to_json(results, args.output, deterministic=args.deterministic)

    if args.figure == 4:
        fig = figure4_performance(results)
        print(format_figure(fig["pw_advection"], "Figure 4a: PW advection performance", "MPt/s"))
        print()
        print(format_figure(fig["tracer_advection"], "Figure 4b: tracer advection performance", "MPt/s"))
    elif args.figure == 5:
        fig = figure5_pw_power_energy(results)
        print(format_figure(fig["power_w"], "Figure 5a: PW advection average power", "W"))
        print()
        print(format_figure(fig["energy_j"], "Figure 5b: PW advection energy", "J"))
    elif args.figure == 6:
        fig = figure6_tracer_power_energy(results)
        print(format_figure(fig["power_w"], "Figure 6a: tracer advection average power", "W"))
        print()
        print(format_figure(fig["energy_j"], "Figure 6b: tracer advection energy", "J"))
    elif args.table == 1:
        print(format_table(table1_pw_resources(results), "Table 1: resource usage, PW advection"))
    elif args.table == 2:
        print(format_table(table2_tracer_resources(results), "Table 2: resource usage, tracer advection"))
    else:
        print(generate_all(results))
    if cache is not None:
        cache.trim()
        cache.disk_bytes()
        for line in cache.stats.summary_lines():
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
