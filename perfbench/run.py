"""The benchmark's single command.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 15 --trace 0

runs one workload (see ``perfbench/README.md`` for the four and why each
was chosen) against the program in ``src/``, checks its outputs against
independent references, prints a summary with every metric by name, unit
and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate traced measurement reports the per-layer ones.
The exit code is 0 when every operation succeeded and every gate held.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

compares two result sets written with ``--out``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

WORKLOADS: dict[str, str] = {
    "paper-matrix": "paper_matrix",
    "ablation-sweep": "ablation_sweep",
    "served-mix": "served_mix",
    "validate-sim": "validate_sim",
}


class Clock:
    """Marks the end of set-up: the first timed operation is about to start."""

    def __init__(self) -> None:
        self.setup_s: float | None = None

    def setup_done(self) -> None:
        if self.setup_s is None:
            self.setup_s = time.perf_counter() - _START


def _load_config() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _summary(workload: str, args: argparse.Namespace, result: common.RunResult,
             host: dict) -> list[str]:
    lines = [
        f"perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        "host: " + " ".join(f"{key}={value!r}" for key, value in host.items()),
    ]
    for name, metric in result.native.items():
        lines.append(f"  {name:<30} {metric.value:>14.6g} {metric.unit:<6} (n={metric.samples})")
    lines.append("end-to-end (batch workloads: rates and times at the reference host speed):")
    for name, metric in result.end_to_end.items():
        lines.append(f"  {name:<30} {metric.value:>14.6g} {metric.unit:<6} (n={metric.samples})")
    share = result.failed / result.attempted if result.attempted else 1.0
    lines.append(
        f"  {'failed_share':<30} {share:>14.6g} {'ratio':<6} "
        f"({result.failed} failed / {result.attempted} attempted)"
    )
    for key, value in result.notes.items():
        lines.append(f"  {key}: {json.dumps(value)}")
    for message in result.failures:
        lines.append(f"  FAILED {message}")
    if args.trace:
        for name, value in result.per_layer.items():
            if value:
                lines.append(f"  {name:<46} {value:>14.6g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also append this run's full record to FILE (JSONL)")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two result sets written with --out")
    args = parser.parse_args(argv)

    try:
        config = _load_config()
    except (OSError, json.JSONDecodeError) as err:
        print(f"perfbench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], config)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        common.ensure_program()
    except common.ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    clock = Clock()
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), clock)
    except Exception:  # noqa: BLE001 - report the crash, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(common.run_dir(), ignore_errors=True)
    setup = common.Metric(clock.setup_s, "s")
    result.native = {"setup_s": setup, **result.native}
    result.end_to_end["setup_s"] = setup

    host = common.host_facts()
    for line in _summary(args.workload, args, result, host):
        print(line)

    if result.trace is not None:
        # The spans were kept in memory until now; the file holds every
        # span's bucket, self time, root start and thread.
        common.write_json(
            common.WORK / f"trace-{args.workload}-seed{args.seed}.json",
            {"per_layer": result.per_layer, **result.trace.to_json()},
        )
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    source = result.per_layer if args.trace else {
        name: metric.value for name, metric in result.end_to_end.items()
    }
    metrics = {
        entry["name"]: {"value": source[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
            "native": {
                name: {"value": m.value, "unit": m.unit, "samples": m.samples}
                for name, m in result.native.items()
            },
        }
        with Path(args.out).open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
