"""Command line entry points.

* ``shmls-compile`` — compile one of the benchmark kernels (or report its
  plan/design summary), the equivalent of the paper artifact's ``all-xdsl`` +
  ``vitis`` Makefile targets.
* ``shmls-bench`` — regenerate the evaluation figures/tables, the equivalent
  of ``benchmarks/run_benchmarks.py`` + the plotting scripts.
* ``shmls-orchestrate`` — plan, shard and run the scenario matrix across
  workers, grouping each module's cases on one shard, with streaming
  JSONL progress and a resumability manifest (see
  ``docs/orchestration.md``).
* ``shmls-serve`` — the compile-as-a-service front door: an asyncio HTTP
  server streaming per-case results as JSONL, answering warm requests
  straight from the cache, coalescing identical in-flight requests and
  shedding load past a bounded in-flight queue (see ``docs/service.md``).
* ``shmls-lint`` — semantic lint over kernels, planned sweeps and the
  seeded-defect diagnostics corpus (``--verify-diagnostics``); exit code
  distinguishes clean/warnings/errors (see ``docs/analysis.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.compile_cache import add_cache_arguments, cache_from_args
from repro.core.config import CompilerOptions
from repro.core.pipeline import StencilHMLSCompiler
from repro.ir.pass_registry import PipelineParseError
from repro.evaluation import report as report_module
from repro.fpga.device import device_by_name
from repro.ir.printer import print_module
from repro.kernels.grids import PW_ADVECTION_SIZES, TRACER_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection

_KERNELS = {
    "pw_advection": (build_pw_advection, PW_ADVECTION_SIZES),
    "tracer_advection": (build_tracer_advection, TRACER_ADVECTION_SIZES),
}


def main_compile(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compile a benchmark kernel with Stencil-HMLS")
    parser.add_argument("kernel", choices=sorted(_KERNELS), help="kernel to compile")
    parser.add_argument("--size", default="8M", help="problem size label (default 8M)")
    parser.add_argument("--device", default="Alveo U280", help="target device")
    parser.add_argument("--no-pack", action="store_true", help="disable 512-bit interface packing")
    parser.add_argument("--no-split", action="store_true", help="disable the per-field dataflow split")
    parser.add_argument("--single-bundle", action="store_true", help="share one AXI bundle between all arguments")
    parser.add_argument(
        "--pass-pipeline",
        default=None,
        metavar="SPEC",
        help="textual middle-end pipeline spec, e.g. "
        '"canonicalize,convert-stencil-to-hls{pack=0},convert-hls-to-llvm"',
    )
    parser.add_argument("--timing", action="store_true",
                        help="print per-pass statistics (and cache hit/miss counts)")
    add_cache_arguments(parser)
    parser.add_argument("--print-hls", action="store_true", help="print the HLS-dialect IR")
    parser.add_argument("--print-llvm", action="store_true", help="print the annotated LLVM-dialect IR")
    parser.add_argument("--metadata", default=None, help="write xclbin metadata JSON to this path")
    args = parser.parse_args(argv)
    cache = cache_from_args(parser, args)

    builder, sizes = _KERNELS[args.kernel]
    if args.size not in sizes:
        parser.error(f"unknown size '{args.size}' for {args.kernel} (known: {', '.join(sizes)})")
    shape = sizes[args.size].shape

    options = CompilerOptions(
        pack_interfaces=not args.no_pack,
        split_compute_per_field=not args.no_split,
        separate_bundles=not args.single_bundle,
    )
    device = device_by_name(args.device)
    compiler = StencilHMLSCompiler(options, device, pass_pipeline=args.pass_pipeline, cache=cache)
    module = builder(shape)
    try:
        xclbin = compiler.compile(module)
    except PipelineParseError as err:
        parser.error(str(err))
    except ValueError as err:
        if args.pass_pipeline is None:
            raise
        # Bad user-provided pipeline (missing stage, bad option value, …):
        # report it as CLI usage feedback, not a traceback.
        parser.error(f"--pass-pipeline: {err}")

    print(f"compiled {args.kernel} @ {args.size} for {device.name}")
    for key, value in xclbin.summary().items():
        print(f"  {key:<16}: {value}")
    if cache is not None:
        cache.trim()
    if args.timing:
        print("per-pass statistics:")
        for stat in compiler.pass_statistics:
            status = "changed" if stat.changed else "no change"
            if stat.note:
                status += f" ({stat.note})"
            print(f"  {stat.name:<44} {stat.seconds * 1e3:9.3f} ms  {status}")
        if cache is not None:
            cache.disk_bytes()
            for line in cache.stats.summary_lines():
                print(line)
    if args.print_hls and xclbin.hls_module is not None:
        print(print_module(xclbin.hls_module))
    if args.print_llvm and xclbin.llvm_module is not None:
        print(print_module(xclbin.llvm_module))
    if args.metadata:
        path = xclbin.save_metadata(args.metadata)
        print(f"metadata written to {path}")
    return 0


def main_bench(argv: list[str] | None = None) -> int:
    return report_module.main(argv)


def main_orchestrate(argv: list[str] | None = None) -> int:
    from repro.evaluation import orchestrator

    return orchestrator.main(argv)


def main_serve(argv: list[str] | None = None) -> int:
    from repro.service import server

    return server.main(argv)


def main_lint(argv: list[str] | None = None) -> int:
    from repro.tools import lint

    return lint.main(argv)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_compile())
