"""Launch ``shmls-serve`` with the benchmark's spans installed.

    python3 perfbench/serve_traced.py --trace-out FILE -- <shmls-serve arguments>

Wraps the layers' entry points in this process (including
``CompileService.handle_compile_request`` and the ``parse_request`` and
``request_digest`` names the server resolves), runs the server until it
is stopped, then writes the recorded spans and counters to ``FILE``.
``SIGUSR1`` restarts the counters, so they cover only the timed schedule.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args
    common.ensure_program()

    from repro.service import server
    from tracing import Recorder, install

    recorder = Recorder()
    uninstall = install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.mark())
    try:
        code = server.main(server_args)
    finally:
        uninstall()
        common.write_json(args.trace_out, recorder.export().to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
