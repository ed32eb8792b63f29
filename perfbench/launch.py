"""Start the program's CLI the way the benchmark needs to watch it.

Usage::

    python3 perfbench/launch.py --op OP [--trace-out FILE] -- <repro CLI args>

Imports ``repro.cli``, prints ``perfbench-ready`` on stderr (the moment
the process is ready for its first operation), then runs
``repro.cli.main`` with the remaining arguments and exits with its
code.  With ``--trace-out`` it first installs the span wrappers of
:mod:`tracer` and writes the recorded spans to FILE when ``main``
returns, including after a SIGTERM drain of ``repro serve``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    op = own[own.index("--op") + 1]
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None

    started = time.monotonic()
    import repro.cli

    import_s = time.monotonic() - started
    recorder = None
    if trace_out is not None:
        import tracer

        recorder = tracer.Recorder(op)
        recorder.facts["import_s"] = import_s
        tracer.install(recorder)
    print("perfbench-ready", file=sys.stderr, flush=True)
    try:
        return repro.cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
