"""The repository's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload cli-cold|serve-warm|sweep-cold \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics: set-up and
per-operation CPU seconds of the program's own processes and their peak
memory, plus (on a ``perfbench-wall`` line) the wall-clock latency and
throughput the callers saw; ``--trace 1``
runs the workload twice for ``S / 2`` seconds each, untraced and then
traced, and prints the per-layer metrics plus the tracing overhead
(traced minus untraced CPU seconds per operation).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Earlier lines stamp the run (CPU count, library versions, seed, load
average at start and end, the share of CPU time stolen by other guests
of the machine), count operations per kind and list every
problem the output checks found.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT, SRC, compile_program, cpu_times, load_average, median, metric, quantile,
    steal_share)


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "load_start": load_average(), "cpu_start": cpu_times(),
    }


def end_to_end(outcome) -> dict:
    """The gated metrics: CPU time of the program's processes and memory."""
    done = len(outcome.timed_ok())
    return {
        "setup_s": metric(median(outcome.setup_cpu), "s"),
        "cpu_per_op_s": metric(outcome.busy_cpu / done, "s"),
        "peak_rss_mb": metric(median(outcome.rss_mb), "MB"),
    }


def wall_clock(outcome) -> dict:
    """What callers waited, printed beside the gated metrics."""
    latencies = [op.seconds for op in outcome.timed_ok()]
    return {
        "setup_wall_s": median(outcome.setup),
        "latency_p50_s": median(latencies),
        "latency_p90_s": quantile(latencies, 0.9),
        "throughput_ops_s": len(latencies) / outcome.busy_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    compile_program()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    from layers import per_layer

    info = stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    run = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            plain_dir, traced_dir = work / "plain", work / "traced"
            plain_dir.mkdir(parents=True)
            traced_dir.mkdir()
            plain = run(args.seed, args.seconds / 2, plain_dir, traced=False)
            traced = run(args.seed, args.seconds / 2, traced_dir, traced=True)
            outcomes = [plain, traced]
            overhead = (traced.busy_cpu / len(traced.timed_ok())
                        - plain.busy_cpu / len(plain.timed_ok()))
            timed = {op.op_id for op in traced.ops}
            if args.workload == "sweep-cold":
                rounds = {op_id.split("/")[0] for op_id in timed}

                def on_clock(op):
                    return op is not None and op.split("/")[0] in rounds
            else:
                def on_clock(op):
                    return op in timed
            metrics = per_layer(
                traced.trace_dir, on_clock, len(traced.ops),
                {op.op_id: op.seconds for op in traced.timed_ok()},
                traced.service_stats, overhead)
        else:
            work.mkdir(parents=True)
            outcome = run(args.seed, args.seconds, work, traced=False)
            outcomes = [outcome]
            metrics = end_to_end(outcome)
            info["wall"] = wall_clock(outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    info["load_end"] = load_average()
    info["steal_share"] = steal_share(info.pop("cpu_start"), cpu_times())
    wall = info.pop("wall", None)
    print("perfbench-stamp " + json.dumps(info))
    if wall is not None:
        print("perfbench-wall " + json.dumps(wall))
    ops = [op for outcome in outcomes for op in outcome.ops]
    kinds = Counter(op.kind for op in ops)
    failed_kinds = Counter(op.kind for op in ops if not op.ok)
    print("perfbench-ops " + json.dumps(
        {kind: {"attempted": kinds[kind], "failed": failed_kinds[kind]}
         for kind in sorted(kinds)}))
    problems = [p for outcome in outcomes for p in outcome.problems]
    for problem in problems:
        print(f"perfbench-problem {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(failed_kinds.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
