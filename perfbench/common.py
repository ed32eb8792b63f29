"""Process, HTTP and statistics helpers shared by the workloads."""

from __future__ import annotations

import compileall
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"

#: Seconds any single child process or request may take before the run
#: is abandoned as hung.
HANG_SECONDS = 150.0


def child_env() -> Dict[str, str]:
    """The program's environment: ``src`` on the path, and bytecode read
    but never written, so every launch in a run sees the cache that
    :func:`compile_program` left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def compile_program() -> None:
    """Bring the bytecode of ``src/repro`` and of the benchmark's own
    modules up to date, off the clock.

    Without it each launch would compile the program's ~17k lines from
    source, or not, depending on whether something else (a test run,
    an earlier launch) had left ``.pyc`` files beside them; set-up and
    per-launch times would move by that compile cost with no change to
    the program.  Up-to-date files are kept, stale or missing ones are
    written, so every run starts from the same state.
    """
    for directory in (SRC / "repro", HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise RuntimeError(f"{directory} does not compile")


def cli_argv(args: Sequence[str], op: str, trace_out: Optional[Path]) -> List[str]:
    """The command that runs ``repro <args>``.

    Untraced: ``python -m repro.cli`` itself.  Traced: the benchmark's
    launcher, which installs the span wrappers first.
    """
    if trace_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return launcher_argv(args, op, trace_out)


def launcher_argv(args: Sequence[str], op: str, trace_out: Optional[Path]) -> List[str]:
    argv = [sys.executable, str(LAUNCH), "--op", op]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    return argv + ["--", *args]


@dataclass
class Finished:
    """One child process that ran to its end."""

    seconds: float
    code: int
    rss_mb: float
    cpu_seconds: float
    stdout: str = ""


def reap(proc: subprocess.Popen) -> tuple:
    """Wait for ``proc``: ``(exit code, peak RSS in MiB, CPU seconds)``."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu(pid: int) -> float:
    """User plus system CPU seconds a live process (all its threads) has used.

    CPU time leaves out the time the hypervisor gives to other guests,
    which wall-clock time on a shared machine does not.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def run_child(argv: Sequence[str], out_path: Path) -> Finished:
    """Run a child to completion, stdout to ``out_path``; time it whole."""
    with open(out_path, "w", encoding="utf-8") as out:
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=out,
            stderr=subprocess.DEVNULL,
        )
        try:
            code, rss, cpu = reap(proc)
        except BaseException:
            stop(proc)
            raise
        seconds = time.monotonic() - started
    return Finished(seconds, code, rss, cpu, out_path.read_text(encoding="utf-8"))


def stop(proc: subprocess.Popen, grace: float = 30.0) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps."""
    if proc.returncode is not None:
        return
    try:
        proc.send_signal(signal.SIGTERM)
        proc.wait(grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    except ProcessLookupError:
        proc.wait()


def http_call(
    port: int, method: str, path: str, body: Any = None, op: Optional[str] = None
) -> tuple:
    """One request on a fresh connection: ``(status, raw body bytes)``.

    The body is read to its last byte before returning, so the caller's
    clock covers the whole response.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HANG_SECONDS)
    try:
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers["X-Perfbench-Op"] = op
        payload = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def load_average() -> List[float]:
    return [round(x, 2) for x in os.getloadavg()]


def cpu_times() -> List[int]:
    """The machine's cumulative CPU jiffies (``/proc/stat``), or []."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests in between.

    A run slowed by neighbours shows a high share; one slowed by the
    program does not.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return round((after[7] - before[7]) / total, 4) if total > 0 else None
