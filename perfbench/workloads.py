"""The three workloads: cli-cold, serve-warm and sweep-cold.

Each workload is a closed loop driven from this process (callers wait
for their answer before sending the next request).  Its inputs are
generated from the workload seed; the program receives only the
resulting spec and delta JSON.  Execution sections stay unset, so the
program's own defaults (backend, workers, block size) are what is
measured.

A workload function returns an :class:`Outcome`: every timed operation
with its latency and whether it succeeded, the set-up samples, peak
memory of the program's processes, and the problems the output checks
found.  Checks run after the timed phase, on the answers collected
during it.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
from common import (
    HANG_SECONDS,
    Finished,
    child_env,
    cli_argv,
    http_call,
    launcher_argv,
    process_cpu,
    reap,
    run_child,
    stop,
    ROOT,
)

#: Worlds per ensemble (the paper's R) on the 500-node workloads.
R_WORLDS = 100

#: Monte Carlo cascades per checked answer.
MC_SIMS = 2000

#: The sweep graph: the paper's two-block SBM scaled to SWEEP_N nodes
#: at its average degree (edge probabilities scaled by 500 / n), which
#: puts R * n * n above the dense limit so "auto" picks sparse.
SWEEP_N = 2400
SWEEP_WORLDS = 50
SWEEP_BUDGET = 3
SWEEP_SETUPS = 5
#: The sweep graph's dataset seed and the world seeds of a round's
#: cells.  Every cell rebuilds its graph and ensemble, but always the
#: same ones; the workload seed draws the sweep seed (the baselines'
#: seeds).  How many stale entries CELF re-evaluates on this flat-gain
#: graph is set by the graph and world draw: over five seed-drawn runs
#: of nine cells, CPU per cell averaged 2.1 to 3.1 s, so a seed-drawn
#: sample made a run's cost depend on the draws its seed picked.
SWEEP_GRAPH_SEED = 0
SWEEP_WORLD_SEEDS = (0, 1, 2)
SWEEP_CELLS = len(SWEEP_WORLD_SEEDS)


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    op_id: str = ""


@dataclass
class Outcome:
    """What one pass of a workload measured.

    Times come in two clocks.  Wall-clock (``seconds`` of each op,
    ``setup``, ``busy_seconds``) is what a caller waits for.  CPU time of
    the program's own processes (``setup_cpu``, ``busy_cpu``) is the work
    the program did; unlike wall-clock it leaves out time the hypervisor
    hands to other guests of a shared machine.
    """

    ops: List[Op] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    setup_cpu: List[float] = field(default_factory=list)
    busy_seconds: float = 0.0
    busy_cpu: float = 0.0
    #: Peak RSS of each program process that served timed operations.
    rss_mb: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    trace_dir: Optional[Path] = None
    #: Counters the service reports for the timed phase (serve-warm).
    service_stats: Optional[Dict[str, Any]] = None

    def timed_ok(self) -> List[Op]:
        return [op for op in self.ops if op.ok]


# ----------------------------------------------------------------------
# spec construction
# ----------------------------------------------------------------------
def ensemble(dataset_seed: int, world_seed: int, kind: str = "worlds",
             params: Optional[Dict[str, Any]] = None,
             n_worlds: int = R_WORLDS) -> Dict[str, Any]:
    spec = {
        "dataset": "synthetic", "dataset_params": params or {},
        "dataset_seed": int(dataset_seed), "kind": kind,
        "n_worlds": n_worlds, "model": "ic", "world_seed": int(world_seed),
        "candidates": None,
    }
    if kind == "rrset":
        spec.update({"epsilon": 0.2, "delta": 0.01})
    return spec


def budget(b: int, deadline: float, fair: bool, concave: Optional[str] = "log"):
    return {"problem": "budget", "deadline": float(deadline), "fair": fair,
            "budget": int(b), "concave": concave if fair else None,
            "method": "celf"}


def cover(quota: float, deadline: float, fair: bool):
    return {"problem": "cover", "deadline": float(deadline), "fair": fair,
            "quota": float(quota), "method": "celf"}


def run_spec(ens: Dict[str, Any], solver: Dict[str, Any]) -> Dict[str, Any]:
    return {"version": 1, "ensemble": ens, "solver": solver, "execution": {}}


def _seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, count)]


def spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


# ----------------------------------------------------------------------
# in-process access to the program, for inputs and reference answers
# ----------------------------------------------------------------------
@dataclass
class GraphInfo:
    graph: Any
    assignment: Any
    n: int
    group_of: np.ndarray
    sizes: np.ndarray
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray]
    index: Dict[Any, int]


class Program:
    """The program's public API, used only off the clock.

    It rebuilds the input graphs (``build_dataset``), the program's own
    worlds (``sample_worlds`` with the spec's world seed reproduces an
    ensemble's worlds exactly) and in-process reference answers
    (``Session.solve``).  All arithmetic the checks compare against is
    in :mod:`checks`.
    """

    def __init__(self) -> None:
        from repro.api import RunSpec, Session
        from repro.api.datasets import build_dataset, register_dataset
        from repro.diffusion.worlds import sample_worlds
        from repro.graph.delta import GraphDelta

        self.RunSpec = RunSpec
        self.session = Session()
        self.build_dataset = build_dataset
        self.register_dataset = register_dataset
        self.sample_worlds = sample_worlds
        self.GraphDelta = GraphDelta
        self._graphs: Dict[str, GraphInfo] = {}
        self._worlds: Dict[str, list] = {}

    def graph(self, ens: Dict[str, Any], delta: Optional[Dict] = None) -> GraphInfo:
        key = json.dumps([ens["dataset"], ens["dataset_params"],
                          ens["dataset_seed"], delta], sort_keys=True)
        if key not in self._graphs:
            graph, assignment = self.build_dataset(
                ens["dataset"], ens["dataset_params"], ens["dataset_seed"])
            if delta is not None:
                self.GraphDelta.from_dict(delta).apply_to(graph)
            masks = assignment.masks(graph)
            nodes = graph.nodes()
            self._graphs[key] = GraphInfo(
                graph=graph, assignment=assignment, n=len(nodes),
                group_of=masks.argmax(axis=0).astype(np.int64),
                sizes=masks.sum(axis=1).astype(np.float64),
                edges=graph.edge_arrays(),
                index={label: graph.index_of(label) for label in nodes},
            )
        return self._graphs[key]

    def worlds(self, ens: Dict[str, Any], delta: Optional[Dict] = None) -> list:
        key = json.dumps([ens, delta], sort_keys=True)
        if key not in self._worlds:
            info = self.graph(ens, delta)
            worlds = self.sample_worlds(info.graph, ens["n_worlds"],
                                        seed=ens["world_seed"])
            self._worlds[key] = [
                (w.adjacency.indptr, w.adjacency.indices) for w in worlds]
        return self._worlds[key]

    def solve(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self.session.solve(self.RunSpec.from_dict(spec)).to_dict()

    def rrset_count(self, ens: Dict[str, Any], deadline: float) -> int:
        """How many RR sets an RR-set answer was estimated from (the
        sample size of its numbers, not the numbers themselves)."""
        from repro.api.specs import EnsembleSpec

        estimator = self.session.ensemble_for(EnsembleSpec.from_dict(ens))
        return int(estimator.diagnostics(deadline)["theta"])


def check_answer(prog: Program, answer: Dict[str, Any], what: str,
                 delta: Optional[Dict] = None) -> List[str]:
    """Structural checks plus an independent utility check.

    Worlds answers are re-evaluated by BFS on the program's worlds
    (``delta`` names the mutation the ensemble was repaired with); RR-set
    answers are checked by Monte Carlo cascades.
    """
    spec = answer["spec"]
    ens, solver = spec["ensemble"], spec["solver"]
    info = prog.graph(ens, delta)
    seeds = answer["seeds"]
    problems = checks.check_seeds(
        seeds, info.n, solver["budget"] if solver["problem"] == "budget" else None,
        what)
    if problems:
        return problems
    positions = [info.index[s] for s in seeds]
    k = info.sizes.size
    if ens["kind"] == "worlds":
        ours = checks.world_utilities(prog.worlds(ens, delta), info.n, positions,
                                      solver["deadline"], info.group_of, k)
        problems += checks.check_exact(answer["group_utilities"], ours, what)
    else:
        src, dst, prob = info.edges
        ours, spread = checks.mc_utilities(
            src, dst, prob, info.n, positions, solver["deadline"], info.group_of,
            k, MC_SIMS, seed=len(seeds))
        reported_se = checks.rrset_se(answer["group_utilities"], info.n,
                                      prog.rrset_count(ens, solver["deadline"]))
        problems += checks.check_mc(answer["group_utilities"], ours, spread,
                                    MC_SIMS, reported_se, what)
    if solver["problem"] == "cover":
        problems += checks.check_cover(ours, info.sizes, solver["quota"],
                                       solver["fair"], what)
    return problems


def _parse_answer(text: str) -> Optional[Dict[str, Any]]:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if isinstance(payload, list) and len(payload) == 1:
        payload = payload[0]
    return payload if isinstance(payload, dict) and "seeds" in payload else None


def _strip_timings(answer: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in answer.items() if k != "timings"}


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
CLI_SETUPS = 5


#: The 500-node workloads run on the paper's reference graph
#: (``synthetic`` with its defaults, dataset seed 0); the workload seed
#: draws the worlds, deltas and request order.  One graph draw sets how
#: hard every solve on it is, so drawing the graph from the seed would
#: make a run's latency depend on which graph its seed happened to pick.
PAPER_GRAPH_SEED = 0


def cli_round(seed: int, round_index: int) -> List[Tuple[str, Dict[str, Any]]]:
    """Six solves on the paper graph with fresh worlds: four fair budget
    solves (log and sqrt on two world samples), one unfair, one RR-set."""
    rng = np.random.default_rng([seed, 1, round_index])
    worlds_a, worlds_b = _seeds(rng, 2)
    a = ensemble(PAPER_GRAPH_SEED, worlds_a)
    b = ensemble(PAPER_GRAPH_SEED, worlds_b)
    return [
        ("fair", run_spec(a, budget(30, 20.0, True, "log"))),
        ("fair", run_spec(a, budget(30, 20.0, True, "sqrt"))),
        ("unfair", run_spec(a, budget(30, 20.0, False))),
        ("fair", run_spec(b, budget(30, 20.0, True, "log"))),
        ("fair", run_spec(b, budget(30, 20.0, True, "sqrt"))),
        ("rrset", run_spec(ensemble(PAPER_GRAPH_SEED, worlds_b, "rrset"),
                           budget(30, 20.0, True, "log"))),
    ]


def _write_specs(work: Path, tag: str, specs) -> List[str]:
    paths = []
    for i, (_, spec) in enumerate(specs):
        path = work / f"spec-{tag}-{i}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append(str(path))
    return paths


def cli_cold(seed: int, seconds: float, work: Path, traced: bool) -> Outcome:
    out = Outcome(trace_dir=(work / "traces") if traced else None)
    if traced:
        out.trace_dir.mkdir()

    def trace_file(op: str) -> Optional[Path]:
        return None if out.trace_dir is None else out.trace_dir / f"{op}.json"

    # Set-up: launching the CLI until it has parsed the first round's specs.
    paths = _write_specs(work, "0", cli_round(seed, 0))
    for i in range(CLI_SETUPS):
        op = f"setup-{i}"
        done = run_child(cli_argv(["spec", "validate", *paths], op, trace_file(op)),
                         work / "validate.out")
        if done.code != 0:
            out.problems.append(f"spec validate exited {done.code}")
        out.setup.append(done.seconds)
        out.setup_cpu.append(done.cpu_seconds)

    answers: List[Dict[str, Any]] = []
    started = time.monotonic()
    for r in itertools.count():
        specs = cli_round(seed, r)
        paths = _write_specs(work, str(r), specs)
        for (kind, _), path in zip(specs, paths):
            op = f"op-{len(out.ops)}"
            done = run_child(cli_argv(["solve", path, "--json"], op, trace_file(op)),
                             work / "solve.out")
            answer = _parse_answer(done.stdout) if done.code == 0 else None
            out.ops.append(Op(kind, done.seconds, answer is not None, op))
            out.rss_mb.append(done.rss_mb)
            out.busy_cpu += done.cpu_seconds
            if answer is not None:
                answers.append(answer)
        if time.monotonic() - started >= seconds:
            break
    out.busy_seconds = time.monotonic() - started

    prog = Program()
    for i, answer in enumerate(answers):
        out.problems += check_answer(prog, answer, f"cli answer {i}")
    return out


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
SERVE_SETUPS = 3
DELTA_EDGES = 5  # inserts, and as many reweights: a 10-edge delta


@dataclass
class ServePlan:
    warm: List[Dict[str, Any]]
    clients: List[List[Tuple[str, Any]]]
    delta_spec: Dict[str, Any]
    deltas: Dict[str, Dict[str, Any]]  # tag -> delta dict ("d1", "d1-inverse", ...)


def _make_delta(rng: np.random.Generator, info: GraphInfo) -> Tuple[Dict, Dict]:
    """A 10-edge delta (5 new edges, 5 doubled probabilities) and its inverse."""
    src, dst, prob = info.edges
    existing = set(zip(src.tolist(), dst.tolist()))
    inserts = []
    while len(inserts) < DELTA_EDGES:
        u, v = (int(x) for x in rng.integers(0, info.n, 2))
        if u != v and (u, v) not in existing and all(
                (u, v) != (a, b) for a, b, _ in inserts):
            inserts.append((u, v, 0.1))
    picks = rng.choice(src.size, DELTA_EDGES, replace=False)
    labels = info.graph.nodes()
    reweights = [(labels[int(src[e])], labels[int(dst[e])], float(prob[e]))
                 for e in picks]
    inserts = [(labels[u], labels[v], p) for u, v, p in inserts]
    delta = {"inserts": [list(e) for e in inserts], "removes": [],
             "reweights": [[u, v, min(1.0, 2 * p)] for u, v, p in reweights]}
    inverse = {"inserts": [], "removes": [[u, v] for u, v, _ in inserts],
               "reweights": [[u, v, p] for u, v, p in reweights]}
    return delta, inverse


#: Solver settings of one serve-warm round.  They are fixed, so every
#: seed runs the same cost mix; the seed picks the worlds, the deltas
#: and which slot gets which setting.  Fair budget solves
#: (B 25-35, tau 10-25, log/sqrt) are the majority and hold the median.
FAIR_SETTINGS = [(25 + (10 * i) // 13, 10 + (15 * ((5 * i) % 14)) // 13,
                  "log" if i % 2 == 0 else "sqrt") for i in range(14)]
UNFAIR_SETTINGS = [(30, 20), (25, 15), (35, 25)]
FAIR_QUOTAS = [0.07, 0.08]
UNFAIR_QUOTA = 0.1


def serve_plan(seed: int, prog: Program) -> ServePlan:
    rng = np.random.default_rng([seed, 2])
    e1, e2, ed = (ensemble(PAPER_GRAPH_SEED, w) for w in _seeds(rng, 3))
    fair_settings = iter([FAIR_SETTINGS[i] for i in rng.permutation(len(FAIR_SETTINGS))])
    unfair_settings = iter(UNFAIR_SETTINGS)
    fair_quotas = iter(FAIR_QUOTAS)

    def fair(ens):
        b, tau, concave = next(fair_settings)
        return ("solve", run_spec(ens, budget(b, tau, True, concave)))

    def unfair(ens):
        b, tau = next(unfair_settings)
        return ("stream", run_spec(ens, budget(b, tau, False)))

    def fair_cover(ens):
        return ("solve", run_spec(ens, cover(next(fair_quotas), 20.0, True)))

    info = prog.graph(ed)
    deltas = {}
    for tag in ("d1", "d2"):
        deltas[tag], deltas[f"{tag}-inverse"] = _make_delta(rng, info)
    delta_spec = run_spec(ed, budget(30, 20.0, True, "log"))
    client_a = [fair(e1), ("delta", "d1"), fair(e2), unfair(e1), fair(e1),
                ("delta", "d1-inverse"), fair(e2), fair_cover(e1), fair(e1),
                ("delta", "d2"), fair(e2), ("delta", "d2-inverse")]
    client_b = [fair(e2), fair(e1), unfair(e2), fair(e2), fair(e1),
                ("solve", run_spec(e2, cover(UNFAIR_QUOTA, 20.0, False))),
                fair(e1), fair(e2), fair(e1), fair_cover(e2), fair(e2), unfair(e1)]
    solves = [spec_key(p) for ops in (client_a, client_b) for k, p in ops if k != "delta"]
    assert len(set(solves)) == len(solves), "serve-warm solves must be distinct"
    warm = [run_spec(e1, budget(1, 20.0, False)), run_spec(e2, budget(1, 20.0, False)),
            delta_spec]
    return ServePlan(warm, [client_a, client_b], delta_spec, deltas)


def serve_warm(seed: int, seconds: float, work: Path, traced: bool) -> Outcome:
    out = Outcome(trace_dir=(work / "traces") if traced else None)
    if traced:
        out.trace_dir.mkdir()
    prog = Program()
    plan = serve_plan(seed, prog)

    for i in range(SERVE_SETUPS):
        trace_file = None if out.trace_dir is None else out.trace_dir / f"server{i}.json"
        proc, port, began = start_server(work, i, trace_file)
        try:
            for j, spec in enumerate(plan.warm):
                status, _ = http_call(port, "POST", "/v1/solve", spec,
                                      op=f"setup-{i}-{j}")
                if status != 200:
                    out.problems.append(f"warm-up solve {j} answered {status}")
            out.setup.append(time.monotonic() - began)
            out.setup_cpu.append(process_cpu(proc.pid))
        except BaseException:
            stop(proc)
            raise
        if i < SERVE_SETUPS - 1:
            shutdown_server(proc, out)
    try:
        results, stats, before = _serve_clients(plan, proc, port, seconds, out)
    finally:
        out.rss_mb.append(shutdown_server(proc, out))
    cache = stats.get("cache", {})
    out.service_stats = {key: cache.get(key, 0) - before.get(key, 0)
                         for key in ("hits", "misses", "builds", "evictions")}
    out.problems += _check_serve(prog, plan, results, stats, out)
    return out


def _serve_clients(plan: ServePlan, proc, port: int, seconds: float, out: Outcome):
    """The timed phase: both clients' closed loops against the server."""
    status, raw = http_call(port, "GET", "/v1/stats")
    before = json.loads(raw)["cache"] if status == 200 else {}

    results: List[Tuple[str, Tuple[str, Any], int, bytes, float]] = []
    lock = threading.Lock()
    counter = iter(range(10**9))
    cpu_before = process_cpu(proc.pid)
    started = time.monotonic()

    def client(ops: List[Tuple[str, Any]]) -> None:
        while True:
            for kind, payload in ops:
                with lock:
                    op = f"op-{next(counter)}"
                if kind == "delta":
                    body, path = {"spec": plan.delta_spec,
                                  "delta": plan.deltas[payload]}, "/v1/delta"
                else:
                    body = payload
                    path = "/v1/solve?stream=1" if kind == "stream" else "/v1/solve"
                tick = time.monotonic()
                try:
                    status, raw = http_call(port, "POST", path, body, op=op)
                except OSError as exc:
                    status, raw = 0, str(exc).encode()
                elapsed = time.monotonic() - tick
                with lock:
                    results.append((op, (kind, payload), status, raw, elapsed))
            if time.monotonic() - started >= seconds:
                return

    threads = [threading.Thread(target=client, args=(ops,)) for ops in plan.clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.busy_seconds = time.monotonic() - started
    out.busy_cpu = process_cpu(proc.pid) - cpu_before

    status, raw = http_call(port, "GET", "/v1/stats")
    stats = json.loads(raw) if status == 200 else {}
    return results, stats, before


def _check_serve(prog: Program, plan: ServePlan, results, stats, out: Outcome):
    """Record every timed operation and check its answer (server stopped)."""
    problems: List[str] = []
    references: Dict[str, Dict[str, Any]] = {}

    def reference(spec: Dict[str, Any]) -> Dict[str, Any]:
        key = spec_key(spec)
        if key not in references:
            references[key] = prog.solve(spec)
        return references[key]

    def delta_reference(tag: str) -> Dict[str, Any]:
        if tag.endswith("-inverse"):
            return reference(plan.delta_spec)
        key = f"delta:{tag}"
        if key not in references:
            name = f"perfbench-{tag}"
            mutated = prog.graph(plan.delta_spec["ensemble"], plan.deltas[tag])
            prog.register_dataset(
                name, lambda seed, g=mutated: (g.graph, g.assignment), replace=True)
            spec = json.loads(json.dumps(plan.delta_spec))
            spec["ensemble"]["dataset"] = name
            references[key] = prog.solve(spec)
        return references[key]

    checked = set()
    lineage = 0
    for op, (kind, payload), status, raw, elapsed in sorted(
            results, key=lambda r: int(r[0].split("-")[1])):
        answer, gains = None, None
        if status == 200:
            answer, gains = _decode(kind, raw)
        out.ops.append(Op(kind, elapsed, answer is not None, op))
        if answer is None:
            continue
        if kind == "delta":
            lineage += 1
            what = f"delta {payload} ({op})"
            depth = len(answer.get("incremental", {}).get("delta_lineage", []))
            if depth != lineage:
                problems.append(f"{what}: lineage depth {depth}, expected {lineage}")
            problems += checks.check_same(answer, delta_reference(payload), what)
            applied = None if payload.endswith("-inverse") else plan.deltas[payload]
            key = ("delta", payload)
        else:
            what = f"{kind} {op}"
            problems += checks.check_same(
                answer, reference(payload), what,
                checks.ANSWER_FIELDS + ("evaluations",))
            if gains is not None and not payload["solver"]["fair"]:
                problems += checks.check_gains(gains, what)
            applied = None
            key = ("solve", spec_key(payload))
        if key not in checked:
            checked.add(key)
            problems += check_answer(prog, answer, what, applied)

    counters, cache = stats.get("counters", {}), stats.get("cache", {})
    for name in ("deduped", "errors", "shed", "timeouts"):
        if counters.get(name) != 0:
            problems.append(f"/v1/stats: {name} = {counters.get(name)}")
    if cache.get("evictions") != 0:
        problems.append(f"/v1/stats: evictions = {cache.get('evictions')}")
    if cache.get("builds") != len(plan.warm):
        problems.append(
            f"/v1/stats: {cache.get('builds')} builds for {len(plan.warm)} ensembles")
    return problems


def _decode(kind: str, raw: bytes):
    """A response body as (answer, streamed gains or None)."""
    try:
        if kind != "stream":
            answer = json.loads(raw)
            return (answer if "seeds" in answer else None), None
        gains, answer = [], None
        for line in raw.decode("utf-8").splitlines():
            event = json.loads(line)
            if event.get("event") == "step":
                gains.append(event["gain"])
            elif event.get("event") == "result":
                answer = event["result"]
        if answer is not None and len(gains) != answer["seed_count"]:
            return None, None
        return answer, gains
    except (ValueError, KeyError, TypeError):
        return None, None


def start_server(work: Path, index: int, trace_file: Optional[Path]):
    """Launch ``repro serve --port 0``; return (proc, port, launch time)."""
    argv = cli_argv(["serve", "--port", "0"], "server", trace_file)
    log = work / f"server{index}.err"
    began = time.monotonic()
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
    marker = "listening on http://"
    while time.monotonic() - began < HANG_SECONDS:
        text = log.read_text(encoding="utf-8")
        if marker in text:
            address = text.split(marker, 1)[1].split()[0]
            return proc, int(address.rsplit(":", 1)[1]), began
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    stop(proc)
    raise RuntimeError(f"repro serve did not start: {log.read_text()}")


def shutdown_server(proc, out: Outcome) -> float:
    """SIGTERM (the service drains and exits), reap; peak RSS in MiB."""
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + HANG_SECONDS
    while time.monotonic() < deadline:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                out.problems.append(f"repro serve exited {proc.returncode}")
            return usage.ru_maxrss / 1024.0
        time.sleep(0.01)
    stop(proc)
    out.problems.append("repro serve did not drain")
    return 0.0


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def sweep_spec(seed: int, round_index: int) -> Dict[str, Any]:
    """One round: a sweep over the world seeds of the fixed graph, so
    every cell builds its own ensemble."""
    (sweep_seed,) = _seeds(np.random.default_rng([seed, 3, round_index]), 1)
    scale = 500.0 / SWEEP_N
    params = {"n": SWEEP_N, "p_hom": 0.025 * scale, "p_het": 0.001 * scale}
    return {
        "version": 1,
        "sweep": {"name": f"perfbench-{seed}-{round_index}", "seed": sweep_seed,
                  "replicates": 1, "derive_seeds": False,
                  "axes": {"ensemble.world_seed": list(SWEEP_WORLD_SEEDS)},
                  "cells": [], "baselines": ["random", "degree"]},
        "base": run_spec(ensemble(SWEEP_GRAPH_SEED, 0, params=params,
                                  n_worlds=SWEEP_WORLDS),
                         budget(SWEEP_BUDGET, 20.0, True, "log")),
    }


def sweep_cold(seed: int, seconds: float, work: Path, traced: bool) -> Outcome:
    out = Outcome(trace_dir=(work / "traces") if traced else None)
    if traced:
        out.trace_dir.mkdir()
    # Set-up: launching the CLI until it has validated the first sweep.
    first = work / "sweep-setup.json"
    first.write_text(json.dumps(sweep_spec(seed, 0)), encoding="utf-8")
    for i in range(SWEEP_SETUPS):
        op = f"setup-{i}"
        trace_file = None if out.trace_dir is None else out.trace_dir / f"{op}.json"
        done = run_child(cli_argv(["spec", "validate", str(first)], op, trace_file),
                         work / "validate.out")
        if done.code != 0:
            out.problems.append(f"spec validate exited {done.code}")
        out.setup.append(done.seconds)
        out.setup_cpu.append(done.cpu_seconds)

    rounds = []
    started = time.monotonic()
    while True:
        r = len(rounds)
        spec_path, out_dir = work / f"sweep{r}.json", work / f"out{r}"
        spec_path.write_text(json.dumps(sweep_spec(seed, r)), encoding="utf-8")
        trace_file = None if out.trace_dir is None else out.trace_dir / f"round{r}.json"
        argv = launcher_argv(["sweep", str(spec_path), "--out", str(out_dir)],
                             f"round{r}", trace_file)
        launched = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, bufsize=1)
        ready, marks, ready_cpu, last_cpu = None, [], 0.0, 0.0
        try:
            for line in proc.stderr:
                now = time.monotonic()
                if line.startswith("perfbench-ready"):
                    ready, ready_cpu = now, process_cpu(proc.pid)
                elif line.startswith("cell "):
                    marks.append(now)
                    last_cpu = process_cpu(proc.pid)
        finally:
            proc.stderr.close()
            code, rss, _ = reap(proc)
        out.rss_mb.append(rss)
        if ready is None:
            out.problems.append(f"sweep round {r} never became ready (exit {code})")
            ready = launched
        previous = ready
        for i in range(SWEEP_CELLS):
            if i < len(marks) and code == 0:
                out.ops.append(Op("cell", marks[i] - previous, True, f"round{r}/{i}"))
                previous = marks[i]
            else:
                out.ops.append(Op("cell", 0.0, False, f"round{r}/{i}"))
        if marks:
            out.busy_seconds += marks[-1] - ready
            out.busy_cpu += last_cpu - ready_cpu
        rounds.append((spec_path, out_dir))
        if time.monotonic() - started >= seconds:
            break

    # Every row gets the structural checks; the first row of each round
    # also gets its utilities recomputed (rebuilding a cell's graph and
    # worlds costs most of a second, so checking every cell would double
    # the run's length).
    prog = Program()
    for r, (spec_path, out_dir) in enumerate(rounds):
        jsonl = out_dir / "cells.jsonl"
        rows = ([json.loads(line) for line in jsonl.read_text().splitlines()]
                if jsonl.exists() else [])
        for i, row in enumerate(rows):
            what = f"sweep round {r} cell {row['index']}"
            out.problems += (check_row(prog, row, what) if i == 0
                             else check_row_structure(row, what))
        if r == 0 and rows:
            out.problems += check_cell_rerun(spec_path, rows[0], work)
    if out.trace_dir is not None:
        out.problems += check_backends(out.trace_dir.glob("round*.json"))
    return out


def check_row_structure(row: Dict[str, Any], what: str) -> List[str]:
    """Every method spent the budget on distinct seeds of the graph."""
    n = row["spec"]["ensemble"]["dataset_params"]["n"]
    budget_ = row["spec"]["solver"]["budget"]
    problems = []
    for name, method in row["methods"].items():
        problems += checks.check_seeds(method["seeds"], n, budget_, f"{what} {name}")
    return problems


def check_row(prog: Program, row: Dict[str, Any], what: str) -> List[str]:
    """Structure, then every method's utilities recomputed exactly by BFS
    on the cell's worlds.

    Monte Carlo cannot check these numbers without misfiring: they are
    means over 50 worlds of a sparse graph, and a minority group's count
    is rare and clumped (a random baseline read 0.10 in-sample where
    2000 cascades gave 0.011 — one world with a five-node cascade), far
    outside any normal-approximation tolerance.  Greedy's numbers carry
    the winner's curse on top (7.08 in-sample against 4.34 by Monte
    Carlo on one cell).  On the same worlds there is no sampling error.
    """
    problems = check_row_structure(row, what)
    if problems:
        return problems
    ens, solver = row["spec"]["ensemble"], row["spec"]["solver"]
    info = prog.graph(ens)
    worlds = prog.worlds(ens)
    for name, method in row["methods"].items():
        reported = np.asarray(method["group_fractions"]) * info.sizes
        positions = [info.index[s] for s in method["seeds"]]
        ours = checks.world_utilities(worlds, info.n, positions, solver["deadline"],
                                      info.group_of, info.sizes.size)
        problems += checks.check_exact(reported, ours, f"{what} {name}")
    return problems


def check_cell_rerun(spec_path: Path, row: Dict[str, Any], work: Path) -> List[str]:
    """``repro sweep --cell`` reproduces the row, on the sparse backend."""
    trace_file = work / "rerun-trace.json"
    done: Finished = run_child(
        launcher_argv(["sweep", str(spec_path), "--cell", row["fingerprint"]],
                      "rerun", trace_file), work / "rerun.out")
    what = f"sweep --cell {row['fingerprint'][:12]}"
    if done.code != 0:
        return [f"{what} exited {done.code}"]
    rerun = json.loads(done.stdout)
    problems = []
    if _strip_timings(rerun) != _strip_timings(row):
        problems.append(f"{what}: row differs from the in-sweep row")
    return problems + check_backends([trace_file])


def check_backends(trace_files) -> List[str]:
    """Every distance store a sweep built must be sparse."""
    problems = []
    for path in trace_files:
        spans = json.loads(Path(path).read_text())["spans"]
        backends = {(s[6] or {}).get("backend") for s in spans
                    if s[2] == "influence.store_build"}
        if backends != {"sparse"}:
            problems.append(f"{Path(path).name}: auto picked {sorted(map(str, backends))}")
    return problems


WORKLOADS = {"cli-cold": cli_cold, "serve-warm": serve_warm, "sweep-cold": sweep_cold}
