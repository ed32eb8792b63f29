"""Per-layer metrics from the traced run's span files.

Times are self times (a span's duration minus its children's), summed
over the spans that belong to timed operations and divided by the
number of timed operations, so each reads as "seconds of this layer per
operation".  Counts are per operation too.  The ``sweep.*`` phases and
``service.compute_s`` are inclusive times of one phase of an operation.
A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from common import metric

MIB = 1024.0 * 1024.0

class Span:
    __slots__ = ("name", "start", "end", "op", "attrs", "parent_name", "child_time")

    def __init__(self, raw: list) -> None:
        _, _, self.name, self.start, self.end, self.op, attrs = raw
        self.attrs = attrs or {}
        self.parent_name: Optional[str] = None
        self.child_time = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time

    @property
    def outermost(self) -> bool:
        """False for a call nested in a call of the same layer (the
        batched gain oracle calls the batched utility oracle)."""
        return self.parent_name != self.name


def load(paths: Iterable[Path]):
    """All spans from the span files, with parents resolved per file."""
    spans: List[Span] = []
    facts: List[Dict[str, Any]] = []
    sessions: List[Dict[str, Any]] = []
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        by_id = {}
        raw_spans = payload["spans"]
        for raw in raw_spans:
            by_id[raw[0]] = Span(raw)
        for raw in raw_spans:
            parent = by_id.get(raw[1])
            if parent is not None:
                span = by_id[raw[0]]
                span.parent_name = parent.name
                parent.child_time += span.seconds
        spans.extend(by_id.values())
        facts.append(payload["facts"])
        sessions.extend(payload["sessions"])
    return spans, facts, sessions


def per_layer(
    trace_dir: Path,
    timed: Callable[[Optional[str]], bool],
    n_ops: int,
    client_latency: Dict[str, float],
    service_stats: Optional[Dict[str, Any]],
    overhead_s: float,
) -> Dict[str, Dict[str, Any]]:
    spans, facts, sessions = load(sorted(trace_dir.glob("*.json")))
    on_clock = [s for s in spans if timed(s.op)]
    n = max(n_ops, 1)

    def named(name: str) -> List[Span]:
        return [s for s in on_clock if s.name == name]

    def self_s(name: str) -> float:
        return sum(s.self_seconds for s in named(name)) / n

    def calls(name: str) -> float:
        return sum(1 for s in named(name) if s.outermost) / n

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    batch = [s for s in named("influence.batch_oracle") if s.outermost]
    evaluations = attr_sum("core.solve", "evaluations")
    api_solves = [s for s in named("api.solve") if s.outermost]
    builds = [s for s in spans if s.name == "influence.ensemble_build"]
    imports = [f["import_s"] for f in facts if "import_s" in f]

    if service_stats is not None:
        cache = service_stats
    else:
        cache = defaultdict(int)
        for info in sessions:
            for key in ("hits", "misses", "builds", "evictions"):
                cache[key] += info[key]

    values: Dict[str, tuple] = {
        "cli.import_s": (sum(imports) / max(len(imports), 1), "s"),
        "graph.dataset_build_s": (self_s("graph.dataset_build"), "s"),
        "graph.edge_arrays_calls": (calls("graph.edge_arrays"), "count"),
        "graph.edge_arrays_s": (self_s("graph.edge_arrays"), "s"),
        "diffusion.worlds_sampled": (calls("diffusion.sample_world"), "count"),
        "diffusion.sample_worlds_s": (self_s("diffusion.sample_world"), "s"),
        "influence.store_build_s": (self_s("influence.store_build"), "s"),
        "influence.store_mb": (
            sum(s.attrs["nbytes"] for s in builds) / max(len(builds), 1) / MIB, "MB"),
        "influence.first_round_s": (
            sum(s.seconds for s in batch if s.attrs.get("empty")) / n, "s"),
        "influence.scalar_oracle_calls": (calls("influence.scalar_oracle"), "count"),
        "influence.scalar_oracle_s": (self_s("influence.scalar_oracle"), "s"),
        "influence.batch_oracle_calls": (len(batch) / n, "count"),
        "influence.batch_oracle_s": (self_s("influence.batch_oracle"), "s"),
        "influence.objective_eval_s": (self_s("influence.objective_eval"), "s"),
        "influence.repair_s": (self_s("influence.repair"), "s"),
        "influence.repaired_worlds": (
            attr_sum("influence.repair", "repaired_worlds") / n, "count"),
        "influence.resampled_edges": (
            attr_sum("influence.repair", "resampled_edges") / n, "count"),
        "influence.rrset_build_s": (self_s("influence.rrset_build"), "s"),
        "influence.rrset_count": (attr_sum("influence.rrset_build", "theta") / n, "count"),
        "influence.workers_used": (
            max((s.attrs.get("workers") or 0 for s in api_solves), default=0), "count"),
        "influence.build_workers_used": (
            max((s.attrs.get("build_workers") or 0 for s in api_solves), default=0),
            "count"),
        "core.solve_s": (self_s("core.solve"), "s"),
        "core.celf_evaluations": (evaluations / n, "count"),
        "core.celf_useful_ratio": (
            attr_sum("core.solve", "seeds") / evaluations if evaluations else 0.0,
            "ratio"),
        "api.cache_hits": (cache["hits"] / n, "count"),
        "api.cache_misses": (cache["misses"] / n, "count"),
        "api.cache_builds": (cache["builds"] / n, "count"),
        "api.cache_evictions": (cache["evictions"] / n, "count"),
        "api.serialize_s": (self_s("api.serialize"), "s"),
    }

    # Service: compute is the request's Session.solve/resolve on a solver
    # thread; queue wait is the rest of the handler's own time.
    handlers = named("service.handler")
    compute = sum(s.seconds for s in api_solves) / n if handlers else 0.0
    handler_self = sum(s.self_seconds for s in handlers) / n
    mean_latency = (sum(client_latency.values()) / len(client_latency)
                    if client_latency else 0.0)
    values["service.queue_wait_s"] = (
        max(handler_self - compute, 0.0) if handlers else 0.0, "s")
    values["service.compute_s"] = (compute, "s")
    values["service.overhead_s"] = (mean_latency - compute if handlers else 0.0, "s")

    # Sweep phases, per cell.
    cells = named("sweep.cell")
    cell_n = max(len(cells), 1)

    def in_cells(names) -> float:
        if not cells:
            return 0.0
        return sum(s.seconds for s in on_clock
                   if s.name in names and s.outermost and "/" in str(s.op)) / cell_n

    values["sweep.cell_build_s"] = (
        in_cells({"graph.dataset_build", "influence.ensemble_build"}), "s")
    values["sweep.cell_solve_s"] = (in_cells({"core.solve"}), "s")
    values["sweep.baseline_s"] = (in_cells({"sweep.baseline"}), "s")
    values["sweep.ledger_write_s"] = (
        sum(s.seconds for s in named("sweep.ledger")) / cell_n if cells else 0.0, "s")
    values["trace.overhead_s"] = (overhead_s, "s")
    return {name: metric(value, unit) for name, (value, unit) in values.items()}
