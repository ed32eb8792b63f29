"""Span and counter recording for the traced benchmark run.

The benchmark wraps public functions of the program from its own files
(nothing inside ``src/`` is edited): :func:`install` replaces a fixed
list of module and class attributes with thin wrappers that open a span
around each call.  A span is ``(id, parent, name, start, end, op,
attrs)``; ``parent`` is the span that was open in the same context when
this one began (a :mod:`contextvars` variable, so asyncio tasks and
threads each nest on their own), ``op`` is the benchmark operation the
work belongs to.  Everything is kept in memory and written as one JSON
file when the process ends (:meth:`Recorder.dump`).

Operation ids reach the program as follows: a CLI or sweep process gets
its id from the launcher; a sweep cell gets ``<process op>/<cell
index>``; a service request carries an ``X-Perfbench-Op`` header, and
the work the service hands to its solver threads is matched back to the
request through the parsed spec object.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

OP_HEADER = "x-perfbench-op"

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
_OP = contextvars.ContextVar("perfbench_op", default=None)


class Recorder:
    """In-memory spans plus process facts, dumped once at exit."""

    def __init__(self, default_op: Optional[str]) -> None:
        self.default_op = default_op
        self.spans: List[tuple] = []
        self.facts: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Spec object id -> op id, for service work run on solver threads.
        self._pending: Dict[int, str] = {}
        # Strong references: a CLI's session is gone by the time main()
        # returns, and its cache counters are read after that.
        self._sessions: List[Any] = []

    def current_op(self) -> Optional[str]:
        op = _OP.get()
        return self.default_op if op is None else op

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        op_token = _OP.set(op) if op is not None else None
        attrs: Dict[str, Any] = {}
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            if op_token is not None:
                _OP.reset(op_token)
            _CURRENT.reset(token)
            # A tuple of atoms (no attrs dict when empty) drops out of the
            # cyclic GC's tracking, so thousands of spans do not slow
            # every collection of the traced process.
            self.spans.append(
                (sid, parent, name, start, end, op or self.current_op(), attrs or None)
            )

    def remember_spec(self, spec: Any) -> None:
        op = _OP.get()
        if op is not None:
            with self._lock:
                self._pending[id(spec)] = op

    def op_for_spec(self, spec: Any) -> Optional[str]:
        with self._lock:
            return self._pending.pop(id(spec), None)

    def dump(self, path: str) -> None:
        sessions = [session.cache_info for session in self._sessions]
        payload = {"spans": self.spans, "facts": self.facts, "sessions": sessions}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _span_call(rec: Recorder, name: str, after=None, before=None):
    """Wrapper factory: one span per call, optional attribute hooks."""

    def make(original):
        def wrapper(*args, **kwargs):
            with rec.span(name) as attrs:
                if before is not None:
                    before(attrs, args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args, kwargs, result)
                return result

        return wrapper

    return make


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    import repro.api.session as session_mod
    import repro.diffusion.worlds as worlds_mod
    import repro.influence.ensemble as ensemble_mod
    import repro.influence.rrsets as rrsets_mod
    import repro.sweep.runner as sweep_runner
    from repro.graph.digraph import DiGraph

    Session = session_mod.Session
    RunResult = session_mod.RunResult
    WorldEnsemble = ensemble_mod.WorldEnsemble

    # graph
    _wrap(session_mod, "build_dataset", _span_call(rec, "graph.dataset_build"))
    _wrap(DiGraph, "edge_arrays", _span_call(rec, "graph.edge_arrays"))

    # diffusion: one span per sampled world (the ensemble looks the
    # sampler up through ``sampler_for`` at call time).
    _wrap(worlds_mod, "sample_ic_world", _span_call(rec, "diffusion.sample_world"))
    _wrap(worlds_mod, "sample_lt_world", _span_call(rec, "diffusion.sample_world"))

    # influence
    def ensemble_built(attrs, args, kwargs, result):
        attrs["nbytes"] = int(args[0].nbytes)

    _wrap(WorldEnsemble, "__init__",
          _span_call(rec, "influence.ensemble_build", after=ensemble_built))

    def store_built(attrs, args, kwargs, result):
        attrs["backend"] = result.name

    _wrap(ensemble_mod, "make_backend",
          _span_call(rec, "influence.store_build", after=store_built))

    def batch_state(attrs, args, kwargs):
        state = args[1] if len(args) > 1 else kwargs.get("state")
        attrs["empty"] = len(getattr(state, "seed_positions", ()) or ()) == 0

    for cls in (WorldEnsemble, rrsets_mod.RRSetEstimator):
        _wrap(cls, "candidate_group_utilities",
              _span_call(rec, "influence.scalar_oracle"))
        for attr in ("candidate_group_utilities_batch", "candidate_gains_batch"):
            _wrap(cls, attr,
                  _span_call(rec, "influence.batch_oracle", before=batch_state))
        _wrap(cls, "group_utilities", _span_call(rec, "influence.objective_eval"))

    def repaired(attrs, args, kwargs, result):
        attrs["repaired_worlds"] = int(result.repaired_worlds)
        attrs["resampled_edges"] = int(result.resampled_edges)

    _wrap(WorldEnsemble, "apply_delta",
          _span_call(rec, "influence.repair", after=repaired))

    def rr_built(attrs, args, kwargs, result):
        attrs["theta"] = int(result.theta)

    _wrap(rrsets_mod.RRSetEstimator, "_build_index",
          _span_call(rec, "influence.rrset_build", after=rr_built))

    # core
    def solved(attrs, args, kwargs, result):
        attrs["evaluations"] = int(result.trace.total_evaluations)
        attrs["seeds"] = len(result.seeds)

    for attr in ("solve_budget_spec", "solve_cover_spec"):
        _wrap(session_mod, attr, _span_call(rec, "core.solve", after=solved))

    # api: Session.solve / resolve are the compute of one request.
    def api_call(original):
        def wrapper(self, spec, *args, **kwargs):
            op = rec.op_for_spec(spec)
            with rec.span("api.solve", op=op) as attrs:
                result = original(self, spec, *args, **kwargs)
                execution = result.spec.execution
                attrs["workers"] = execution.workers
                attrs["build_workers"] = execution.build_workers
                return result

        return wrapper

    _wrap(Session, "solve", api_call)
    _wrap(Session, "resolve", api_call)

    def session_init(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            rec._sessions.append(self)

        return wrapper

    _wrap(Session, "__init__", session_init)
    _wrap(RunResult, "to_dict", _span_call(rec, "api.serialize"))

    # sweep
    def cell_call(original):
        def wrapper(sweep, cell, session):
            op = f"{rec.current_op()}/{cell.index}"
            with rec.span("sweep.cell", op=op):
                return original(sweep, cell, session)

        return wrapper

    _wrap(sweep_runner, "solve_cell", cell_call)
    _wrap(sweep_runner, "baseline_seeds", _span_call(rec, "sweep.baseline"))
    for attr in ("_dump_row", "write_csv", "rank_shift_report"):
        _wrap(sweep_runner, attr, _span_call(rec, "sweep.ledger"))

    # service: imported lazily by the CLI, so wrap only if importable.
    import repro.service.app as app_mod

    SolveService = app_mod.SolveService
    _wrap(app_mod, "send_json", _async_span(rec, "api.serialize"))

    def parse_spec(original):
        def wrapper(self, data):
            spec = original(self, data)
            rec.remember_spec(spec)
            return spec

        return wrapper

    _wrap(SolveService, "_parse_spec", parse_spec)

    def handler(original):
        async def wrapper(self, request, writer):
            op = request.headers.get(OP_HEADER)
            with rec.span("service.handler", op=op):
                return await original(self, request, writer)

        return wrapper

    _wrap(SolveService, "_handle_solve", handler)
    _wrap(SolveService, "_handle_delta", handler)


def _async_span(rec: Recorder, name: str):
    def make(original):
        async def wrapper(*args, **kwargs):
            with rec.span(name):
                return await original(*args, **kwargs)

        return wrapper

    return make
