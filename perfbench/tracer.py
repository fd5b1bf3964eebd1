"""In-memory span tracer that wraps ``repro`` functions from the outside.

Every layer of the evaluation pipeline is traced by replacing one public
name with a wrapper that opens a span around the original call. Each
name is patched where it is *called*, so a function bound into a module
with ``from ... import`` is captured too (for example
``repro.pipeline.engine.topology_fingerprint``), and solver backends are
wrapped in the solver registry that dispatches them. Nothing under
``src/`` changes: :meth:`Tracer.install` patches, :meth:`Tracer.remove`
restores the originals, so untraced calls run the library untouched.

A span records its name, start, end, parent span, thread, the timed call
it belongs to, the work item (grid shard) it ran under, and a few
attributes (LP sizes, HiGHS iterations, cache hit). Self time is a
span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time
from statistics import median

#: Self-check tolerance: per-item layer self times plus the job overhead
#: must reproduce the traced call's wall time to within this share.
ACCOUNTING_TOLERANCE = 0.01


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int
    call: "int | None"
    item: "int | None"
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _linprog_attrs(args, kwargs, outcome) -> dict:
    return {
        "nnz": kwargs["A_ub"].nnz + kwargs["A_eq"].nnz,
        "nit": int(outcome.nit),
        "status": int(outcome.status),
    }


def _cache_get_attrs(args, kwargs, outcome) -> dict:
    return {"hit": outcome is not None}


def _hop_sum_attrs(args, kwargs, outcome) -> dict:
    sources = len({u for u, _ in args[1].demands})
    cap = kwargs.get("max_sources")
    return {"sources": sources if cap is None else min(cap, sources)}


#: (module, attribute path, span name, attribute extractor). A dotted
#: attribute path patches a class attribute (a method).
MODULE_WRAPPERS = (
    ("repro.pipeline.scenario", "TopologySpec.build", "topology.build", None),
    ("repro.pipeline.scenario", "make_traffic", "traffic.build", None),
    ("repro.traffic.vdc", "vdc_timeline", "timeline.build", None),
    (
        "repro.traffic.timeline",
        "TrafficTimeline.step_fingerprints",
        "timeline.fingerprint",
        None,
    ),
    (
        "repro.pipeline.engine",
        "topology_fingerprint",
        "fingerprint.topology",
        None,
    ),
    (
        "repro.pipeline.replay",
        "topology_fingerprint",
        "fingerprint.topology",
        None,
    ),
    ("repro.pipeline.engine", "traffic_fingerprint", "fingerprint.traffic", None),
    ("repro.pipeline.cache", "ResultCache.get", "cache.get", _cache_get_attrs),
    ("repro.pipeline.cache", "ResultCache.put", "cache.put", None),
    ("repro.flow.edge_lp", "linprog", "flow.highs", _linprog_attrs),
    ("repro.flow.incremental", "EdgeLPModel.__init__", "incremental.build", None),
    (
        "repro.flow.incremental",
        "EdgeLPModel.apply_demand_delta",
        "incremental.delta",
        None,
    ),
    ("repro.flow.incremental", "EdgeLPModel.solve_result", "incremental.solve", None),
    ("repro.flow.incremental", "linprog", "incremental.highs", _linprog_attrs),
    ("repro.estimate.bound", "demand_hop_sum", "estimate.hop_sum", _hop_sum_attrs),
    ("repro.fidelity.solvers", "route_set_for", "fidelity.routes", None),
)

#: Solver registry entries wrapped in place (the registry holds the
#: function object captured at registration, so that is the call site).
SOLVER_WRAPPERS = (
    ("edge_lp", "flow.edge_lp"),
    ("estimate_bound", "estimate.solve"),
    ("sim_mptcp", "fidelity.sim"),
)

#: A work item: one grid shard (or one replay window) evaluated inline.
ITEM_SPAN = "jobs.item"


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.call: "int | None" = None
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []
        #: id(CellResult) -> end of the item span that produced it.
        self.cell_done: dict = {}

    # -- span recording -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, extract=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            item = parent[1] if parent is not None else None
            if name == ITEM_SPAN:
                item = span_id
            stack.append((span_id, item))
            start = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = extract(args, kwargs, outcome) if extract else {}
            if name == ITEM_SPAN:
                for cell in outcome:
                    tracer.cell_done[id(cell)] = end
            with tracer._lock:
                tracer.spans.append(
                    Span(
                        id=span_id,
                        name=name,
                        start=start,
                        end=end,
                        parent=parent[0] if parent is not None else None,
                        thread=threading.get_ident(),
                        call=tracer.call,
                        item=item,
                        attrs=attrs,
                    )
                )
            return outcome

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every layer's entry point; :meth:`remove` undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.flow import solvers

        engine = importlib.import_module("repro.pipeline.engine")
        self._patch(
            engine, "evaluate_batch", self._wrap(engine.evaluate_batch, ITEM_SPAN)
        )
        for module_name, path, name, extract in MODULE_WRAPPERS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, extract))
        for key, name in SOLVER_WRAPPERS:
            backend = solvers._REGISTRY[key]
            wrapped = dataclasses.replace(backend, fn=self._wrap(backend.fn, name))
            self._patched.append((solvers._REGISTRY, key, backend))
            solvers._REGISTRY[key] = wrapped

    def remove(self) -> None:
        from repro.flow import solvers

        for owner, attr, original in reversed(self._patched):
            if owner is solvers._REGISTRY:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- derived numbers ------------------------------------------------
    def self_times(self) -> "dict[int, float]":
        """Span id -> duration minus the union of its children's intervals."""
        children: dict = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.duration - covered
        return out

    def nesting_violations(self) -> int:
        """Children that start before or end after their parent span."""
        by_id = {span.id: span for span in self.spans}
        return sum(
            1
            for span in self.spans
            if span.parent is not None
            and (
                span.start < by_id[span.parent].start
                or span.end > by_id[span.parent].end
            )
        )

    def to_records(self) -> "list[dict]":
        selfs = self.self_times()
        return [
            {**dataclasses.asdict(span), "self": selfs[span.id]}
            for span in self.spans
        ]


#: Per-layer metrics derived per traced call: name -> (span name, field).
#: ``self`` sums self times, ``count`` counts spans, ``<attr>`` sums a
#: span attribute.
SPAN_METRICS = {
    "topology.build_s": ("topology.build", "self"),
    "topology.builds": ("topology.build", "count"),
    "traffic.build_s": ("traffic.build", "self"),
    "traffic.builds": ("traffic.build", "count"),
    "fingerprint.topology_s": ("fingerprint.topology", "self"),
    "fingerprint.traffic_s": ("fingerprint.traffic", "self"),
    "cache.get_s": ("cache.get", "self"),
    "cache.gets": ("cache.get", "count"),
    "cache.put_s": ("cache.put", "self"),
    "cache.puts": ("cache.put", "count"),
    "flow.lp_solves": ("flow.highs", "count"),
    "flow.highs_s": ("flow.highs", "self"),
    "flow.highs_iters": ("flow.highs", "nit"),
    "flow.assemble_s": ("flow.edge_lp", "self"),
    "incremental.model_builds": ("incremental.build", "count"),
    "incremental.delta_s": ("incremental.delta", "self"),
    "incremental.solve_s": ("incremental.solve", "self"),
    "incremental.highs_s": ("incremental.highs", "self"),
    "estimate.hop_sum_s": ("estimate.hop_sum", "self"),
    "estimate.bfs_sources": ("estimate.hop_sum", "sources"),
    "estimate.solve_s": ("estimate.solve", "self"),
    "fidelity.routes_s": ("fidelity.routes", "self"),
    "fidelity.routes_computed": ("fidelity.routes", "count"),
    "fidelity.sim_s": ("fidelity.sim", "self"),
    "jobs.items": (ITEM_SPAN, "count"),
    "jobs.item_self_s": (ITEM_SPAN, "self"),
}


def call_metrics(tracer: Tracer, call: int, wall_s: float, progress: list) -> dict:
    """Per-layer numbers of one traced timed call.

    ``progress`` holds ``(time, cell)`` pairs recorded by the call's
    progress callback; each is joined with the end of the item span that
    produced the cell to give the publish lag.
    """
    selfs = tracer.self_times()
    spans = [span for span in tracer.spans if span.call == call]
    out: dict = {}
    for metric, (name, field) in SPAN_METRICS.items():
        picked = [span for span in spans if span.name == name]
        if field == "self":
            out[metric] = sum(selfs[span.id] for span in picked)
        elif field == "count":
            out[metric] = len(picked)
        else:
            out[metric] = sum(span.attrs[field] for span in picked)
    fps = [s for s in spans if s.name.startswith("fingerprint.")]
    out["fingerprint.calls"] = len(fps)
    gets = [s for s in spans if s.name == "cache.get"]
    out["cache.hit_ratio"] = (
        sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0
    )
    lps = [s for s in spans if s.name in ("flow.highs", "incremental.highs")]
    out["flow.lp_nnz"] = (
        sum(s.attrs["nnz"] for s in lps) / len(lps) if lps else 0.0
    )
    out["flow.highs_status"] = max((s.attrs["status"] for s in lps), default=0)
    items = [s for s in spans if s.name == ITEM_SPAN]
    out["jobs.overhead_s"] = wall_s - sum(s.duration for s in items)
    lags = [
        at - tracer.cell_done[id(cell)]
        for at, cell in progress
        if id(cell) in tracer.cell_done
    ]
    out["jobs.publish_lag_s"] = max(lags, default=0.0)
    # Self-check: item trees nest, and item-tree self times plus the job
    # overhead reproduce the call's wall time.
    in_items = sum(selfs[s.id] for s in spans if s.item is not None)
    out["trace.unaccounted_frac"] = abs(
        wall_s - (in_items + out["jobs.overhead_s"])
    ) / wall_s
    return out


def setup_metrics(tracer: Tracer) -> dict:
    """Timeline generation and fingerprinting, recorded during set-up."""
    selfs = tracer.self_times()
    setup = [span for span in tracer.spans if span.call is None]

    def med(name: str) -> float:
        values = [selfs[s.id] for s in setup if s.name == name]
        return median(values) if values else 0.0

    return {
        "timeline.build_s": med("timeline.build"),
        "timeline.fingerprint_s": med("timeline.fingerprint"),
    }
