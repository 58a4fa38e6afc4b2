"""Outside-in layer trace of ``repro`` ops.

The package under ``src/`` is not edited.  :meth:`Tracer.installed`
replaces the public entry point of each layer (:data:`TRACE_POINTS`)
with a wrapper that records a span, and puts every original back on exit.
An entry point that no longer exists raises ``AttributeError`` instead of
leaving its layer silently at zero.

A span records its name, start, end, parent span and op.  Spans stay in
memory until the run ends.  A span's *self time* is its duration minus
the durations of its direct children (calls are nested, never
overlapping, so the children cover exactly that much of it).
:func:`layer_metrics` reduces the spans of each op to per-layer numbers,
rescales the op's times by its host probes, and reports their medians
over ops.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    parent: int  # -1 for an op's root span
    op: int
    name: str
    start: float
    end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(args, result) -> {metric: count}`` attached to the span of one call.
Counters = Callable[[tuple, object], Dict[str, float]]


@dataclass(frozen=True)
class TracePoint:
    """One wrapped entry point: ``module`` + ``attr`` (``func`` or
    ``Class.method``) recorded as span ``name``."""

    name: str
    module: str
    attr: str
    counters: Optional[Counters] = None
    #: Span name computed from the call's arguments (checker rules).
    label: Optional[Callable[[tuple], str]] = None
    #: ``args -> bool``: whether to attach counters to this call at all.
    fresh: Optional[Callable[[tuple], bool]] = None


def _expansion_counters(args, expansion) -> Dict[str, float]:
    stats = expansion.stats
    return {
        "contexts.vars_cloned": stats.vars_cloned,
        "contexts.constraints_after": stats.constraints_after,
        "contexts.indirect_sites": stats.indirect_sites,
        "contexts.indirect_specialized": stats.indirect_sites_specialized,
    }


def _solver_counters(args, solution) -> Dict[str, float]:
    stats = args[0].stats
    return {
        "solvers.propagations": stats.propagations,
        "solvers.nodes_searched": stats.nodes_searched,
        "solvers.nodes_collapsed": stats.nodes_collapsed,
        "solvers.pts_memory_bytes": stats.pts_memory_bytes,
        "solvers.graph_memory_bytes": stats.graph_memory_bytes,
    }


#: The layer boundaries, outermost first.  ``repro.cli`` binds some of
#: them by name at import time, so those are wrapped where the CLI looks
#: them up; ``registry.solve`` is called only by context expansion's
#: bootstrap solve; ``make_solver`` builds the constraint graph.
TRACE_POINTS: Tuple[TracePoint, ...] = (
    TracePoint("frontend.parse", "repro.frontend.parser", "parse_translation_unit"),
    TracePoint(
        "frontend.generate", "repro.cli", "generate_constraints",
        counters=lambda args, program: {"input.constraints": len(program.system)},
    ),
    TracePoint(
        "constraints.read", "repro.cli", "read_constraints",
        counters=lambda args, system: {"input.constraints": len(system)},
    ),
    TracePoint("solvers.build", "repro.cli", "make_solver"),
    TracePoint("solvers.build", "repro.solvers.registry", "make_solver"),
    TracePoint(
        "contexts.expand", "repro.solvers.base", "expand_contexts",
        counters=_expansion_counters,
    ),
    TracePoint("contexts.bootstrap", "repro.solvers.registry", "solve"),
    TracePoint("contexts.project", "repro.contexts.manager", "ContextExpansion.project"),
    TracePoint(
        "preprocess.opt", "repro.solvers.base", "preprocess_system",
        counters=lambda args, pre: {
            "preprocess.constraints_out": len(pre.reduced),
            "preprocess.vars_merged": pre.merged_count(),
        },
    ),
    TracePoint("preprocess.hcd_offline", "repro.solvers.base", "hcd_offline_analysis"),
    TracePoint("preprocess.expand", "repro.preprocess.hvn", "PreprocessResult.expand"),
    TracePoint(
        "solvers.online", "repro.solvers.base", "BaseSolver.solve",
        counters=_solver_counters,
        # solve() is idempotent: only the call that solves has counters.
        fresh=lambda args: args[0].stats.solve_seconds == 0.0,
    ),
    TracePoint(
        "checkers.run", "repro.checkers", "run_checkers",
        counters=lambda args, report: {"checkers.findings": len(report)},
    ),
    TracePoint(
        "checkers.<rule>", "repro.checkers.registry", "CheckerInfo.run",
        label=lambda args: "checkers." + args[0].name,
    ),
    TracePoint(
        "dataflow.taint", "repro.checkers.dataflow_checks", "find_taint_flows",
        counters=lambda args, result: {"dataflow.flow_edges": result[1].edges},
    ),
    TracePoint("output.solution_json", "repro.analysis.export", "solution_to_json"),
    TracePoint("output.sarif", "repro.checkers", "to_sarif"),
    TracePoint("output.table", "repro.metrics.reporting", "Table.render"),
)


def resolve(point: TracePoint) -> Tuple[object, str, object]:
    """``(owner, name, original)`` of an entry point, or ``AttributeError``."""
    owner = importlib.import_module(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars(): a method must be defined on the class itself, not inherited,
    # so that putting the original back restores exactly what was there.
    if name not in vars(owner):
        raise AttributeError(
            f"trace point {point.module}.{point.attr} does not exist"
        )
    return owner, name, vars(owner)[name]


class Tracer:
    """Collects the spans of every op run while it is installed."""

    def __init__(self, points: Sequence[TracePoint] = TRACE_POINTS) -> None:
        self.points = tuple(points)
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._op = -1

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[Span]:
        """The root span (``cli``) of one op; spans opened inside belong to it."""
        self._op = op_id
        span = self._begin("cli")
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, point: TracePoint, original: Callable) -> Callable:
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            fresh = point.fresh is None or point.fresh(args)
            span = begin(point.label(args) if point.label else point.name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(span)
            if point.counters is not None and fresh:
                span.counters = point.counters(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every trace point for the duration of the block."""
        originals = [resolve(point) for point in self.points]
        try:
            for point, (owner, name, original) in zip(self.points, originals):
                setattr(owner, name, self._wrap(point, original))
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


#: Spans whose layer metric is their *self* time; every other ``*_s``
#: layer metric is the inclusive duration of its spans.
SELF_TIMED = {
    "cli": "cli.self_s",
    "checkers.run": "checkers.run_self_s",
    "frontend.generate": "frontend.generate_s",
    "contexts.expand": "contexts.expand_s",
    "solvers.build": "solvers.build_s",
    "solvers.online": "solvers.online_s",
}

#: Self time summed over span-name prefixes.  Unlike the layers inside
#: them, each group has spans on every workload: how an op obtained its
#: constraints, and what it did with the solution.
GROUPS = {
    "input_s": ("frontend.", "constraints."),
    "clients_s": ("checkers.", "dataflow.", "output."),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def op_layers(spans: Sequence[Span]) -> Dict[str, float]:
    """The layer numbers of one op, from that op's spans."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        metric = SELF_TIMED.get(span.name)
        value = own[span.id] if metric else span.duration
        metric = metric or span.name + "_s"
        out[metric] = out.get(metric, 0.0) + value
        for group, prefixes in GROUPS.items():
            if span.name.startswith(prefixes):
                out[group] = out.get(group, 0.0) + own[span.id]
        for counter, count in span.counters.items():
            out[counter] = out.get(counter, 0.0) + count
    out["contexts.specialized_ratio"] = _ratio(
        out.get("contexts.indirect_specialized", 0.0),
        out.get("contexts.indirect_sites", 0.0),
    )
    out["solvers.search_yield"] = _ratio(
        out.get("solvers.nodes_collapsed", 0.0),
        out.get("solvers.nodes_searched", 0.0),
    )
    out["trace.self_sum_s"] = sum(own.values())
    return out


def layer_metrics(spans: Sequence[Span], scale: Mapping[int, float]) -> Dict[str, float]:
    """Median over ops of each layer number; a layer absent from an op
    counts as 0 for it.  The times (``*_s``) of op ``i`` are multiplied
    by ``scale[i]``, the host-speed factor of that op."""
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)
    per_op = []
    for op, op_spans in by_op.items():
        layers = op_layers(op_spans)
        per_op.append({
            name: value * scale[op] if name.endswith("_s") else value
            for name, value in layers.items()
        })
    names = sorted({name for layers in per_op for name in layers})
    return {
        name: statistics.median(layers.get(name, 0.0) for layers in per_op)
        for name in names
    }
