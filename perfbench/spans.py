"""A span tracer installed from outside ``grwcert``, and the per-layer
metrics computed from its spans.

The tracer replaces the attributes that callers actually look up (for
example ``certify.fluid_decompose``, which ``certify`` imported by name)
with timing wrappers. A target that no longer exists raises
``TraceTargetMissing`` instead of letting its metric read zero.

A span is ``(id, parent, point, name, start_ns, end_ns)``. ``parent`` is
the innermost open span of the same thread (0 at top level) and ``point``
is the id of the enclosing ``certify.point`` span (-1 outside any point).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from functools import wraps
from time import perf_counter_ns

# (attribute path as its callers look it up, span name). The path starts
# with a grwcert module; class methods are wrapped on the class itself, so
# every caller of the method is covered.
TARGETS = (
    ("certify.certify_chart", "certify.run"),
    ("certify._point_payload", "certify.point"),
    ("certify.JetStack.__init__", "curvature.JetStack"),
    ("certify.JetStack.to_point", "curvature.to_point"),
    ("curvature.eval_jet3", "expr.eval_jet3"),
    ("classify.eval_jet3", "expr.eval_jet3"),
    ("grw.eval_jet3", "expr.eval_jet3"),
    ("classify.VelocityAnalysis.at", "classify.velocity_at"),
    ("certify.fluid_decompose", "classify.fluid_decompose"),
    ("classify.ladder_residuals_at", "classify.ladder"),
    ("classify._integrate_form", "classify.quadrature"),
    ("classify._chen_point", "classify.chen_point"),
    ("classify._soliton_residual_at", "classify.soliton"),
    ("certify._converse_payload", "grw.converse"),
    ("certify.load_chart_input", "schema.load_chart_input"),
    ("certify.compile_chart", "chart.compile_chart"),
    ("grw.compile_chart", "chart.compile_chart"),
    ("certify.sample_points", "chart.sample_points"),
    ("physics.eos_check", "physics.eos_check"),
    ("physics.homothetic_check", "physics.homothetic_check"),
    ("certify._assemble", "certify.assemble"),
    ("report.render_json", "report.render_json"),
)
POINT_SPAN = "certify.point"
QUADRATURE_SPAN = "classify.quadrature"
INTEGRAND_SPAN = "classify.quadrature.integrand"


class TraceTargetMissing(RuntimeError):
    """A traced attribute is gone from grwcert; the trace would read zero."""


def resolve(path: str):
    """Return ``(owner, attribute)`` for ``module.attr[.attr...]`` under
    grwcert, or raise TraceTargetMissing naming the path."""
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"grwcert.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
    last = attrs[-1]
    if owner is None or (isinstance(owner, type) and last not in vars(owner)) \
            or not callable(getattr(owner, last, None)):
        raise TraceTargetMissing(f"grwcert.{path} no longer exists")
    return owner, last


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = [0]
        self.point = -1


class Tracer:
    """Records spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()

    def install(self) -> None:
        resolved = [(resolve(path), name) for path, name in TARGETS]
        for (owner, attr), name in resolved:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def wrap(self, fn, name: str):
        spans, ids, state = self.spans, self._ids, self._state
        is_point = name == POINT_SPAN
        wraps_integrand = name == QUADRATURE_SPAN

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = state.stack[-1]
            outer_point = state.point
            if is_point:
                state.point = span_id
            if wraps_integrand:
                # _integrate_form(integrand, ...): time each integrand call.
                args = (self.wrap(args[0], INTEGRAND_SPAN),) + args[1:]
            state.stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                state.stack.pop()
                spans.append((span_id, parent, state.point, name, start, end))
                state.point = outer_point

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced invocation.
# ---------------------------------------------------------------------------

# metric -> (span name, statistic). Statistics: 'calls' and 'self'/'incl'
# (milliseconds) are summed inside the certification span and divided by
# the point count; 'total' is inclusive milliseconds over the invocation.
SPAN_METRICS = {
    "expr.eval_jet3.calls_per_pt": ("expr.eval_jet3", "calls"),
    "expr.eval_jet3.self_ms_per_pt": ("expr.eval_jet3", "self"),
    "classify.quadrature.ms_per_pt": (QUADRATURE_SPAN, "incl"),
    "classify.quadrature.integrand_calls_per_pt": (INTEGRAND_SPAN, "calls"),
    "curvature.JetStack.calls_per_pt": ("curvature.JetStack", "calls"),
    "curvature.JetStack.self_ms_per_pt": ("curvature.JetStack", "self"),
    "curvature.to_point.self_ms_per_pt": ("curvature.to_point", "self"),
    "classify.velocity_at.self_ms_per_pt": ("classify.velocity_at", "self"),
    "classify.fluid_decompose.self_ms_per_pt": ("classify.fluid_decompose", "self"),
    "classify.ladder.self_ms_per_pt": ("classify.ladder", "self"),
    "classify.chen_point.self_ms_per_pt": ("classify.chen_point", "self"),
    "grw.converse.ms_per_pt": ("grw.converse", "incl"),
    "schema.load_chart_input.ms": ("schema.load_chart_input", "total"),
    "chart.compile_chart.ms": ("chart.compile_chart", "total"),
    "chart.sample_points.ms": ("chart.sample_points", "total"),
    "physics.eos_check.ms": ("physics.eos_check", "total"),
    "physics.homothetic_check.ms": ("physics.homothetic_check", "total"),
    "certify.assemble.ms": ("certify.assemble", "total"),
    "report.render_json.ms": ("report.render_json", "total"),
}


def invocation_metrics(spans, points: int, workers: int) -> dict:
    """Per-layer metrics of one invocation's spans (see SPAN_METRICS),
    plus the quadrature share and the fan-out busy fraction."""
    child_ns: dict[int, int] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    runs = [s for s in spans if s[3] == "certify.run"]
    if len(runs) != 1:
        raise ValueError(f"expected one certify.run span, found {len(runs)}")
    run_start, run_end = runs[0][4], runs[0][5]

    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    incl_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    for span_id, _, _, name, start, end in spans:
        ms = (end - start) / 1e6
        total_ms[name] = total_ms.get(name, 0.0) + ms
        if run_start <= start and end <= run_end:
            calls[name] = calls.get(name, 0) + 1
            incl_ms[name] = incl_ms.get(name, 0.0) + ms
            self_ms[name] = (self_ms.get(name, 0.0)
                             + ms - child_ns.get(span_id, 0) / 1e6)

    per_point = {"calls": calls, "self": self_ms, "incl": incl_ms}
    out = {}
    for metric, (name, stat) in SPAN_METRICS.items():
        if stat == "total":
            out[metric] = total_ms.get(name, 0.0)
        else:
            out[metric] = per_point[stat].get(name, 0) / points

    # Share of the point work, so that it means the same with 2 workers.
    out["classify.quadrature.share"] = (incl_ms.get(QUADRATURE_SPAN, 0.0)
                                        / incl_ms[POINT_SPAN])
    point_spans = [s for s in spans if s[3] == POINT_SPAN]
    fanout_ns = (max(s[5] for s in point_spans)
                 - min(s[4] for s in point_spans))
    busy_ns = sum(s[5] - s[4] for s in point_spans)
    out["certify.fanout.busy_frac"] = busy_ns / (workers * fanout_ns)
    return out


def point_latencies_ms(spans) -> list[float]:
    return [(s[5] - s[4]) / 1e6 for s in spans if s[3] == POINT_SPAN]

