"""Warped-product charts (-1) x q(t)^2 * fiber, the Einstein-fiber
criterion, the converse A/B formulas, and the validation catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chart import (ChartInput, ChartPoint, MetricChart, RIEMANNIAN,
                    _parse_metric_key, compile_chart)
from .curvature import JetStack, scale_free_at
# eval_jet3 is not called here; perfbench's layer tracer wraps it by name.
from .expr import Expr, eval_jet3, eval_jet3_batch, parse  # noqa: F401

# Resolution of the two candidate time-time Ricci rows for the warped
# product: a hand-coded Christoffel assembly on q = t^2 (tests/oracles.py)
# confirms the second-derivative form; the first-derivative variant fails
# it at every t with q''/q != q'/q.
RESOLUTION_NOTE = (
    "B-row resolution: R_11 = -(n-1) q''/q, hence B = A - (n-1) q''/q; "
    "the first-derivative variant B = A - (n-1) q'/q fails the hand-coded "
    "Christoffel oracle on q = t^2 and is rejected."
)


# The warp must exceed this on its t range (checked at 33 points).
WARP_FLOOR = 1e-6


class GRWBuildError(ValueError):
    pass


@dataclass
class FiberMetric:
    """A Riemannian fiber chart plus its curvature evaluator."""

    input: ChartInput
    chart: MetricChart

    @classmethod
    def from_input(cls, spec: ChartInput) -> "FiberMetric":
        chart = compile_chart(spec)
        if chart.signature != RIEMANNIAN:
            raise GRWBuildError("fiber metric must be declared riemannian")
        return cls(input=spec, chart=chart)

    @property
    def dim(self) -> int:
        return self.chart.n

    def einstein_at(self, points):
        """Residual of Ricci* - (R*/m) g* (m = fiber dim) and R*, as arrays
        over the points: one order-2 stack, whose values are all it reads."""
        stack = JetStack(self.chart, points, order=2)
        ricci, rs = stack.ricci.value, stack.rs.value
        residual = scale_free_at(
            ricci - (rs[:, None, None] / self.dim) * stack.g.value, ricci)
        return residual, rs


@dataclass
class GRWStructure:
    warp: Expr              # q(t), parsed once by build_grw
    fiber: FiberMetric


def build_grw(warp: str, fiber: FiberMetric, *, name: str,
              t_range, basepoint=None) -> MetricChart:
    """Assemble the Lorentzian chart g_11 = -1, g_ab = q(t)^2 g*_ab from
    the text of the warp q(t), which must be positive on ``t_range``."""
    params = dict(fiber.input.parameters)
    n = 1 + fiber.dim
    coords = ["t"] + list(fiber.chart.coordinates)

    lo, hi = float(t_range[0]), float(t_range[1])
    warp_expr = parse(warp, ("t",), tuple(params))
    ts = np.linspace(lo, hi, 33)
    values = eval_jet3_batch((warp_expr,), ts[:, None], params,
                             order=0)[0][:, 0]
    for t, value in zip(ts, values):
        if value <= WARP_FLOOR:
            raise GRWBuildError(
                f"warp {warp!r} is not positive at t = {t:.6g} "
                f"(value {value:.3e} <= {WARP_FLOOR})")

    metric = {"1,1": "-1"}
    for key, text in fiber.input.metric.items():
        i, j = _parse_metric_key(key, fiber.dim)
        src = str(text).strip()
        if src != "0":
            metric[f"{i + 2},{j + 2}"] = f"({warp})^2*({src})"

    spec = ChartInput(
        name=name,
        dimension=n,
        signature="lorentzian",
        coordinates=coords,
        metric=metric,
        ranges=dict(fiber.input.ranges) | {"t": (lo, hi)},
        parameters=params,
        exclusions=[(e.source, e.margin) for e in fiber.chart.exclusions],
        velocity_field=["-1"] + ["0"] * fiber.dim,
        basepoint=basepoint,
    )
    chart = compile_chart(spec)
    chart.grw = GRWStructure(warp=warp_expr, fiber=fiber)
    return chart


def converse_at(chart: MetricChart, points):
    """(fiber residual, A, B), arrays over the points: the residual of the
    fiber's Einstein condition and the warped-product formulas

    A = [R*/(n-1) + q'^2 (n-2) + q q''] / q^2 and B = A - (n-1) q''/q, with
    R* computed by running the curvature engine on the fiber chart: one
    order-2 fiber stack and one order-2 walk of q's tree for all points.
    """
    n = chart.n
    warp, fiber = chart.grw.warp, chart.grw.fiber
    fiber_residual, rstar = fiber.einstein_at(
        [ChartPoint(p.coords[1:]) for p in points])
    q, qp, qpp = (level.reshape(len(points)) for level in eval_jet3_batch(
        (warp,), [p.coords[:1] for p in points], chart.params, order=2))
    a_formula = (rstar / (n - 1) + qp * qp * (n - 2) + q * qpp) / (q * q)
    return fiber_residual, a_formula, a_formula - (n - 1) * qpp / q


# ---------------------------------------------------------------------------
# Validation catalog: stable CLI identifiers with expected outcomes.
# ---------------------------------------------------------------------------

_POLE = 0.3  # sphere-type charts stay this far from coordinate poles


def _flat3() -> ChartInput:
    return ChartInput(
        name="flat3", dimension=3, signature=RIEMANNIAN,
        coordinates=["x", "y", "z"],
        metric={"1,1": "1", "2,2": "1", "3,3": "1"},
        ranges={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})


def _sphere(m: int) -> ChartInput:
    """The unit m-sphere (m = 3, 4) in hyperspherical angles: g_kk is the
    product of sin(x_j)^2 over the angles before x_k; the last is azimuthal."""
    names = ["chi", "theta", "phi", "psi"][:m]
    return ChartInput(
        name=f"s{m}", dimension=m, signature=RIEMANNIAN, coordinates=names,
        metric={f"{k + 1},{k + 1}": "*".join(f"sin({c})^2" for c in names[:k])
                or "1" for k in range(m)},
        ranges={c: (_POLE, math.pi - _POLE) for c in names[:-1]}
        | {names[-1]: (0, 6.2)})


@dataclass
class CatalogEntry:
    name: str
    chart: MetricChart
    expected: dict


_POSITIVE = {
    "verdict": "pass",
    "fluid": "nondegenerate",
    "ok": ("u-closed", "div-weyl", "fiber-einstein", "torse-forming",
           "omega-closed", "chen-vector", "ckv-gradient", "weyl-electric",
           "geodesic"),
}
# Ricci is a multiple of g (or zero), so the fluid split is degenerate.
_DEGENERATE = {
    "verdict": "fail",
    "fluid": "degenerate",
    "ok": ("u-closed", "div-weyl", "fiber-einstein"),
    "informational": ("torse-forming", "chen-vector"),
}

# name -> (warp q(t), fiber, t range, basepoint, expectations) of the chart
# -dt^2 + q(t)^2 fiber. A row whose warp is None is a plain chart: its
# ChartInput is compiled as it stands.
_CATALOG = {
    "minkowski": ("1", _flat3(), (-1, 1), (0, 0, 0, 0),
                  _DEGENERATE | {"scalars": {"A": 0.0}}),
    "desitter": ("exp(t)", _flat3(), (-0.5, 0.5), (0, 0, 0, 0),
                 _DEGENERATE | {"scalars": {"A": 3.0}}),
    "einstein-static": (
        "1", _sphere(3), (-1, 1), (0.0, math.pi / 2, math.pi / 2, 1.0),
        _POSITIVE | {"scalars": {"A": 2.0, "B": 2.0}, "branch": "homothetic"}),
    "frw-dust": ("t^(2/3)", _flat3(), (1, 2), (1, 0, 0, 0),
                 _POSITIVE | {"scalars": {"w": 0.0}, "branch": "proper"}),
    "frw-rad": ("t^(1/2)", _flat3(), (1, 2), (1, 0, 0, 0),
                _POSITIVE | {"scalars": {"w": 1.0 / 3.0}, "branch": "proper"}),
    "frw-k+1": ("1+0.1*t^2", _sphere(3), (1, 2),
                (1.0, math.pi / 2, math.pi / 2, 1.0), dict(_POSITIVE)),
    "frw-k-1": ("exp(0.3*t)", ChartInput(
        name="h3", dimension=3, signature=RIEMANNIAN,
        coordinates=["chi", "theta", "phi"],
        metric={"1,1": "1", "2,2": "sinh(chi)^2",
                "3,3": "sinh(chi)^2*sin(theta)^2"},
        ranges={"chi": (0.5, 1.5), "theta": (_POLE, math.pi - _POLE),
                "phi": (0, 6.2)}),
        (1, 2), (1.0, 1.0, math.pi / 2, 1.0), dict(_POSITIVE)),
    "grw5-sphere": ("t^2", _sphere(4), (1, 2),
                    (1.0, math.pi / 2, math.pi / 2, math.pi / 2, 1.0),
                    _POSITIVE | {"branch": "proper"}),
    # The product fiber S2 x S1 breaks the perfect-fluid form itself, so
    # the eigen-split lands in the anomalous (unclustered) branch.
    "grw-nonEinstein-fiber": ("1+0.1*t^2", ChartInput(
        name="s2xs1", dimension=3, signature=RIEMANNIAN,
        coordinates=["theta", "phi", "z"],
        metric={"1,1": "1", "2,2": "sin(theta)^2", "3,3": "1"},
        ranges={"theta": (_POLE, math.pi - _POLE), "phi": (0, 6.2),
                "z": (-1, 1)}),
        (1, 2), (1.0, math.pi / 2, 1.0, 0.0),
        {"verdict": "fail", "fluid": "anomalous",
         "ok": ("u-closed",),
         "not_ok": ("fiber-einstein", "div-weyl", "fluid-form"),
         "informational": ("torse-forming", "chen-vector", "weyl-electric")}),
    # Vacuum anisotropic exponents (2/3, 2/3, -1/3): Ricci = 0, so the
    # fluid decomposition lands in the degenerate branch and the
    # torse-forming conclusion genuinely fails for the constant u.
    "kasner-negative": (None, ChartInput(
        name="kasner-negative", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": "t^(4/3)", "3,3": "t^(4/3)",
                "4,4": "t^(-2/3)"},
        ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        velocity_field=["-1", "0", "0", "0"],
        basepoint=[1, 0, 0, 0]),
        None, None, _DEGENERATE | {"ok": ("u-closed", "div-weyl")}),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    """Compiled catalog chart plus its machine-readable expectations."""
    try:
        warp, spec, t_range, basepoint, expected = _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog metric {name!r}; "
            f"choose from {', '.join(_CATALOG)}") from None
    chart = (compile_chart(spec) if warp is None else
             build_grw(warp, FiberMetric.from_input(spec), name=name,
                       t_range=t_range, basepoint=basepoint))
    return CatalogEntry(name=name, chart=chart, expected=expected)
