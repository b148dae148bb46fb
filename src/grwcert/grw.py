"""Warped-product charts (-1) x q(t)^2 * fiber, the Einstein-fiber
criterion, the converse A/B formulas, and the validation catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chart import (ChartInput, ChartPoint, MetricChart, RIEMANNIAN,
                    _parse_metric_key, compile_chart)
from .curvature import curvature_at, scale_free
from .expr import Expr, eval_batch, eval_jet3, parse

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


@dataclass(frozen=True)
class WarpSpec:
    """Warp function q(t), positive on the declared range."""

    text: str


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

    def einstein_at(self, point: ChartPoint) -> tuple[float, float]:
        """Residual of Ricci* - (R*/m) g* (m = fiber dim) and R* at a point."""
        cp = curvature_at(self.chart, point)
        return scale_free(cp.ricci - (cp.rs / self.dim) * cp.g, cp.ricci), cp.rs


@dataclass
class GRWStructure:
    warp: Expr              # q(t), parsed once by build_grw
    fiber: FiberMetric


def build_grw(warp: WarpSpec, fiber: FiberMetric, *, name: str,
              t_range, basepoint=None, params=None) -> MetricChart:
    """Assemble the Lorentzian chart g_11 = -1, g_ab = q(t)^2 g*_ab."""
    params = dict(fiber.input.parameters) | dict(params or {})
    n = 1 + fiber.dim
    coords = ["t"] + list(fiber.chart.coordinates)

    lo, hi = float(t_range[0]), float(t_range[1])
    warp_expr = parse(warp.text, ("t",), tuple(params))
    ts = np.linspace(lo, hi, 33)
    values = eval_batch((warp_expr,), ts[:, None], params)[:, 0]
    for t, value in zip(ts, values):
        if value <= WARP_FLOOR:
            raise GRWBuildError(
                f"warp {warp.text!r} is not positive at t = {t:.6g} "
                f"(value {value:.3e} <= {WARP_FLOOR})")

    metric = {"1,1": "-1"}
    for key, text in fiber.input.metric.items():
        i, j = _parse_metric_key(key, fiber.dim)
        src = str(text).strip()
        if src != "0":
            metric[f"{i + 2},{j + 2}"] = f"({warp.text})^2*({src})"

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


@dataclass
class ConverseRow:
    point: ChartPoint
    fiber_residual: float
    a_formula: float
    b_formula: float
    a_residual: float | None = None     # None: no fluid decomposition
    b_residual: float | None = None     # None also on the degenerate branch
    degenerate: bool = False


def converse_at(chart: MetricChart, point: ChartPoint, dec) -> ConverseRow:
    """The warped-product formulas at one point, against the fluid
    decomposition ``dec`` of the chart's Ricci tensor when there is one.

    A = [R*/(n-1) + q'^2 (n-2) + q q''] / q^2 and B = A - (n-1) q''/q, with
    R* computed by running the curvature engine on the fiber chart.
    """
    n = chart.n
    warp, fiber = chart.grw.warp, chart.grw.fiber
    fiber_residual, rstar = fiber.einstein_at(ChartPoint(point.coords[1:]))
    q, qp, qpp, _ = (level.item() for level in
                     eval_jet3((warp,), point.coords[:1], chart.params).levels)
    a_formula = (rstar / (n - 1) + qp * qp * (n - 2) + q * qpp) / (q * q)
    b_formula = a_formula - (n - 1) * qpp / q
    row = ConverseRow(point=point, fiber_residual=fiber_residual,
                      a_formula=a_formula, b_formula=b_formula)
    if dec is not None:
        row.a_residual = abs(dec.a - a_formula) / (1.0 + abs(a_formula))
        row.degenerate = dec.degenerate
        if not dec.degenerate:
            row.b_residual = abs(dec.b - b_formula) / (1.0 + abs(b_formula))
    return row


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


def _hyperbolic3() -> ChartInput:
    hi = math.pi - _POLE
    return ChartInput(
        name="h3", dimension=3, signature=RIEMANNIAN,
        coordinates=["chi", "theta", "phi"],
        metric={"1,1": "1", "2,2": "sinh(chi)^2",
                "3,3": "sinh(chi)^2*sin(theta)^2"},
        ranges={"chi": (0.5, 1.5), "theta": (_POLE, hi), "phi": (0, 6.2)})


def _product_s2_s1() -> ChartInput:
    hi = math.pi - _POLE
    return ChartInput(
        name="s2xs1", dimension=3, signature=RIEMANNIAN,
        coordinates=["theta", "phi", "z"],
        metric={"1,1": "1", "2,2": "sin(theta)^2", "3,3": "1"},
        ranges={"theta": (_POLE, hi), "phi": (0, 6.2), "z": (-1, 1)})


@dataclass
class CatalogEntry:
    name: str
    chart: MetricChart
    expected: dict


def _grw_entry(name, q, fiber_input, t_range, basepoint, expected) -> CatalogEntry:
    chart = build_grw(WarpSpec(q), FiberMetric.from_input(fiber_input),
                      name=name, t_range=t_range, basepoint=basepoint)
    return CatalogEntry(name=name, chart=chart, expected=expected)


_POSITIVE = {
    "verdict": "pass",
    "fluid": "nondegenerate",
    "ok": ["u-closed", "div-weyl", "fiber-einstein", "torse-forming",
           "omega-closed", "chen-vector", "ckv-gradient", "weyl-electric",
           "geodesic"],
}


def _build_minkowski() -> CatalogEntry:
    return _grw_entry(
        "minkowski", "1", _flat3(), (-1, 1), (0, 0, 0, 0),
        {"verdict": "fail", "fluid": "degenerate",
         "ok": ["u-closed", "div-weyl", "fiber-einstein"],
         "informational": ["torse-forming", "chen-vector"],
         "scalars": {"A": 0.0},
         "flat": True})


def _build_desitter() -> CatalogEntry:
    return _grw_entry(
        "desitter", "exp(t)", _flat3(), (-0.5, 0.5), (0, 0, 0, 0),
        {"verdict": "fail", "fluid": "degenerate",
         "ok": ["u-closed", "div-weyl", "fiber-einstein"],
         "informational": ["torse-forming", "chen-vector"],
         "scalars": {"A": 3.0}})


def _build_einstein_static() -> CatalogEntry:
    base = (0.0, math.pi / 2, math.pi / 2, 1.0)
    expected = dict(_POSITIVE)
    expected["scalars"] = {"A": 2.0, "B": 2.0, "gamma": 6.0,
                           "mu": 3.0, "p": -1.0}
    expected["branch"] = "homothetic"
    return _grw_entry("einstein-static", "1", _sphere(3), (-1, 1), base,
                      expected)


def _build_frw_dust() -> CatalogEntry:
    expected = dict(_POSITIVE)
    expected["scalars"] = {"w": 0.0}
    expected["branch"] = "proper"
    return _grw_entry("frw-dust", "t^(2/3)", _flat3(), (1, 2), (1, 0, 0, 0),
                      expected)


def _build_frw_rad() -> CatalogEntry:
    expected = dict(_POSITIVE)
    expected["scalars"] = {"w": 1.0 / 3.0}
    expected["branch"] = "proper"
    return _grw_entry("frw-rad", "t^(1/2)", _flat3(), (1, 2), (1, 0, 0, 0),
                      expected)


def _build_frw_closed() -> CatalogEntry:
    base = (1.0, math.pi / 2, math.pi / 2, 1.0)
    return _grw_entry("frw-k+1", "1+0.1*t^2", _sphere(3), (1, 2), base,
                      dict(_POSITIVE))


def _build_frw_open() -> CatalogEntry:
    base = (1.0, 1.0, math.pi / 2, 1.0)
    return _grw_entry("frw-k-1", "exp(0.3*t)", _hyperbolic3(), (1, 2), base,
                      dict(_POSITIVE))


def _build_grw5_sphere() -> CatalogEntry:
    base = (1.0, math.pi / 2, math.pi / 2, math.pi / 2, 1.0)
    expected = dict(_POSITIVE)
    expected["branch"] = "proper"
    return _grw_entry("grw5-sphere", "t^2", _sphere(4), (1, 2), base, expected)


def _build_non_einstein_fiber() -> CatalogEntry:
    base = (1.0, math.pi / 2, 1.0, 0.0)
    # The product fiber breaks the perfect-fluid form itself, so the
    # eigen-split lands in the anomalous (unclustered) branch.
    return _grw_entry(
        "grw-nonEinstein-fiber", "1+0.1*t^2", _product_s2_s1(), (1, 2), base,
        {"verdict": "fail", "fluid": "anomalous",
         "ok": ["u-closed"],
         "not_ok": ["fiber-einstein", "div-weyl", "fluid-form"],
         "informational": ["torse-forming", "chen-vector", "weyl-electric"]})


def _build_kasner() -> CatalogEntry:
    # Vacuum anisotropic exponents (2/3, 2/3, -1/3): Ricci = 0, so the
    # fluid decomposition lands in the degenerate branch and the
    # torse-forming conclusion genuinely fails for the constant u.
    spec = ChartInput(
        name="kasner-negative", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": "t^(4/3)", "3,3": "t^(4/3)",
                "4,4": "t^(-2/3)"},
        ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        velocity_field=["-1", "0", "0", "0"],
        basepoint=[1, 0, 0, 0])
    return CatalogEntry(
        name="kasner-negative", chart=compile_chart(spec),
        expected={"verdict": "fail", "fluid": "degenerate",
                  "ok": ["u-closed", "div-weyl"],
                  "informational": ["torse-forming", "chen-vector"]})


_CATALOG_BUILDERS = {
    "minkowski": _build_minkowski,
    "desitter": _build_desitter,
    "einstein-static": _build_einstein_static,
    "frw-dust": _build_frw_dust,
    "frw-rad": _build_frw_rad,
    "frw-k+1": _build_frw_closed,
    "frw-k-1": _build_frw_open,
    "grw5-sphere": _build_grw5_sphere,
    "grw-nonEinstein-fiber": _build_non_einstein_fiber,
    "kasner-negative": _build_kasner,
}


def catalog_names() -> list[str]:
    return list(_CATALOG_BUILDERS)


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    """Compiled catalog chart plus its machine-readable expectations."""
    try:
        builder = _CATALOG_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog metric {name!r}; "
            f"choose from {', '.join(_CATALOG_BUILDERS)}") from None
    return builder()
