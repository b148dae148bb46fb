"""Curvature stack at a batch of points: metric jets through the Weyl
divergence.

Index conventions, pinned by the oracle suite before any theorem-level
check (unit round sphere: scalar curvature +2; exponential warp, n=4:
Ricci = +3 g):

    R_{jkl}{}^m = d_k Gamma^m_{jl} - d_j Gamma^m_{kl}
                  + Gamma^b_{jl} Gamma^m_{kb} - Gamma^b_{kl} Gamma^m_{jb}
    Ricci_{jl}  = R_{jml}{}^m
    C_{jklm}    = R_{jklm} + [g_{jm}R_{kl} - g_{km}R_{jl}
                  + R_{jm}g_{kl} - R_{km}g_{jl}]/(n-2)
                  - R [g_{jm}g_{kl} - g_{mk}g_{jl}] / ((n-1)(n-2))
    divWeyl[j,k,l] = nabla_m C_{jkl}{}^m   (divergence on the 4th slot)
                   = -(n-3)/(n-2) [nabla_j R_{kl} - nabla_k R_{jl}
                     - (g_{kl} d_j R - g_{jl} d_k R) / (2(n-1))]   (n > 3)

Exact jets, no finite differences: g to order 3, Gamma to order 2, Riemann,
Ricci and R to order 1, then C and div C as values (by the identity above).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chart import MetricChart
# eval_jet3 is not called here; perfbench's layer tracer wraps it by name.
from .expr import RowError, eval_jet3, eval_jet3_batch  # noqa: F401
from .jets import TensorJet, contract, leibniz_level

def scale_free_at(residual, *references):
    """max-abs of residual over (1 + max-abs of the dominant inputs) at
    each point of a batch: maxima over every axis but the leading point
    axis. A NaN in the residual at a point is that point's result; a NaN
    in a reference at a point drops that whole reference there, since
    ``fmax`` passes over its NaN peak."""
    def peak(x):
        return (np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1)
                if np.size(x) else 0.0)

    return peak(residual) / (1.0 + reduce(np.fmax, map(peak, references),
                                          0.0))


@dataclass
class CurvaturePoint:
    """Every curvature object at each point of a batch (a leading point
    axis on every array), as plain arrays."""

    n: int
    g: np.ndarray          # (n, n)
    g_inv: np.ndarray      # (n, n)
    gamma: np.ndarray      # (n, n, n): gamma[m, j, k] = Gamma^m_{jk}
    riem: np.ndarray       # (n, n, n, n): riem[j, k, l, m] = R_{jkl}{}^m
    driem: np.ndarray      # (n, n, n, n, n): driem[a, ...] = d_a R_{jkl}{}^m
    ricci: np.ndarray      # (n, n)
    rs: np.ndarray         # scalar curvature
    weyl: np.ndarray       # (n, n, n, n): C_{jklm}, zero grid for n < 3
    divweyl: np.ndarray    # (n, n, n): nabla_m C_{jkl}{}^m


class SingularMetricError(RowError, np.linalg.LinAlgError):
    """The metric is singular at a point: ``index`` names the first such
    point within its batch and ``rows`` all of them, and the batch's owner
    fills in its ``coords`` and, for sigma's integration path, ``place``
    ("path row")."""

    def __init__(self, index: int, coords=(), rows=None):
        super().__init__("metric matrix is singular", index, coords, rows)
        self.place = "point"

    def __reduce__(self):
        # Rebuilt from its constructor's arguments, not from the message.
        return type(self), (self.index, self.coords, self.rows), self.__dict__


class JetStack:
    """Tensor jets of the curvature stack, shared.

    ``g`` to ``order`` (3; a fiber's stack, which reads values only, takes
    2), ``g_inv`` and ``gamma`` (``[m, j, k]`` = Gamma^m_{jk}) at ``order -
    1``, and ``riem`` (R_{jkl}{}^m), ``ricci`` and ``rs`` at ``order - 2``.
    Level k is formed from the levels below it only, so the values are the
    same bytes at any order. Every tensor has a leading axis over ``points``.
    """

    def __init__(self, chart: MetricChart, points, *, order: int = 3):
        self.chart = chart
        n = self.n = chart.n
        self.points = tuple(points)
        rows = [p.coords for p in self.points]

        # One batched walk of the metric's upper triangle, mirrored.
        levels = eval_jet3_batch(chart.upper, rows, chart.params, order=order)
        g = self.g = TensorJet(n, list(map(chart.symmetric, levels)), 1)
        try:
            g_inv = self.g_inv = metric_inverse(g.truncated(order - 1))
        except SingularMetricError as err:
            err.coords = rows[err.index]
            raise
        gamma = self.gamma = christoffel(g, g_inv)

        # R = X - X with j and k swapped: exactly antisymmetric in (j, k).
        low = gamma.truncated(order - 2)
        x = (gamma.deriv().map("kmjl->jklm")
             + contract("bjl,mkb->jklm", low, low))
        riem = self.riem = x - x.map("kjlm->jklm")
        del x
        ricci = self.ricci = riem.map("jmlm->jl")
        self.rs = contract("jl,jl->", g_inv, ricci)

    # -- plain-array extraction ------------------------------------------

    def to_point(self) -> CurvaturePoint:
        """The plain arrays, with the stack's point axis: C (zero for n < 3)
        from values, div C (zero for n <= 3) from the Ricci and R jets."""
        n, gamma = self.n, self.gamma.value
        riem, ricci, rs, g = (jet.truncated(0) for jet in (
            self.riem, self.ricci, self.rs, self.g))
        weyl, divweyl = np.zeros_like(riem.value), np.zeros_like(gamma)
        if n >= 3:
            mixed = (contract("jm,kl->jklm", g, ricci)
                     + contract("jm,kl->jklm", ricci, g))
            gg = contract("jm,kl->jklm", g, g)
            c = (contract("jkla,am->jklm", riem, g)
                 + (mixed - mixed.map("kjlm->jklm")) * (1.0 / (n - 2))
                 - contract(",jklm->jklm", rs, gg - gg.map("kjlm->jklm"))
                 * (1.0 / ((n - 1) * (n - 2))))
            # Every term above is exactly antisymmetric in (j, k); the
            # half-difference makes C exactly antisymmetric in (l, m) too.
            weyl = ((c - c.map("jkml->jklm")) * 0.5).value
        if n > 3:
            # nabla_j R_{kl} as [j, k, l], less the d_j R term.
            x = (np.moveaxis(self.ricci.grad, -1, 1)
                 - np.einsum("...ajk,...al->...jkl", gamma, ricci.value)
                 - np.einsum("...ajl,...ka->...jkl", gamma, ricci.value)
                 - np.einsum("...kl,...j->...jkl", g.value, self.rs.grad)
                 / (2.0 * (n - 1)))
            divweyl = (x - np.swapaxes(x, -3, -2)) * cotton_factor(n)
        return CurvaturePoint(
            n=n, g=g.value, g_inv=self.g_inv.value, gamma=gamma,
            riem=riem.value, driem=np.moveaxis(self.riem.grad, -1, 1),
            ricci=ricci.value, rs=rs.value, weyl=weyl, divweyl=divweyl)


def cotton_factor(n: int) -> float:
    """c(n) = -(n-3)/(n-2) of the module docstring's div C identity."""
    return -(n - 3) / (n - 2)


def christoffel(g: TensorJet, g_inv: TensorJet) -> TensorJet:
    """Gamma^m_{jk} = 1/2 g^{ml} (d_j g_lk + d_k g_lj - d_l g_jk) as
    ``[m, j, k]``, at the lower of g_inv's order and g's order less one."""
    dg = g.deriv()                                   # dg[a, i, j] = d_a g_ij
    combo = dg.map("jlk->ljk") + dg.map("klj->ljk") - dg
    return contract("ml,ljk->mjk", g_inv, combo) * 0.5


def covariant_derivative(v: TensorJet, gamma: TensorJet) -> TensorJet:
    """nabla_k v_j = d_k v_j - Gamma^a_{kj} v_a of a covector as
    ``[k, j]``, at the lower of v's order less one and gamma's order."""
    return v.deriv() - contract("akj,a->kj", gamma, v)


def _invertible(m: np.ndarray) -> bool:
    try:
        return bool(np.max(np.abs(np.linalg.inv(m))) < 1e14)
    except np.linalg.LinAlgError:
        return False


def metric_inverse(g: TensorJet) -> TensorJet:
    """g^{-1} to the order of ``g``: ``np.linalg.inv`` on the values, then
    level k from d^k(g g^{-1}) = 0, i.e. level k of g^{-1} is -g^{-1}
    times level k of the product g g^{-1} taken without its g g^{-1}_k term.

    Raises ``SingularMetricError`` for the first point whose g is singular
    (index 0 for a point jet), with every such point as its ``rows``.
    """
    # Entries of g^{-1} above 1e14 mean an eigenvalue of g below about
    # 1e-14, the pivot bound of the jet Gauss-Jordan this replaced.
    try:
        h0 = np.linalg.inv(g.value)
        ok = np.max(np.abs(h0), axis=(-2, -1)) < 1e14
    except np.linalg.LinAlgError:    # fails for the whole batch: find the point
        ok = np.array([_invertible(m) for m in g.value.reshape(-1, g.n, g.n)])
    if not np.all(ok):
        rows = np.flatnonzero(~ok)
        raise SingularMetricError(int(rows[0]), rows=rows)
    levels = [h0]
    for k in range(1, g.order + 1):
        rest = leibniz_level("ij,jk->ik", g.n, g.levels,
                             levels + [np.zeros_like(g.levels[k])], k)
        levels.append(-np.einsum("...ij,...jkZ->...ikZ", h0, rest))
    return TensorJet(g.n, levels, g.batch)


def first_bianchi_residual(cp: CurvaturePoint):
    cyc = (cp.riem + np.einsum("...kljm->...jklm", cp.riem)
           + np.einsum("...ljkm->...jklm", cp.riem))
    return scale_free_at(cyc, cp.riem)


def weyl_trace_residual(cp: CurvaturePoint):
    """Max over all six g-traces of C; each should vanish identically.
    They cancel C's Ricci terms, so they are measured against Ricci as
    well as C: on a conformally flat chart C is round-off itself, and
    the traces' round-off grows with the scale of g."""
    traces = [np.einsum(f"...{spec}", cp.g_inv, cp.weyl) for spec in (
        "jm,...jklm->...kl", "jl,...jklm->...km", "jk,...jklm->...lm",
        "kl,...jklm->...jm", "km,...jklm->...jl", "lm,...jklm->...jk")]
    return reduce(np.fmax, (scale_free_at(t, cp.weyl, cp.ricci)
                            for t in traces))
