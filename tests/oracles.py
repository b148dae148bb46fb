"""Independent reference computations used to pin the engine.

Everything here is assembled by hand from closed forms (divided differences,
explicit Christoffel symbols, textbook curvature values). None of it calls
into the package's curvature pipeline, so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields
from functools import lru_cache
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from grwcert.chart import ChartPoint, MetricChart
from grwcert.classify import _leggauss
from grwcert.curvature import CurvaturePoint, JetStack
from grwcert.expr import (Binary, Const, Coord, EvalDomainError, Expr, Param,
                          ParseError, Power, Unary, _Parser, eval_jet3_batch)
from grwcert.jets import MAX_ORDER, jet_tables

def scale_free(residual, *references) -> float:
    """max-abs of residual over (1 + max-abs of the dominant inputs), at
    one point."""
    peak = max((float(np.max(np.abs(r))) for r in references), default=0.0)
    return float(np.max(np.abs(residual))) / (1.0 + peak)


def point_rows(cp: CurvaturePoint) -> list[CurvaturePoint]:
    """The points of a batched ``CurvaturePoint``, each without the point
    axis (its arrays are views into the batch's)."""
    rest = fields(cp)[1:]
    return [CurvaturePoint(cp.n, *(getattr(cp, f.name)[i] for f in rest))
            for i in range(len(cp.rs))]


def curvature_rows(chart: MetricChart, points) -> list[CurvaturePoint]:
    """Each point's curvature, read off one batched stack."""
    return point_rows(JetStack(chart, points).to_point())


# ---------------------------------------------------------------------------
# Divided-difference oracle for jets (5-point, 4th-order first-derivative
# stencil, nested per axis so mixed and repeated partials stay O(h^4)).
# ---------------------------------------------------------------------------

DD_STEP = 0.012


def _d1(f, x, axis, h):
    def shifted(k):
        y = np.array(x, dtype=float)
        y[axis] += k * h
        return f(y)
    return (-shifted(2) + 8 * shifted(1) - 8 * shifted(-1) + shifted(-2)) / (12 * h)


def _nested(f, x, axes, h):
    if not axes:
        return f(np.asarray(x, dtype=float))
    return _d1(lambda y: _nested(f, y, axes[1:], h), x, axes[0], h)


def dd_partial(f, x, axes, h=DD_STEP):
    """Nested 5-point stencils, Richardson-extrapolated h -> h/2."""
    coarse = _nested(f, x, axes, h)
    fine = _nested(f, x, axes, h / 2)
    return (16.0 * fine - coarse) / 15.0


def dd_gradient(f, x, n, h=DD_STEP):
    return np.array([dd_partial(f, x, (i,), h) for i in range(n)])


def dd_hessian(f, x, n, h=DD_STEP):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = dd_partial(f, x, (i, j), h)
    return out


def dd_third(f, x, n, h=DD_STEP):
    out = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = dd_partial(f, x, (i, j, k), h)
                for p in ((i, j, k), (i, k, j), (j, i, k),
                          (j, k, i), (k, i, j), (k, j, i)):
                    out[p] = v
    return out


# ---------------------------------------------------------------------------
# Random smooth expression corpus. Every subtree is domain-safe on
# [-0.8, 0.8]^n by construction (wrapped arguments for ln/sqrt/div/pow/tan).
# ---------------------------------------------------------------------------

def random_expression(rng: random.Random, coords, depth: int) -> str:
    if depth <= 0:
        if rng.random() < 0.6:
            return rng.choice(coords)
        return f"{rng.uniform(-2.0, 2.0):.6f}"
    roll = rng.random()
    a = random_expression(rng, coords, depth - 1)
    if roll < 0.30:
        b = random_expression(rng, coords, depth - 1)
        return f"({a}){rng.choice('+-*')}({b})"
    if roll < 0.38:
        b = random_expression(rng, coords, depth - 1)
        return f"({a})/(1.5+({b})^2)"
    if roll < 0.50:
        fn = rng.choice(["sin", "cos", "sinh", "tanh"])
        return f"{fn}({a})"
    if roll < 0.58:
        return f"exp(sin({a})*1.3)"
    if roll < 0.66:
        fn = rng.choice(["ln", "sqrt"])
        return f"{fn}(1.5+({a})^2)"
    if roll < 0.72:
        return f"tan(0.9*sin({a}))"
    if roll < 0.82:
        e = rng.choice(["2", "3", "-1", "-2"])
        return f"(1.5+({a})^2)^{e}"
    if roll < 0.90:
        e = rng.choice(["0.5", "1.5", "2.5"])
        return f"(1.2+({a})^2)^{e}"
    return f"cosh({a})"


def expression_corpus(seed: int, size: int):
    """Deterministic list of (text, coords, point) triples."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        ncoords = rng.choice([1, 2, 2, 3])
        coords = ["t", "x", "y"][:ncoords]
        text = random_expression(rng, coords, rng.choice([2, 3, 3, 4]))
        point = [rng.uniform(-0.5, 0.5) for _ in range(ncoords)]
        out.append((text, coords, point))
    return out


# ---------------------------------------------------------------------------
# Generic hand assembly: Riemann/Ricci from explicit Christoffel callables.
# Convention (pinned by the round unit sphere having scalar curvature +2):
#   R_{jkl}^m = d_k Gamma^m_{jl} - d_j Gamma^m_{kl}
#               + Gamma^b_{jl} Gamma^m_{kb} - Gamma^b_{kl} Gamma^m_{jb}
#   Ricci_{jl} = R_{jml}^m
# ---------------------------------------------------------------------------

def riemann_from_christoffels(gamma, dgamma, n):
    """gamma[m][j][k], dgamma[a][m][j][k] as plain nested indexables."""
    riem = np.zeros((n, n, n, n))
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for m in range(n):
                    val = dgamma[k][m][j][l] - dgamma[j][m][k][l]
                    for b in range(n):
                        val += gamma[b][j][l] * gamma[m][k][b]
                        val -= gamma[b][k][l] * gamma[m][j][b]
                    riem[j, k, l, m] = val
    return riem


def ricci_from_riemann(riem, n):
    return np.einsum("jmlm->jl", riem)


# ---------------------------------------------------------------------------
# Unit round 2-sphere, coordinates (theta, phi), g = diag(1, sin^2 theta).
# Nonzero Christoffels by hand:
#   Gamma^theta_{phi phi} = -sin(theta) cos(theta)
#   Gamma^phi_{theta phi} = cot(theta)
# ---------------------------------------------------------------------------

def sphere2_curvature(theta: float):
    n = 2
    s, c = math.sin(theta), math.cos(theta)
    gamma = np.zeros((n, n, n))
    gamma[0, 1, 1] = -s * c
    gamma[1, 0, 1] = gamma[1, 1, 0] = c / s
    dgamma = np.zeros((n, n, n, n))
    dgamma[0, 0, 1, 1] = -(c * c - s * s)
    dgamma[0, 1, 0, 1] = dgamma[0, 1, 1, 0] = -1.0 / (s * s)
    riem = riemann_from_christoffels(gamma, dgamma, n)
    ricci = ricci_from_riemann(riem, n)
    g = np.diag([1.0, s * s])
    scalar = float(np.trace(np.linalg.inv(g) @ ricci))
    return g, riem, ricci, scalar


# ---------------------------------------------------------------------------
# Warped slice with line element -dt^2 + q(t)^2 (dx^2 + ...), flat fiber.
# Hand Christoffels: Gamma^t_{ab} = q q' delta_ab, Gamma^a_{t b} = (q'/q) delta_ab.
# Used both for the exponential warp (Ricci = +3 g in n=4) and to settle the
# first- vs second-derivative form of the time-time Ricci row on q = t^2.
# ---------------------------------------------------------------------------

def warped_flat_christoffels(n, q, qp, qpp):
    gamma = np.zeros((n, n, n))
    dgamma = np.zeros((n, n, n, n))
    for a in range(1, n):
        gamma[0, a, a] = q * qp
        gamma[a, 0, a] = gamma[a, a, 0] = qp / q
        dgamma[0, 0, a, a] = qp * qp + q * qpp
        dgamma[0, a, 0, a] = dgamma[0, a, a, 0] = qpp / q - (qp / q) ** 2
    return gamma, dgamma


def warped_flat_curvature(n, q, qp, qpp):
    gamma, dgamma = warped_flat_christoffels(n, q, qp, qpp)
    riem = riemann_from_christoffels(gamma, dgamma, n)
    ricci = ricci_from_riemann(riem, n)
    g = np.diag([-1.0] + [q * q] * (n - 1))
    return g, riem, ricci


def desitter_ricci(n, t):
    """Exponential warp: closed form Ricci = (n-1) g."""
    q = math.exp(t)
    g, _, ricci = warped_flat_curvature(n, q, q, q)
    return g, ricci


# Covariant derivative of a constant-component u = (-1, 0, ..., 0) on the
# warped slice: nabla_k u_j = Gamma^t_{kj} = (q'/q)(g_kj + u_k u_j).
def warped_nabla_u(n, q, qp):
    g = np.diag([-1.0] + [q * q] * (n - 1))
    u = np.zeros(n)
    u[0] = -1.0
    return (qp / q) * (g + np.outer(u, u))


# ---------------------------------------------------------------------------
# Friedmann power-law warps q = t^p over a flat fiber, n = 4 (closed forms
# derived from the warped-product Ricci):
#   A = [ (n-2) q'^2 + q q'' ] / q^2,  B = A - (n-1) q''/q,
#   mu = ((n-2)A + B) / 2,            p = B - mu      (kappa = 1)
# ---------------------------------------------------------------------------

def friedmann_scalars(p_exp: float, t: float, n: int = 4):
    q = t ** p_exp
    qp = p_exp * t ** (p_exp - 1)
    qpp = p_exp * (p_exp - 1) * t ** (p_exp - 2)
    a = ((n - 2) * qp * qp + q * qpp) / (q * q)
    b = a - (n - 1) * qpp / q
    mu = ((n - 2) * a + b) / 2.0
    pressure = b - mu
    return {"q": q, "qp": qp, "qpp": qpp, "A": a, "B": b,
            "mu": mu, "p": pressure, "gamma": (n - 2) * a + b,
            "f": qp / q}


# Fiber facts used by the warped-product converse:
# unit round m-sphere Ricci* = (m-1) g*, R* = m(m-1);
# unit-curvature hyperbolic 3-space Ricci* = -2 g*, R* = -6;
# S^2 x S^1 product Ricci* = diag(S^2 block, 0), R* = 2.
SPHERE_RICCI_FACTOR = {2: 1.0, 3: 2.0, 4: 3.0}
SPHERE_SCALAR = {2: 2.0, 3: 6.0, 4: 12.0}
H3_RICCI_FACTOR = -2.0
H3_SCALAR = -6.0


# ---------------------------------------------------------------------------
# Per-node path quadrature: one integrand call per Gauss node. Integrands
# take one coordinate vector; omega_per_node evaluates full order-3 metric
# and velocity jets there. segment_per_node repeats the engine's arithmetic
# node by node on its Gauss nodes; staircase_per_node, the axis-aligned
# staircase on numpy's Gauss nodes, is an independent path.
# ---------------------------------------------------------------------------

def _field_integrand(chart: MetricChart, field):
    """Values of a covariant field at the rows of an (N, n) array: the
    batched integrand of the field's potential (theta, for the velocity)."""
    return lambda x: eval_jet3_batch(field, x, chart.params, order=0)[0]


def staircase_per_node(integrand, base, target, axis_order, quad_order, panels):
    total = 0.0
    current = np.asarray(base, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    for axis in axis_order:
        a, b = current[axis], target[axis]
        if a != b:
            for panel in range(panels):
                lo = a + (b - a) * panel / panels
                hi = a + (b - a) * (panel + 1) / panels
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                for node, weight in zip(nodes, weights):
                    x = current.copy()
                    x[axis] = mid + half * node
                    total += weight * half * float(integrand(x)[axis])
        current[axis] = b
    return float(total)


def segment_per_node(integrand, legs, quad_order, panels):
    """Composite Gauss-Legendre along the segments (start, end) of
    ``legs`` in turn, each parametrized by s in [0, 1]."""
    total = 0.0
    nodes, weights = _leggauss(quad_order)
    for start, end in legs:
        step = end - start
        half = 0.5 / panels
        for panel in range(panels):
            mid = (panel + 0.5) / panels
            for node, weight in zip(nodes, weights):
                value = integrand(start + (mid + half * node) * step)
                dot = value[0] * step[0]
                for k in range(1, len(step)):
                    dot = dot + value[k] * step[k]
                total += half * weight * dot
    return float(total)


def leg_rows(start, end, panels, quad_order=8):
    """The nodes of ``segment_per_node`` on the segment (start, end), in
    path order: sigma's rows there."""
    nodes, _ = _leggauss(quad_order)
    half = 0.5 / panels
    return np.array([start + ((panel + 0.5) / panels + half * node)
                     * (end - start)
                     for panel in range(panels) for node in nodes])


def integrate_per_node(integrand, n, base, target, quad_order=8, panels=1):
    """(value, path defect, doubling drift) of one rung of the engine's
    ladder (by default its first): the segment at ``panels`` and twice as
    many panels, then the path through the corner (target time, base
    space) without its zero-length legs, at twice as many panels."""
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    corner = np.concatenate((target[:1], base[1:]))
    segment = [(base, target)]
    coarse = segment_per_node(integrand, segment, quad_order, panels)
    fine = segment_per_node(integrand, segment, quad_order, 2 * panels)
    other = segment_per_node(
        integrand, [(a, b) for a, b in ((base, corner), (corner, target))
                    if np.any(a != b)], quad_order, 2 * panels)
    return fine, abs(fine - other), abs(fine - coarse)


def segment_reference(integrand, base, target, quad_order=20, panels=32):
    """The line integral of a batched integrand along the segment from
    ``base`` to ``target`` by composite Gauss-Legendre on numpy's nodes,
    far finer than the engine's rule: an accuracy reference for it."""
    base = np.asarray(base, dtype=float)
    step = np.asarray(target, dtype=float) - base
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    half = 0.5 / panels
    s = ((np.arange(panels) + 0.5)[:, None] / panels + half * nodes).ravel()
    values = integrand(base + s[:, None] * step)
    return float(np.tile(half * weights, panels) @ (values @ step))


def omega_per_node(chart, field, coords):
    """omega = f u - (nabla u) u^ at one point from order-3 jets."""
    n = chart.n
    point = tuple(coords)
    g = np.empty((n, n))
    dg = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            jet = eval_jet3(chart.metric[i][j], point, chart.params)
            g[i, j] = g[j, i] = jet.value
            dg[:, i, j] = dg[:, j, i] = jet.grad
    g_inv = np.linalg.inv(g)
    gamma = 0.5 * np.einsum(
        "ml,jlk->mjk",
        g_inv, dg + np.einsum("klj->jlk", dg) - np.einsum("ljk->jlk", dg))
    u = np.empty(n)
    du = np.empty((n, n))
    for j in range(n):
        jet = eval_jet3(field[j], point, chart.params)
        u[j] = jet.value
        du[:, j] = jet.grad
    nabla = du - np.einsum("akj,a->kj", gamma, u)
    u_up = np.einsum("ij,j->i", g_inv, u)
    f = np.einsum("kj,kj->", g_inv, nabla) * (1.0 / (n - 1))
    return f * u - np.einsum("kj,j->k", nabla, u_up)


# ---------------------------------------------------------------------------
# Per-component curvature stack: one Jet3 per tensor component, assembled in
# nested loops with a jet Gauss-Jordan inverse, as the engine did before it
# moved to tensor jets. Every CurvaturePoint field comes back as an array,
# and so does each derivative of ``stack_derivatives``.
# ---------------------------------------------------------------------------

def jet_matrix_inverse(rows) -> list:
    """Gauss-Jordan inverse of a matrix of jets (partial pivoting on values)."""
    n = len(rows)
    a = [list(r) for r in rows]
    nvars = a[0][0].n
    inv = [[Jet3.constant(nvars, 1.0 if i == j else 0.0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[piv][col].value) < 1e-14:
            raise np.linalg.LinAlgError("metric matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        r = a[col][col].reciprocal()
        a[col] = [x * r for x in a[col]]
        inv[col] = [x * r for x in inv[col]]
        for row in range(n):
            if row == col:
                continue
            factor = a[row][col]
            if factor.value == 0.0 and not factor.grad.any() \
                    and not factor.hess.any() and not factor.third.any():
                continue
            a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
            inv[row] = [x - factor * y for x, y in zip(inv[row], inv[col])]
    return inv


def per_component_curvature(chart, point) -> dict:
    """Every CurvaturePoint field, each ``stack_derivatives`` entry and
    d_a d_b Gamma at ``point``, from per-component jets."""
    n, rng = chart.n, range(chart.n)
    gj = [[None] * n for _ in rng]
    for i in rng:
        for j in range(i, n):
            gj[i][j] = gj[j][i] = eval_jet3(chart.metric[i][j], point,
                                            chart.params)
    ginvj = jet_matrix_inverse(gj)
    dgj = [[[gj[i][j].deriv(a) for j in rng] for i in rng] for a in rng]

    gam = [[[None] * n for _ in rng] for _ in rng]
    for j in rng:
        for k in range(j, n):
            combos = [dgj[j][l][k] + dgj[k][l][j] - dgj[l][j][k] for l in rng]
            for m in rng:
                acc = ginvj[m][0].truncated(2) * combos[0]
                for l in range(1, n):
                    acc = acc + ginvj[m][l].truncated(2) * combos[l]
                gam[m][j][k] = gam[m][k][j] = acc * 0.5

    zero1 = Jet3.empty(n, 1)
    riem = [[[[zero1] * n for _ in rng] for _ in rng] for _ in rng]
    for j in rng:
        for k in range(j + 1, n):
            for l in rng:
                for m in rng:
                    acc = gam[m][j][l].deriv(k) - gam[m][k][l].deriv(j)
                    for b in rng:
                        acc = acc + gam[b][j][l].truncated(1) * gam[m][k][b].truncated(1)
                        acc = acc - gam[b][k][l].truncated(1) * gam[m][j][b].truncated(1)
                    riem[j][k][l][m] = acc
                    riem[k][j][l][m] = -acc

    ricc = [[None] * n for _ in rng]
    for j in rng:
        for l in rng:
            acc = riem[j][0][l][0]
            for m in range(1, n):
                acc = acc + riem[j][m][l][m]
            ricc[j][l] = acc
    rs = Jet3.empty(n, 1)
    for j in rng:
        for l in rng:
            rs = rs + ginvj[j][l].truncated(1) * ricc[j][l]

    weyl = [[[[zero1] * n for _ in rng] for _ in rng] for _ in rng]
    if n >= 3:
        c1 = 1.0 / (n - 2)
        c2 = 1.0 / ((n - 1) * (n - 2))
        gt = lambda i, o: gj[i][o].truncated(1)
        rt = lambda i, o: ricc[i][o].truncated(1)
        for j in rng:
            for k in range(j + 1, n):
                for l in rng:
                    for m in range(l + 1, n):
                        low = riem[j][k][l][0].truncated(1) * gt(0, m)
                        for a in range(1, n):
                            low = low + riem[j][k][l][a].truncated(1) * gt(a, m)
                        term = (gt(j, m) * rt(k, l) - gt(k, m) * rt(j, l)
                                + rt(j, m) * gt(k, l) - rt(k, m) * gt(j, l)) * c1
                        trace = rs.truncated(1) * (
                            gt(j, m) * gt(k, l) - gt(m, k) * gt(j, l)) * c2
                        val = low + term - trace
                        weyl[j][k][l][m] = val
                        weyl[k][j][l][m] = -val
                        weyl[j][k][m][l] = -val
                        weyl[k][j][m][l] = val

    def values(grid, shape):
        return np.array([jet.value for jet in _flat(grid)]).reshape(shape)

    def grads(grid, shape):
        flat = np.array([jet.grad for jet in _flat(grid)])
        return np.moveaxis(flat.reshape(shape + (n,)), -1, 0)

    pair_pos = _layout(n).pair_pos
    g = values(gj, (n, n))
    g_inv = values(ginvj, (n, n))
    dg = grads(gj, (n, n))
    gamma = values(gam, (n,) * 3)
    ricci = values(ricc, (n, n))
    d2gamma = np.moveaxis(
        np.array([jet.hess[pair_pos] for jet in _flat(gam)]).reshape((n,) * 5),
        (-2, -1), (0, 1))
    dricci = (grads(ricc, (n, n))
              - np.einsum("akj,al->kjl", gamma, ricci)
              - np.einsum("akl,ja->kjl", gamma, ricci))
    weyl_v = values(weyl, (n,) * 4)
    dweyl = grads(weyl, (n,) * 4)
    # nabla_m C_{jkl}^m with d_a g^{mp} = -g^{mb} (d_a g_bc) g^{cp}
    dginv = -np.einsum("mb,abc,cp->amp", g_inv, dg, g_inv)
    cup = np.einsum("jkla,am->jklm", weyl_v, g_inv)
    divweyl = (np.einsum("mjkla,am->jkl", dweyl, g_inv)
               + np.einsum("jkla,mam->jkl", weyl_v, dginv)
               - np.einsum("amj,aklm->jkl", gamma, cup)
               - np.einsum("amk,jalm->jkl", gamma, cup)
               - np.einsum("aml,jkam->jkl", gamma, cup)
               + np.einsum("a,jkla->jkl", np.einsum("mma->a", gamma), cup))
    return {"g": g, "g_inv": g_inv, "dg": dg, "gamma": gamma,
            "dgamma": grads(gam, (n,) * 3), "d2gamma": d2gamma,
            "riem": values(riem, (n,) * 4), "driem": grads(riem, (n,) * 4),
            "ricci": ricci, "rs": rs.value, "drs": np.array(rs.grad),
            "dricci": dricci, "weyl": weyl_v, "divweyl": divweyl}


def _flat(grid):
    if isinstance(grid, list):
        for row in grid:
            yield from _flat(row)
    else:
        yield grid


@lru_cache(maxsize=None)
def _layout(n: int) -> SimpleNamespace:
    """``jet_tables(n)``'s packed slots under the names that the rules
    written out below read: the pairs (i2, j2) and triples (i3, j3, k3)
    of each slot, ``pair_pos`` and ``triple_pos`` of any index ordering,
    and each triple's pair slots p_ij, p_ik and p_jk."""
    t = jet_tables(n)
    (i2, j2), (i3, j3, k3) = t.tuples[2].T, t.tuples[3].T
    pair_pos = t.pos[2]
    return SimpleNamespace(
        pair_pos=pair_pos, triple_pos=t.pos[3], i2=i2, j2=j2, i3=i3, j3=j3,
        k3=k3, p_ij=pair_pos[i3, j3], p_ik=pair_pos[i3, k3],
        p_jk=pair_pos[j3, k3])


def _zero_levels(n: int) -> tuple:
    """Zero gradient, Hessian and third levels."""
    t = _layout(n)
    return np.zeros(n), np.zeros(len(t.i2)), np.zeros(len(t.i3))


# ---------------------------------------------------------------------------
# Scalar order-3 jets and the recursive tree evaluators: one Jet3 per node,
# the engine's evaluation path before the tape walker (grwcert.expr) became
# its only one. The walker is pinned against these byte for byte, errors
# included. Jet3 arithmetic follows the exact Leibniz and chain rules, with
# packed symmetric second and third levels (jet_tables' slots).
# ---------------------------------------------------------------------------

class JetDomainError(ArithmeticError):
    """A function left its domain during jet evaluation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op
        self.detail = detail



class Jet3:
    """Value plus packed first/second/third partials in ``n`` variables.

    ``order`` records how many derivative levels are trustworthy; taking a
    coordinate derivative of an order-k jet yields an order-(k-1) jet.
    Arithmetic propagates the minimum order of its operands and never reads
    levels beyond it.
    """

    __slots__ = ("n", "order", "value", "grad", "hess", "third")

    def __init__(self, n: int, order: int, value: float,
                 grad: np.ndarray, hess: np.ndarray, third: np.ndarray):
        self.n = n
        self.order = order
        self.value = float(value)
        self.grad = grad
        self.hess = hess
        self.third = third

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, n: int, order: int = MAX_ORDER) -> "Jet3":
        return cls(n, order, 0.0, *_zero_levels(n))

    @classmethod
    def constant(cls, n: int, value: float) -> "Jet3":
        out = cls.empty(n)
        out.value = float(value)
        return out

    @classmethod
    def coordinate(cls, n: int, index: int, value: float) -> "Jet3":
        out = cls.empty(n)
        out.value = float(value)
        out.grad = np.zeros(n)
        out.grad[index] = 1.0
        return out

    # -- structure ----------------------------------------------------

    def truncated(self, order: int) -> "Jet3":
        """View of this jet with a (possibly) lower declared order.

        Shares storage; jets are immutable so this is safe. Used to cap the
        work done by downstream products whose high levels would be unused.
        """
        if order >= self.order:
            return self
        return Jet3(self.n, order, self.value, self.grad, self.hess, self.third)

    def deriv(self, i: int) -> "Jet3":
        """Coordinate derivative: an order-(k-1) jet of the i-th partial."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        t = _layout(self.n)
        out = Jet3.empty(self.n, self.order - 1)
        out.value = float(self.grad[i])
        if out.order >= 1:
            out.grad = self.hess[t.pair_pos[i]]
        if out.order >= 2:
            out.hess = self.third[t.triple_pos[i][t.i2, t.j2]]
        return out

    def third_tensor(self) -> np.ndarray:
        t = _layout(self.n)
        return self.third[t.triple_pos]

    def d2(self, i: int, j: int) -> float:
        return float(self.hess[_layout(self.n).pair_pos[i, j]])

    def d3(self, i: int, j: int, k: int) -> float:
        return float(self.third[_layout(self.n).triple_pos[i, j, k]])

    def __repr__(self) -> str:
        return f"Jet3(n={self.n}, order={self.order}, value={self.value!r})"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet3):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet3.constant(self.n, float(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        out = Jet3.empty(self.n, order)
        out.value = self.value + o.value
        if order >= 1:
            out.grad = self.grad + o.grad
        if order >= 2:
            out.hess = self.hess + o.hess
        if order >= 3:
            out.third = self.third + o.third
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Jet3.empty(self.n, self.order)
        out.value = -self.value
        out.grad = -self.grad
        out.hess = -self.hess
        out.third = -self.third
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = float(other)
            out = Jet3.empty(self.n, self.order)
            out.value = self.value * c
            out.grad = self.grad * c
            out.hess = self.hess * c
            out.third = self.third * c
            return out
        if not isinstance(other, Jet3):
            return NotImplemented
        a, b = self, other
        order = min(a.order, b.order)
        t = _layout(a.n)
        out = Jet3.empty(a.n, order)
        out.value = a.value * b.value
        if order >= 1:
            out.grad = a.grad * b.value + a.value * b.grad
        if order >= 2:
            out.hess = (a.hess * b.value + a.value * b.hess
                        + a.grad[t.i2] * b.grad[t.j2] + a.grad[t.j2] * b.grad[t.i2])
        if order >= 3:
            out.third = (a.third * b.value + a.value * b.third
                         + a.hess[t.p_ij] * b.grad[t.k3]
                         + a.hess[t.p_ik] * b.grad[t.j3]
                         + a.hess[t.p_jk] * b.grad[t.i3]
                         + a.grad[t.i3] * b.hess[t.p_jk]
                         + a.grad[t.j3] * b.hess[t.p_ik]
                         + a.grad[t.k3] * b.hess[t.p_ij])
        return out

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        v = self.value
        if v == 0.0:
            raise JetDomainError("div", "division by zero")
        return self._compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("div", "division by zero")
            return self * (1.0 / float(other))
        if not isinstance(other, Jet3):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float, np.floating, np.integer)):
            return NotImplemented
        e = float(exponent)
        v = self.value
        return self._compose(_pow_term(v, e, 0), _pow_term(v, e, 1),
                             _pow_term(v, e, 2), _pow_term(v, e, 3))

    # -- chain rule ----------------------------------------------------

    def _compose(self, c0: float, c1: float, c2: float, c3: float) -> "Jet3":
        """phi(self) for a scalar function with derivatives c0..c3 at value."""
        t = _layout(self.n)
        out = Jet3.empty(self.n, self.order)
        out.value = c0
        if self.order >= 1:
            out.grad = c1 * self.grad
        if self.order >= 2:
            out.hess = c1 * self.hess + c2 * self.grad[t.i2] * self.grad[t.j2]
        if self.order >= 3:
            out.third = (c1 * self.third
                         + c2 * (self.hess[t.p_ij] * self.grad[t.k3]
                                 + self.hess[t.p_ik] * self.grad[t.j3]
                                 + self.hess[t.p_jk] * self.grad[t.i3])
                         + c3 * self.grad[t.i3] * self.grad[t.j3] * self.grad[t.k3])
        return out

    def exp(self) -> "Jet3":
        c = math.exp(self.value)
        return self._compose(c, c, c, c)

    def ln(self) -> "Jet3":
        v = self.value
        if v <= 0.0:
            raise JetDomainError("ln", f"argument {v!r} is not positive")
        return self._compose(math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def sqrt(self) -> "Jet3":
        v = self.value
        if v <= 0.0:
            raise JetDomainError("sqrt", f"argument {v!r} is not positive")
        r = math.sqrt(v)
        return self._compose(r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))

    def sin(self) -> "Jet3":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s, -c)

    def cos(self) -> "Jet3":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(c, -s, -c, s)

    def tan(self) -> "Jet3":
        v = math.tan(self.value)
        s = 1.0 + v * v
        return self._compose(v, s, 2.0 * v * s, s * (2.0 + 6.0 * v * v))

    def sinh(self) -> "Jet3":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(s, c, s, c)

    def cosh(self) -> "Jet3":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(c, s, c, s)

    def tanh(self) -> "Jet3":
        v = math.tanh(self.value)
        s = 1.0 - v * v
        return self._compose(v, s, -2.0 * v * s, s * (6.0 * v * v - 2.0))


def _pow_term(v: float, e: float, m: int) -> float:
    """m-th derivative of x**e at v: e(e-1)...(e-m+1) v**(e-m)."""
    coeff = 1.0
    for i in range(m):
        coeff *= e - i
    if coeff == 0.0:
        return 0.0
    p = e - m
    if float(e).is_integer():
        if v == 0.0:
            if p < 0:
                raise JetDomainError("pow", f"0.0 raised to negative power {p}")
            return coeff if p == 0 else 0.0
        return coeff * v ** p
    if v <= 0.0:
        raise JetDomainError(
            "pow", f"base {v!r} not positive for non-integer exponent {e!r}")
    return coeff * v ** p


def as_jet3(jet) -> Jet3:
    """A shape-() ``TensorJet`` as a scalar ``Jet3``."""
    return Jet3(jet.n, jet.order, float(jet.levels[0]),
                *jet.levels[1:], *_zero_levels(jet.n)[jet.order:])


def eval_jet3(node: Expr, point, params: Mapping[str, float]) -> Jet3:
    """Evaluate to an order-3 jet at ``point`` (a ChartPoint or a sequence)."""
    coords = getattr(point, "coords", point)
    n = len(coords)
    return _eval_jet(node, coords, params, n)


def _eval_jet(node: Expr, coords, params, n: int) -> Jet3:
    if isinstance(node, Const):
        return Jet3.constant(n, node.value)
    if isinstance(node, Coord):
        return Jet3.coordinate(n, node.index, float(coords[node.index]))
    if isinstance(node, Param):
        try:
            return Jet3.constant(n, float(params[node.name]))
        except KeyError:
            raise EvalDomainError(
                "parameter", node.offset, f"{node.name!r} is unbound") from None
    if isinstance(node, Unary):
        arg = _eval_jet(node.arg, coords, params, n)
        if node.op == "neg":
            return -arg
        try:
            return getattr(arg, node.op)()
        except JetDomainError as err:
            raise EvalDomainError(node.op, node.offset, err.detail) from None
    if isinstance(node, Binary):
        left = _eval_jet(node.left, coords, params, n)
        right = _eval_jet(node.right, coords, params, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except JetDomainError as err:
            raise EvalDomainError("div", node.offset, err.detail) from None
    if isinstance(node, Power):
        base = _eval_jet(node.base, coords, params, n)
        try:
            return base ** node.exponent
        except JetDomainError as err:
            raise EvalDomainError("pow", node.offset, err.detail) from None
    raise TypeError(f"not an expression node: {node!r}")


_VALUE_FN = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}


def eval_value(node: Expr, coords, params: Mapping[str, float]) -> float:
    """Fast value-only evaluation (used by sampling and quadrature)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return float(coords[node.index])
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalDomainError(
                "parameter", node.offset, f"{node.name!r} is unbound") from None
    if isinstance(node, Unary):
        arg = eval_value(node.arg, coords, params)
        if node.op == "neg":
            return -arg
        if node.op == "ln":
            if arg <= 0.0:
                raise EvalDomainError("ln", node.offset,
                                      f"argument {arg!r} is not positive")
            return math.log(arg)
        if node.op == "sqrt":
            if arg <= 0.0:
                raise EvalDomainError("sqrt", node.offset,
                                      f"argument {arg!r} is not positive")
            return math.sqrt(arg)
        return _VALUE_FN[node.op](arg)
    if isinstance(node, Binary):
        left = eval_value(node.left, coords, params)
        right = eval_value(node.right, coords, params)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise EvalDomainError("div", node.offset, "division by zero")
        return left / right
    if isinstance(node, Power):
        base = eval_value(node.base, coords, params)
        e = node.exponent
        if float(e).is_integer():
            if base == 0.0 and e < 0:
                raise EvalDomainError("pow", node.offset,
                                      f"0.0 raised to negative power {e}")
            return base ** e
        if base <= 0.0:
            raise EvalDomainError(
                "pow", node.offset,
                f"base {base!r} not positive for non-integer exponent {e!r}")
        return base ** e
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Constant exponents folded by recursion in Python floats: the parser's
# folding before the tape walker did it. A power of a base <= 0 to a
# non-integer exponent folds to 0.0 or to a complex number here, which the
# walker refuses; ``forbidden_power`` marks a parse that folded one.
# ---------------------------------------------------------------------------

def fold_constant(node: Expr, parser=None):
    """The exponent tree's value as Python folds it, or None if it is not
    constant; ParseError for a zero divisor, ArithmeticError on overflow."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Unary) and node.op == "neg":
        inner = fold_constant(node.arg, parser)
        return None if inner is None else -inner
    if isinstance(node, Binary):
        left = fold_constant(node.left, parser)
        right = fold_constant(node.right, parser)
        if left is None or right is None:
            return None
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0:
            raise ParseError("division by zero in constant exponent",
                             node.offset)
        return left / right
    if isinstance(node, Power):
        base = fold_constant(node.base, parser)
        if base is None:
            return None
        if parser is not None and not float(node.exponent).is_integer() \
                and (isinstance(base, complex) or base <= 0.0):
            parser.forbidden_power = True
        return base ** node.exponent
    return None


class FoldingParser(_Parser):
    """The grammar's parser with ``fold_constant`` folding its exponents."""

    forbidden_power = False

    def exponent(self) -> float:
        root = self.exponent_atom()
        try:
            folded = fold_constant(root, self)
        except ArithmeticError:      # 10^400, 0^-1
            folded = math.inf
        if folded is None:
            raise ParseError("exponent must be a constant expression",
                             root.offset)
        if isinstance(folded, complex) or not math.isfinite(folded):
            raise ParseError("exponent is not a finite real number",
                             root.offset)
        return folded


# ---------------------------------------------------------------------------
# Curvature identities the report does not carry: the second Bianchi
# identity, and the factor of the contracted one.
# ---------------------------------------------------------------------------

# c(n) of the contracted second Bianchi identity, one constant per
# dimension, determined by a dev-time oracle run on non-conformally-flat
# metrics, in the engine's slot convention:
#   nabla_m C_{jkl}^m = c(n) [nabla_j R_{kl} - nabla_k R_{jl}
#                             - (g_{kl} d_j R - g_{jl} d_k R) / (2(n-1))].
# The engine computes div C by this identity; tests/test_curvature.py pins
# its factor here and its result against per_component_curvature's direct
# divergence of C.
COTTON_COEFF = {3: 0.0, 4: -0.5, 5: -2.0 / 3.0, 6: -0.75, 7: -0.8, 8: -5.0 / 6.0}


def stack_derivatives(stack: JetStack) -> dict:
    """The derivatives a CurvaturePoint does not carry, off a one-point
    stack's jets: d_k g_ij, d_a Gamma^m_{jk}, d_j R and nabla_k R_{jl}."""
    gamma, ricci = stack.gamma.value[0], stack.ricci.value[0]
    dg, dgamma, dricci = (np.moveaxis(jet.grad[0], -1, 0) for jet in
                          (stack.g, stack.gamma, stack.ricci))
    return {"dg": dg, "dgamma": dgamma, "drs": stack.rs.grad[0],
            "dricci": (dricci - np.einsum("akj,al->kjl", gamma, ricci)
                       - np.einsum("akl,ja->kjl", gamma, ricci))}


def second_bianchi_residual(chart: MetricChart, point: ChartPoint) -> float:
    """Cyclic covariant derivative of the lowered Riemann tensor."""
    stack = JetStack(chart, [point])
    cp, = point_rows(stack.to_point())
    low = np.einsum("jklm,mp->jklp", cp.riem, cp.g)
    dlow = (np.einsum("ajklm,mp->ajklp", cp.driem, cp.g)
            + np.einsum("jklm,amp->ajklp", cp.riem,
                        stack_derivatives(stack)["dg"]))
    nabla = (dlow
             - np.einsum("baj,bklp->ajklp", cp.gamma, low)
             - np.einsum("bak,jblp->ajklp", cp.gamma, low)
             - np.einsum("bal,jkbp->ajklp", cp.gamma, low)
             - np.einsum("bap,jklb->ajklp", cp.gamma, low))
    cyc = (nabla + np.einsum("jkalp->ajklp", nabla)
           + np.einsum("kajlp->ajklp", nabla))
    return scale_free(cyc, nabla)
