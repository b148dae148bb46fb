"""Perfect-fluid classification and the full chain of theorem-level checks:
fluid decomposition, closedness, torse-forming structure, potential
reconstruction, gradient-rescaled (Chen) vector, conformal-Killing gradient
law, purely electric Weyl, the identity ladder, and the soliton form.

Scalar fields and their gradients are computed end to end in jet
arithmetic from a closed-form velocity field; the only quadrature in the
module is the line integral reconstructing a potential from an already
closed 1-form (whose derivative structure is then taken from the form
itself, not from differencing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .chart import MetricChart
from .curvature import (JetStack, christoffel, covariant_derivative,
                        metric_inverse, scale_free_at)
# eval_jet3 is not called here; perfbench's layer tracer wraps it by name.
from .expr import Expr, RowError, eval_jet3, eval_jet3_batch  # noqa: F401
from .jets import TensorJet, contract

# Gauss-Legendre nodes per panel of the potential quadrature, and its
# ladder of coarse panel counts: a rung whose panel doubling moves the
# segment by more than REFINE_TOL relative gives way to the next.
QUAD_ORDER = 8
QUAD_PANELS = (1, 2, 4)
REFINE_TOL = 1e-8
# The most slots of one integrand call, unless one target alone has more: a
# call on rung p takes CALL_ROWS // 7m whole targets (m = QUAD_ORDER p).
CALL_ROWS = 8192


# The eigen-split's branches, as the report names them.
NONDEGENERATE, DEGENERATE, ANOMALOUS = "nondegenerate", "degenerate", "anomalous"


@dataclass
class FluidDecomposition:
    """A, B and the unit time-like velocity extracted from the Ricci tensor
    at each point of a batch, as arrays over the points.

    ``branch`` is NONDEGENERATE, DEGENERATE (the Einstein case: all
    eigenvalues coincide, B is 0 and no velocity is defined) or ANOMALOUS,
    where ``error`` says why and a, b and the residual mean nothing. u_up
    is 0 off the nondegenerate branch.
    """

    a: np.ndarray
    b: np.ndarray
    u_up: np.ndarray              # contravariant components, unit, u^1 > 0
    residual: np.ndarray
    branch: np.ndarray
    error: list[str | None]


def fluid_decompose(cp, cluster_tol: float = 1e-6) -> FluidDecomposition:
    """Eigen-split the mixed Ricci tensor R^i_j into (n-1)-fold A and A-B
    at each point of a batch, with one ``np.linalg.eig`` for all of them.

    Works on anything exposing ``g``, ``g_inv``, ``ricci`` and ``n`` with a
    leading point axis. A point whose R^i_j is not finite is anomalous.
    """
    n, g = cp.n, cp.g
    mixed = cp.g_inv @ cp.ricci
    finite = np.isfinite(mixed).all(axis=(-2, -1))
    # eig refuses a batch with any inf or NaN: it sees zeros there instead.
    eigvals, eigvecs = np.linalg.eig(np.where(finite[:, None, None], mixed, 0))
    vals, imag = eigvals.real, np.max(np.abs(eigvals.imag), axis=-1)
    scale = np.fmax(1.0, np.max(np.abs(vals), axis=-1))
    tol = cluster_tol * scale
    order = np.argsort(vals, axis=-1)
    svals = np.take_along_axis(vals, order, -1)

    def split(distinguished, cluster):
        """Whether the points split as cluster + distinguished, and the
        cluster's mean."""
        mean = np.mean(cluster, axis=-1)
        spread = np.max(cluster, axis=-1) - np.min(cluster, axis=-1)
        return (spread < tol) & (np.abs(distinguished - mean) > tol), mean

    low_ok, low_a = split(svals[:, 0], svals[:, 1:])
    high_ok, high_a = split(svals[:, -1], svals[:, :-1])
    points = np.arange(len(vals))
    pos = np.where(low_ok, 0, n - 1)
    a = np.where(low_ok, low_a, high_a)
    b = a - svals[points, pos]
    vec = np.real(eigvecs[points, :, order[points, pos]])
    norm = np.einsum("pi,pij,pj->p", vec, g, vec)
    u_up = vec / np.sqrt(np.where(norm < 0.0, -norm, 1.0))[:, None]
    u_up = np.where(u_up[:, :1] < 0.0, -u_up, u_up)

    # Each point's branch, and for an anomalous one the first test it fails.
    branch, error = np.full(len(vals), NONDEGENERATE, dtype=object), []
    for i in points:
        why = None
        if not finite[i]:
            why = "R^i_j is not finite"
        elif imag[i] > 1e-9 * scale[i]:
            why = f"complex eigenvalues of R^i_j (max imag {imag[i]:.3e})"
        elif svals[i, -1] - svals[i, 0] < tol[i]:
            branch[i] = DEGENERATE
        elif low_ok[i] == high_ok[i]:
            why = (f"eigenvalues {np.sort(vals[i])} match neither an "
                   f"Einstein point nor an (n-1)+1 split at tolerance "
                   f"{cluster_tol}")
        elif norm[i] >= 0.0:
            why = (f"distinguished eigendirection has g(v, v) = "
                   f"{norm[i]:.6g} >= 0")
        elif abs(u_up[i, 0]) < 1e-12:
            why = "u^1 = 0; cannot orient the velocity"
        if why is not None:
            branch[i] = ANOMALOUS
        error.append(why)

    degenerate, nondegenerate = branch == DEGENERATE, branch == NONDEGENERATE
    a = np.where(degenerate, np.mean(svals, axis=-1), a)
    b = np.where(nondegenerate, b, 0.0)
    u_up = np.where(nondegenerate[:, None], u_up, 0.0)
    # B = 0 and u = 0 off the split leave the Einstein residual R - A g.
    u = np.einsum("pij,pj->pi", g, u_up)
    return FluidDecomposition(a=a, b=b, u_up=u_up, branch=branch,
                              error=error,
                              residual=fluid_form_residual(cp, a, b, u))


def fluid_form_residual(cp, a, b, u: np.ndarray):
    """Scale-free R_{kl} - (A g_{kl} + B u_k u_l) at each point of a batch;
    ``cp`` exposes g and ricci."""
    model = a[:, None, None] * cp.g + b[:, None, None] * _outer(u, u)
    return scale_free_at(cp.ricci - model, cp.ricci, model)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


# ---------------------------------------------------------------------------
# Jet pipeline for a closed-form velocity field.
# ---------------------------------------------------------------------------

@dataclass
class FieldPoint:
    """Tensor jets of every velocity-derived object at each point of a
    batch: ``stack`` is the batch's, and every jet has a leading point
    axis.

    ``u`` is order 2; the others are order 1, which is all that is read.
    The scalar jets f, A, B, gamma, p and mu are shape () per point, so
    ``.value`` has shape (P,) and ``.grad`` (P, n).

    u^, nabla u, f, omega, A and B are formed here once; ``torse_at``,
    ``geodesic_at``, ``ladder_residuals_at``, ``_soliton_residual_at``,
    ``physics.motion_at``, ``fluid_form_residual``, ``weyl_electric_at``
    and ``_chen_point`` read them on the batch. The metric is the stack's:
    ``stack.n`` and ``stack.g``.
    """

    stack: JetStack
    u: TensorJet               # covariant components
    u_up: TensorJet
    nabla: TensorJet           # [k, j] = nabla_k u_j
    omega: TensorJet           # omega_k = f u_k - (nabla_k u_j) u^j
    f_jet: TensorJet           # expansion / (n-1)
    a_jet: TensorJet
    b_jet: TensorJet
    gamma_jet: TensorJet
    p_jet: TensorJet
    mu_jet: TensorJet

    @cached_property
    def u_closed(self):
        return _curl_residual(self.u.grad)

    @cached_property
    def omega_closed(self):
        return _curl_residual(self.omega.grad)

    @cached_property
    def accel(self) -> np.ndarray:
        """u^k nabla_k u_j."""
        return self.along_u(self.nabla.value)

    def along_u(self, v: np.ndarray):
        """u^k v_k... (u^ on v's first axis) at each point."""
        return np.einsum("pk,pk...->p...", self.u_up.value, v)


def _curl_residual(grad: np.ndarray):
    """Scale-free curl of a covector from its partials grad[j, k] = d_k w_j.

    The covariant curl equals the partial curl (symmetric connection)."""
    return scale_free_at(grad - np.swapaxes(grad, -1, -2), grad)


class VelocityAnalysis:
    """Ties a covariant velocity field to the curvature stack."""

    def __init__(self, chart: MetricChart,
                 field: tuple[Expr, ...] | None = None):
        self.chart = chart
        self.field = field if field is not None else chart.velocity

    def at(self, stack: JetStack) -> FieldPoint:
        """The FieldPoint at the rows of a chunk's ``stack``, from one
        order-2 walk of the velocity's trees (whose domain error names the
        row's ``index``)."""
        chart, n = self.chart, stack.n
        u = TensorJet(n, eval_jet3_batch(self.field, stack.rows, chart.params,
                                         order=2))
        u_up, nabla, f, omega = _velocity_terms(
            stack.g_inv.truncated(1), stack.gamma.truncated(1), u)
        ruu = contract("ij,ij->", stack.ricci,
                       contract("i,j->ij", u_up, u_up))
        a_jet = (stack.rs + ruu) * (1.0 / (n - 1))
        b_jet = ruu + a_jet
        gamma_jet = a_jet * float(n - 2) + b_jet
        mu_jet = gamma_jet * 0.5
        p_jet = b_jet - mu_jet
        return FieldPoint(stack=stack, u=u, u_up=u_up, nabla=nabla,
                          omega=omega, f_jet=f, a_jet=a_jet, b_jet=b_jet,
                          gamma_jet=gamma_jet, p_jet=p_jet, mu_jet=mu_jet)


def _velocity_terms(g_inv: TensorJet, gamma: TensorJet, u: TensorJet):
    """u^, nabla u, f = nabla_k u^k / (n-1) and omega = f u - (nabla u) u^
    of the covariant velocity u, to order min(u's - 1, g_inv's, gamma's)."""
    u_up = contract("ij,j->i", g_inv, u)
    nabla = covariant_derivative(u, gamma)
    f = contract("kj,kj->", g_inv, nabla) * (1.0 / (u.n - 1))
    omega = contract(",k->k", f, u) - contract("kj,j->k", nabla, u_up)
    return u_up, nabla, f, omega


def geodesic_at(fp: FieldPoint):
    """Scale-free u^k nabla_k u_j at each point of the batch."""
    return scale_free_at(fp.accel, fp.nabla.value)


def torse_at(fp: FieldPoint):
    """(residual, alignment, f_cross) of nabla u = f (g + u x u), arrays
    over the batch's points. The misalignment (nabla_k u_j) u^j is
    f u - omega; f_cross compares f with -u^m d_m gamma / (2B(n-1)), NaN
    where B vanishes."""
    f, b, nabla = fp.f_jet.value, fp.b_jet.value, fp.nabla.value
    u, n = fp.u.value, fp.stack.n
    model = f[..., None, None] * (_outer(u, u) + fp.stack.g.value)
    residual = scale_free_at(nabla - model, nabla, model)
    alignment = scale_free_at(f[..., None] * u - fp.omega.value, nabla)
    f_ref = np.divide(-fp.along_u(fp.gamma_jet.grad), 2.0 * b * (n - 1),
                      out=np.full_like(f, np.nan), where=np.abs(b) > 1e-12)
    return residual, alignment, scale_free_at(f - f_ref, f)


# ---------------------------------------------------------------------------
# Potential reconstruction: line integrals along straight segments.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch: the
    eigenvalues of the Legendre recurrence's Jacobi matrix, and twice the
    squared first components of its unit eigenvectors."""
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False   # cached
    return nodes, weights


@lru_cache(maxsize=None)
def _slots(panels: int):
    """The 7m slots of rung ``panels`` (m = QUAD_ORDER * panels): each one's
    leg (0 the segment, 1 base to corner, 2 corner to target), node s in
    [0, 1], as a column, and weight, of composite Gauss-Legendre of order
    QUAD_ORDER. The coarse segment's m slots come first, then at twice the
    panels the segment's and each leg's 2m, each in path order."""
    nodes, weights = _leggauss(QUAD_ORDER)
    # Each panel's leg, midpoint and half-width, in slot order.
    panel = np.array([(leg, (k + 0.5) / q, 0.5 / q) for leg, q in (
        (0, panels), (0, 2 * panels), (1, 2 * panels), (2, 2 * panels))
        for k in range(q)])
    leg = np.repeat(panel[:, 0].astype(int), QUAD_ORDER)
    s = (panel[:, 1:2] + panel[:, 2:3] * nodes).reshape(-1, 1)
    weights = (panel[:, 2:3] * weights).ravel()
    for table in (leg, s, weights):
        table.flags.writeable = False       # cached
    return leg, s, weights


def _integrate_form(integrand, n, base, targets, refused):
    """Integrate a closed 1-form from ``base`` to each of the (P, n)
    ``targets`` but the ``refused`` ones (index: text) along the segment
    (the range box is convex) and, for the path defect, through the corner
    (target time, base space).

    Each p of QUAD_PANELS is tried in turn until a target's panel doubling
    converges. On rung p the targets still climbing have the same 7m slots
    (``_slots``), gathered once and walked in calls of CALL_ROWS // 7m
    whole targets. A zero-length leg's slots are dead: never walked, and
    their terms are 0.0. A node's term is its weight times the in-order sum
    of form_k (end - start)_k, and each path sums its terms in order from
    0.0. A ``RowError`` in a call refuses every target that owns a failing
    row, with its first failing row's own error at its slot (its path row),
    and that call alone is walked again without them.

    Returns (value, defect, refused) over every target: the segment's value
    and its distance from the corner path's, NaN where a target has no
    value, and each such target's refusal text by its index."""
    base, targets = np.asarray(base, dtype=float), np.asarray(targets, float)
    corners = targets.copy()
    corners[:, 1:] = base[1:]
    starts = np.empty((len(targets), 3, n))
    starts[:, :2], starts[:, 2] = base, corners
    steps = np.stack((targets, corners, targets), axis=1) - starts
    live = (steps != 0.0).any(axis=-1)
    live[:, 0] = True           # the segment is walked even to the base
    value, defect = np.full((2, len(targets)), math.nan)
    climbing = np.flatnonzero([i not in refused for i in range(len(targets))])
    drift, refused = np.zeros(0), dict(refused)
    for p in QUAD_PANELS:
        if not climbing.size:   # no target is left to integrate
            break
        leg, s, weights = _slots(p)
        m, per_call = QUAD_ORDER * p, max(1, CALL_ROWS // len(leg))
        slots = climbing[:, None], leg
        step, alive = steps[slots], live[slots]
        rows = starts[slots] + s * step
        values = np.zeros_like(rows)    # dead slots' terms are 0.0
        for start in range(0, len(climbing), per_call):
            call = slice(start, start + per_call)
            while (walked := alive[call]).any():
                try:
                    values[call][walked] = integrand(rows[call][walked])
                    break
                except RowError as err:
                    # A dead leg's live twin repeats the segment's rows, so a
                    # target's first failing row is in its first 3m slots
                    # unless both legs are live: the slot is the path row.
                    owner, slot = np.nonzero(walked)
                    owners, firsts = np.unique(owner[err.rows] + start,
                                               return_index=True)
                    for k, row in zip(owners.tolist(),
                                      err.rows[firsts].tolist()):
                        error = err.at(row)
                        error.index = int(slot[row])
                        error.coords = rows[k, error.index]
                        error.place = "path row"
                        refused[int(climbing[k])] = \
                            f"path from basepoint: {error}"
                    alive[owners], values[owners] = False, math.nan
        dots = values[..., 0] * step[..., 0]
        for k in range(1, n):
            dots = dots + values[..., k] * step[..., k]
        terms = weights * dots
        # A running sum is the in-order one; "+ 0.0" starts it from 0.0.
        coarse, fine, other = (
            np.add.accumulate(terms[:, a:b], axis=1)[:, -1] + 0.0
            for a, b in ((0, m), (m, 3 * m), (3 * m, 7 * m)))
        drift = abs(fine - coarse)
        # Not "<=": a NaN drift (refused targets' too) ends at NaN values.
        done = ~(drift > REFINE_TOL * (1.0 + abs(fine)))
        value[climbing[done]] = fine[done]
        defect[climbing[done]] = abs(fine - other)[done]
        climbing, drift = climbing[~done], drift[~done]
    refused.update(
        (i, f"segment quadrature did not converge (panel doubling moved "
            f"the value by {d:.3e})")
        for i, d in zip(climbing.tolist(), drift.tolist()))
    return value, defect, refused


def _omega_integrand(chart: MetricChart, field: tuple[Expr, ...]):
    """omega at the rows of an (N, n) array by the FieldPoint's formula at
    order 0: the Christoffels need metric first derivatives only, so one
    value-and-gradient walk over the metric and velocity trees feeds it."""
    trees, pairs = chart.upper + field, len(chart.upper)

    def integrand(x):
        levels = eval_jet3_batch(trees, x, chart.params, order=1)
        g = TensorJet(chart.n, [chart.symmetric(level[:, :pairs])
                                for level in levels])
        g_inv = metric_inverse(g.truncated(0))
        u = TensorJet(chart.n, [level[:, pairs:] for level in levels])
        return _velocity_terms(g_inv, christoffel(g, g_inv), u)[3].value

    return integrand


def not_closed(form: str, residual) -> str:
    """The refusal of a form whose closedness residual is ``residual``."""
    return f"{form} not closed (residual {residual:.3e})"


def _chen_point(fp: FieldPoint, sigma: np.ndarray):
    """(Chen-vector residual, CKV-gradient residual, max |grad rho|) of
    X = e^{-sigma} u and rho = e^{-sigma} f, as arrays over the batch's
    points, from sigma at each point. Since d sigma = omega, nabla X is
    e^{-sigma} (nabla u - omega x u) and grad rho is e^{-sigma}
    (grad f - f omega), from what the FieldPoint holds."""
    s = np.exp(-sigma)
    u, omega, f = fp.u.value, fp.omega.value, fp.f_jet.value
    x = s[:, None] * u
    nabla_x = s[:, None, None] * (fp.nabla.value - _outer(omega, u))
    rho_g = (s * f)[:, None, None] * fp.stack.g.value
    grad_rho = s[:, None] * (fp.f_jet.grad - f[:, None] * omega)
    ckv_rhs = ((fp.a_jet.value - fp.b_jet.value)
               / (1.0 - fp.stack.n))[:, None] * x
    return (scale_free_at(nabla_x - rho_g, nabla_x, rho_g),
            scale_free_at(grad_rho - ckv_rhs, grad_rho, ckv_rhs),
            np.max(np.abs(grad_rho), axis=-1))


def weyl_electric_at(cp, u_up: np.ndarray):
    """Scale-free C_{jkl}{}^m u_m at each point of a batch, from the
    contravariant velocity."""
    return scale_free_at(np.einsum("...jkla,...a->...jkl", cp.weyl, u_up),
                         cp.weyl)


def ladder_residuals_at(fp: FieldPoint) -> dict:
    """All nine intermediate identities, scale-free, as arrays over the
    batch's points."""
    n, g, u, nabla = fp.stack.n, fp.stack.g.value, fp.u.value, fp.nabla.value
    b = fp.b_jet.value[..., None]                   # scales a vector
    da, db, dgam = fp.a_jet.grad, fp.b_jet.grad, fp.gamma_jet.grad
    divu = fp.f_jet.value[..., None] * (n - 1)
    u_dot_db = fp.along_u(db)[..., None]
    u_dot_dgam = fp.along_u(dgam)[..., None]
    accel = fp.accel
    # (nabla_k + u_k u^l nabla_l) B + B u^l nabla_l u_k and
    # (nabla_k + u_k u^l nabla_l) gamma, which four rungs read.
    b_moving = db + u * u_dot_db + b * accel
    gam_moving = dgam + u * u_dot_dgam
    out = {}

    def put(name, residual, *references):
        out[name] = scale_free_at(residual, *references)

    lhs = u_dot_db * u + b * accel + b * divu * u
    rhs = 0.5 * ((n - 2) * da - db)
    put("bianchi-contract", lhs - rhs, lhs, rhs)

    t3 = (np.einsum("...k,...j,...l->...kjl", db, u, u)
          + b[..., None, None] * np.einsum("...kj,...l->...kjl", nabla, u)
          + b[..., None, None] * np.einsum("...j,...kl->...kjl", u, nabla))
    # nabla_k(Bu_ju_l) - nabla_l(Bu_ju_k)
    lhs = t3 - np.einsum("...ljk->...kjl", t3)
    rhs = -(np.einsum("...k,...jl->...kjl", dgam, g)
            - np.einsum("...l,...jk->...kjl", dgam, g)) / (2 * (n - 1))
    put("ricci-curl", lhs - rhs, lhs, rhs)

    rhs = gam_moving / (2 * (n - 1))
    put("b-transport", b_moving - rhs, b_moving, rhs)
    rhs = 0.5 * gam_moving
    put("b-transport-half", b_moving - rhs, b_moving, rhs)
    put("gamma-comoving", gam_moving, dgam)
    put("b-comoving", b_moving, db, b * accel)

    lhs = b[..., None] * (nabla + _outer(u, accel))
    rhs = (_outer(dgam, u) - g * u_dot_dgam[..., None]) / (2 * (n - 1))
    put("torse-source", lhs - rhs, lhs, rhs)

    m = _outer(db, u) + b[..., None] * nabla   # nabla_k (B u_j)
    put("bu-closed", m - np.swapaxes(m, -1, -2), m)

    u_dgam = _outer(u, dgam)
    put("gamma-aligned", u_dgam - np.swapaxes(u_dgam, -1, -2), u_dgam)
    return out


def _soliton_residual_at(fp: FieldPoint):
    """(residual, lam, eta) of the soliton form, arrays over the batch's
    points. The form reads d theta = u and Hess(theta) only, so theta
    itself is never integrated; it exists only where u is closed, and the
    caller refuses the other points (``not_closed``)."""
    # d theta = u, so Hess(theta) is the symmetrized nabla u.
    grad_theta, nabla = fp.u.value, fp.nabla.value
    hess_cov = 0.5 * (nabla + np.swapaxes(nabla, -1, -2))
    f = fp.f_jet.value
    lam = fp.a_jet.value + f
    eta = fp.b_jet.value + f
    lhs = (fp.stack.ricci.value + hess_cov
           - eta[..., None, None] * _outer(grad_theta, grad_theta))
    rhs = lam[..., None, None] * fp.stack.g.value
    return scale_free_at(lhs - rhs, lhs, rhs), lam, eta
