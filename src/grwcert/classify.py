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
from functools import cached_property, lru_cache, reduce
from operator import add

import numpy as np

from .chart import ChartPoint, MetricChart, VectorField
from .curvature import JetStack, scale_free
from .expr import eval_batch, eval_jet3
from .jets import TensorJet, contract

LADDER_NAMES = (
    "bianchi-contract",
    "ricci-curl",
    "b-transport",
    "b-transport-half",
    "gamma-comoving",
    "b-comoving",
    "torse-source",
    "bu-closed",
    "gamma-aligned",
)

# Gauss-Legendre nodes per panel and coarse panel count of the potential
# quadrature; the refinement pass doubles the panels.
QUAD_ORDER = 8
QUAD_PANELS = 4


class FluidDecompositionError(ValueError):
    pass


class SpacelikeAnomalyError(FluidDecompositionError):
    """The distinguished eigendirection of R^i_j is not timelike."""


class UnclusteredError(FluidDecompositionError):
    """Eigenvalues split neither as (n-1)+1 nor as a single cluster."""


class OrientationTieError(FluidDecompositionError):
    """u^1 = 0: the chart cannot orient the velocity deterministically."""


class NotClosedError(ValueError):
    """Potential reconstruction refused: the 1-form is not closed."""


class QuadratureError(RuntimeError):
    """Composite Gauss-Legendre refinement failed to converge."""


@dataclass
class FluidDecomposition:
    """A, B and the unit timelike velocity extracted from the Ricci tensor.

    ``degenerate`` marks the Einstein case (all eigenvalues coincide):
    B is set to 0 and no velocity is defined.
    """

    a: float
    b: float
    u: np.ndarray | None          # covariant components, unit, u^1 > 0
    u_up: np.ndarray | None
    residual: float
    degenerate: bool


def fluid_decompose(cp, cluster_tol: float = 1e-6) -> FluidDecomposition:
    """Eigen-split the mixed Ricci tensor R^i_j into (n-1)-fold A and A-B.

    Works on anything exposing ``g``, ``g_inv``, ``ricci`` and ``n``.
    """
    n = cp.n
    mixed = cp.g_inv @ cp.ricci
    eigvals, eigvecs = np.linalg.eig(mixed)
    scale = max(1.0, float(np.max(np.abs(eigvals.real))))
    if np.max(np.abs(eigvals.imag)) > 1e-9 * scale:
        raise UnclusteredError(
            f"complex eigenvalues of R^i_j (max imag {np.max(np.abs(eigvals.imag)):.3e})")
    vals = eigvals.real
    order = np.argsort(vals)
    svals = vals[order]

    if svals[-1] - svals[0] < cluster_tol * scale:
        a = float(np.mean(svals))
        residual = scale_free(cp.ricci - a * cp.g, cp.ricci, a * cp.g)
        return FluidDecomposition(a=a, b=0.0, u=None, u_up=None,
                                  residual=residual, degenerate=True)

    def split_ok(idx_distinct, idx_cluster):
        cluster = svals[idx_cluster]
        spread = float(cluster.max() - cluster.min())
        gap = abs(float(svals[idx_distinct] - np.mean(cluster)))
        return spread < cluster_tol * scale and gap > cluster_tol * scale

    low_ok = split_ok(0, slice(1, n))
    high_ok = split_ok(n - 1, slice(0, n - 1))
    if low_ok == high_ok:
        raise UnclusteredError(
            f"eigenvalues {np.sort(vals)} match neither an Einstein point "
            f"nor an (n-1)+1 split at tolerance {cluster_tol}")
    pos = 0 if low_ok else n - 1
    distinguished = float(svals[pos])
    cluster_vals = np.delete(svals, pos)
    a = float(np.mean(cluster_vals))
    b = a - distinguished

    vec = np.real(eigvecs[:, order[pos]])
    norm = float(vec @ cp.g @ vec)
    if norm >= 0.0:
        raise SpacelikeAnomalyError(
            f"distinguished eigendirection has g(v, v) = {norm:.6g} >= 0")
    u_up = vec / np.sqrt(-norm)
    if abs(u_up[0]) < 1e-12:
        raise OrientationTieError("u^1 = 0; cannot orient the velocity")
    if u_up[0] < 0.0:
        u_up = -u_up
    u = cp.g @ u_up
    model = a * cp.g + b * np.outer(u, u)
    residual = scale_free(cp.ricci - model, cp.ricci, model)
    return FluidDecomposition(a=a, b=b, u=u, u_up=u_up,
                              residual=residual, degenerate=False)


# ---------------------------------------------------------------------------
# Jet pipeline for a closed-form velocity field.
# ---------------------------------------------------------------------------

@dataclass
class FieldPoint:
    """Tensor jets of every velocity-derived object at one point.

    ``u`` is order 3; the others are order 1, which is all that is read.
    The scalar jets f, A, B, gamma, p and mu are shape (), so ``.value``
    is a 0-d array and ``.grad`` has shape (n,).
    """

    stack: JetStack
    point: ChartPoint
    field: VectorField         # the velocity, for the potentials' integrands
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
    unit_residual: float

    @property
    def n(self) -> int:
        return self.stack.n

    @property
    def g(self) -> np.ndarray:
        return self.stack.g.value

    @property
    def g_inv(self) -> np.ndarray:
        return self.stack.g_inv.value

    @property
    def uv(self) -> np.ndarray:
        return self.u.value

    @property
    def uupv(self) -> np.ndarray:
        return self.u_up.value

    @property
    def du(self) -> np.ndarray:
        """Raw partials d_k u_j."""
        return self.u.grad.T

    @property
    def nabla_u(self) -> np.ndarray:
        return self.nabla.value

    @cached_property
    def u_closed(self) -> float:
        return _curl_residual(self.du)

    @cached_property
    def omega_closed(self) -> float:
        return _curl_residual(self.omega.grad.T)

    @cached_property
    def accel(self) -> np.ndarray:
        """u^k nabla_k u_j."""
        return self.uupv @ self.nabla_u


def _curl_residual(d: np.ndarray) -> float:
    """Scale-free curl of a covector from its raw partials d[k, j] = d_k w_j.

    The covariant curl equals the partial curl (symmetric connection)."""
    return scale_free(d - d.T, d)


class VelocityAnalysis:
    """Ties a covariant velocity field to the curvature stack."""

    def __init__(self, chart: MetricChart, field: VectorField | None = None,
                 *, kappa: float = 1.0):
        self.chart = chart
        self.field = field if field is not None else chart.velocity
        self.kappa = float(kappa)

    def at(self, point: ChartPoint, stack: JetStack | None = None) -> FieldPoint:
        chart = self.chart
        n = chart.n
        if stack is None:
            stack = JetStack(chart, [point]).at(0)
        u = eval_jet3(self.field.components, point, chart.params)
        u1 = u.truncated(1)
        g_inv = stack.g_inv.truncated(1)
        u_up = contract("ij,j->i", g_inv, u1)
        nabla = (u.deriv().truncated(1)
                 - contract("akj,a->kj", stack.gamma.truncated(1), u1))
        unit_residual = abs(float(u_up.value @ u.value) + 1.0)
        f = contract("kj,kj->", g_inv, nabla) * (1.0 / (n - 1))
        omega = contract(",k->k", f, u1) - contract("kj,j->k", nabla, u_up)
        ruu = contract("ij,ij->", stack.ricci,
                       contract("i,j->ij", u_up, u_up))
        a_jet = (stack.rs + ruu) * (1.0 / (n - 1))
        b_jet = ruu + a_jet
        gamma_jet = a_jet * float(n - 2) + b_jet
        mu_jet = gamma_jet * (1.0 / (2.0 * self.kappa))
        p_jet = b_jet * (1.0 / self.kappa) - mu_jet
        return FieldPoint(stack=stack, point=point, field=self.field,
                          u=u, u_up=u_up,
                          nabla=nabla, omega=omega, f_jet=f,
                          a_jet=a_jet, b_jet=b_jet, gamma_jet=gamma_jet,
                          p_jet=p_jet, mu_jet=mu_jet,
                          unit_residual=unit_residual)


def geodesic_at(fp: FieldPoint) -> float:
    """Scale-free u^k nabla_k u_j at one point."""
    return scale_free(fp.accel, fp.nabla_u)


@dataclass
class TorseFormingData:
    f: float
    omega: np.ndarray
    residual: float
    alignment_residual: float      # |(nabla_k u_j) u^j| = |omega - f u|
    f_cross_residual: float | None  # against -u^m d_m gamma / (2B(n-1))


def torse_decompose(nabla_u: np.ndarray, u: np.ndarray, g: np.ndarray,
                    g_inv: np.ndarray, *, b: float | None = None,
                    grad_gamma: np.ndarray | None = None) -> TorseFormingData:
    """Split nabla u into f (g + u x u) and report the defect."""
    n = len(u)
    u_up = g_inv @ u
    f = float(np.einsum("kj,kj->", g_inv, nabla_u)) / (n - 1)
    misalign = nabla_u @ u_up          # (nabla_k u_j) u^j
    omega = f * u - misalign
    model = f * (np.outer(u, u) + g)
    residual = scale_free(nabla_u - model, nabla_u, model)
    alignment = scale_free(misalign, nabla_u)
    f_cross = None
    if b is not None and grad_gamma is not None and abs(b) > 1e-12:
        f_ref = -float(u_up @ grad_gamma) / (2.0 * b * (n - 1))
        f_cross = abs(f - f_ref) / (1.0 + abs(f))
    return TorseFormingData(f=f, omega=omega, residual=residual,
                            alignment_residual=alignment,
                            f_cross_residual=f_cross)


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


def _leg(start, end, quad_order, panels):
    """Rows and weights of composite Gauss-Legendre on the segment
    start + s (end - start), s in [0, 1], in path order."""
    nodes, weights = _leggauss(quad_order)
    half = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    s = (mid[:, None] + half * nodes).ravel()
    return start + s[:, None] * (end - start), np.tile(half * weights, panels)


@dataclass
class PotentialResult:
    value: float
    path_defect: float         # segment vs the path through the corner
    refinement_error: float    # panel-doubling change on the segment


def _integrate_form(integrand, n, base, target, quad_order, panels,
                    refine_tol=1e-8) -> PotentialResult:
    """Integrate a closed 1-form along the segment from ``base`` to
    ``target`` (the range box is convex), at ``panels`` and twice as many
    panels, and along the path through the corner (target time, base
    space) without its zero-length legs, for ``path_defect``. All rows go
    to the integrand in one call; a node's term is its weight times the
    in-order sum of form_k (end - start)_k, and each path sums its terms
    in order."""
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    corner = np.concatenate((target[:1], base[1:]))
    legs = [(base, target, panels), (base, target, 2 * panels)] + [
        (a, b, 2 * panels) for a, b in ((base, corner), (corner, target))
        if np.any(a != b)]
    rows, weights = zip(*(_leg(a, b, quad_order, p) for a, b, p in legs))
    values = integrand(np.concatenate(rows))
    steps = np.repeat([b - a for a, b, _ in legs],
                      [len(w) for w in weights], axis=0)
    dots = values[:, 0] * steps[:, 0]
    for k in range(1, n):
        dots = dots + values[:, k] * steps[:, k]
    terms = (np.concatenate(weights) * dots).tolist()
    m = quad_order * panels
    coarse, fine, other = (reduce(add, terms[i:j], 0.0) for i, j in
                           ((0, m), (m, 3 * m), (3 * m, len(terms))))
    drift = abs(fine - coarse)
    if drift > refine_tol * (1.0 + abs(fine)):
        raise QuadratureError(
            f"segment quadrature did not converge (panel doubling moved "
            f"the value by {drift:.3e})")
    return PotentialResult(value=fine, path_defect=abs(fine - other),
                           refinement_error=drift)


def _field_integrand(chart: MetricChart, field: VectorField):
    """Values of a covariant field at the rows of an (N, n) array."""
    return lambda x: eval_batch(field.components, x, chart.params)


def _omega_integrand(chart: MetricChart, field: VectorField):
    """omega = f u - (nabla u) u^ at the rows of an (N, n) array.

    The Christoffels need metric first derivatives only, so one
    value-and-gradient pass over the metric and velocity trees feeds
    batched array algebra over (N, n, n) blocks.
    """
    n = chart.n
    iu, ju = np.triu_indices(n)
    pairs = len(iu)
    trees = tuple(chart.metric[i][j] for i, j in zip(iu, ju)) + field.components

    def integrand(x):
        values, grads = eval_batch(trees, x, chart.params, grad=True)
        rows = len(values)
        g = np.empty((rows, n, n))
        g[:, iu, ju] = g[:, ju, iu] = values[:, :pairs]
        dg = np.empty((rows, n, n, n))             # dg[r, k, i, j] = d_k g_ij
        dg[:, :, iu, ju] = dg[:, :, ju, iu] = grads[:, :pairs].transpose(0, 2, 1)
        u = np.ascontiguousarray(values[:, pairs:])
        du = np.ascontiguousarray(grads[:, pairs:].transpose(0, 2, 1))
        g_inv = np.linalg.inv(g)
        gamma = 0.5 * np.einsum(
            "rml,rjlk->rmjk", g_inv,
            dg + np.einsum("rklj->rjlk", dg) - np.einsum("rljk->rjlk", dg))
        nabla = du - np.einsum("rakj,ra->rkj", gamma, u)
        u_up = (g_inv @ u[..., None])[..., 0]
        f = np.einsum("rkj,rkj->r", g_inv, nabla) / (n - 1)
        return f[:, None] * u - (nabla @ u_up[..., None])[..., 0]

    return integrand


@dataclass
class ChenPointData:
    sigma: float
    rho: float
    x: np.ndarray                  # covariant Chen vector e^{-sigma} u
    chen_residual: float           # nabla_k X_l - rho g_kl
    ckv_residual: float            # nabla_j rho - (A-B)/(1-n) X_j
    timelike_residual: float       # X^j X_j + e^{-2 sigma}
    path_defect: float
    omega_closed: float
    proper: bool                   # |A - B| above tolerance
    grad_rho_norm: float


def chen_at(fp: FieldPoint, base, *, closed_tol: float = 1e-6,
            branch_tol: float = 1e-7) -> ChenPointData:
    """The gradient laws at one point: sigma integrates the closed omega
    from the basepoint, X = e^{-sigma} u and rho = e^{-sigma} f."""
    if fp.omega_closed > closed_tol:
        raise NotClosedError(f"ω not closed (residual {fp.omega_closed:.3e})")
    pot = _integrate_form(_omega_integrand(fp.stack.chart, fp.field), fp.n,
                          base, fp.point.array(), QUAD_ORDER, QUAD_PANELS)
    return _chen_point(fp, pot, branch_tol)


def _chen_point(fp: FieldPoint, pot: PotentialResult,
                branch_tol: float) -> ChenPointData:
    # X = e^{-sigma} u and rho = e^{-sigma} f, with d sigma = omega read off
    # the closed form itself.
    n = fp.n
    scaling = math.exp(-pot.value)
    dscaling = scaling * -fp.omega.value
    xv = scaling * fp.uv
    dx = np.outer(dscaling, fp.uv) + scaling * fp.du
    nabla_x = dx - np.einsum("akj,a->kj", fp.stack.gamma.value, xv)
    f = float(fp.f_jet.value)
    rho = scaling * f
    grad_rho = dscaling * f + scaling * fp.f_jet.grad
    g = fp.g
    chen_resid = scale_free(nabla_x - rho * g, nabla_x, rho * g)
    a, b = float(fp.a_jet.value), float(fp.b_jet.value)
    ckv_rhs = ((a - b) / (1.0 - n)) * xv
    ckv_resid = scale_free(grad_rho - ckv_rhs, grad_rho, ckv_rhs)
    proper = abs(a - b) > branch_tol * (1.0 + abs(a) + abs(b))
    x_norm = float(xv @ fp.g_inv @ xv)        # must be -e^{-2 sigma} < 0
    scale_sq = scaling * scaling
    timelike_resid = abs(x_norm + scale_sq) / (1.0 + scale_sq)
    return ChenPointData(sigma=pot.value, rho=rho, x=xv,
                         chen_residual=chen_resid, ckv_residual=ckv_resid,
                         timelike_residual=timelike_resid,
                         path_defect=pot.path_defect,
                         omega_closed=fp.omega_closed, proper=proper,
                         grad_rho_norm=float(np.max(np.abs(grad_rho))))


@dataclass
class WeylElectricResult:
    electric_residual: float   # C_{jkl}{}^m u_m
    weyl_norm: float           # scale-free size of C itself


def weyl_electric_check(cp, u_cov: np.ndarray) -> WeylElectricResult:
    u_up = cp.g_inv @ np.asarray(u_cov, dtype=float)
    contracted = np.einsum("jkla,a->jkl", cp.weyl, u_up)
    return WeylElectricResult(
        electric_residual=scale_free(contracted, cp.weyl),
        weyl_norm=scale_free(cp.weyl, cp.riem))


def ladder_residuals_at(fp: FieldPoint) -> dict:
    """All nine intermediate identities at one point, scale-free."""
    n = fp.n
    g = fp.g
    u = fp.uv
    u_up = fp.uupv
    nabla = fp.nabla_u
    a, b = fp.a_jet.value, fp.b_jet.value
    da = np.array(fp.a_jet.grad)
    db = np.array(fp.b_jet.grad)
    dgam = np.array(fp.gamma_jet.grad)
    divu = fp.f_jet.value * (n - 1)
    u_dot_db = float(u_up @ db)
    u_dot_dgam = float(u_up @ dgam)
    accel = fp.accel
    out = {}

    lhs = u_dot_db * u + b * accel + b * divu * u
    rhs = 0.5 * ((n - 2) * da - db)
    out["bianchi-contract"] = scale_free(lhs - rhs, lhs, rhs)

    t3 = (np.einsum("k,j,l->kjl", db, u, u)
          + b * np.einsum("kj,l->kjl", nabla, u)
          + b * np.einsum("j,kl->kjl", u, nabla))
    lhs = t3 - np.einsum("ljk->kjl", t3)      # nabla_k(Bu_ju_l) - nabla_l(Bu_ju_k)
    rhs = -(np.einsum("k,jl->kjl", dgam, g)
            - np.einsum("l,jk->kjl", dgam, g)) / (2 * (n - 1))
    out["ricci-curl"] = scale_free(lhs - rhs, lhs, rhs)

    lhs = db + u * u_dot_db + b * accel
    rhs = (dgam + u * u_dot_dgam) / (2 * (n - 1))
    out["b-transport"] = scale_free(lhs - rhs, lhs, rhs)

    rhs = 0.5 * (dgam + u * u_dot_dgam)
    out["b-transport-half"] = scale_free(lhs - rhs, lhs, rhs)

    resid = dgam + u * u_dot_dgam
    out["gamma-comoving"] = scale_free(resid, dgam)

    resid = db + u * u_dot_db + b * accel
    out["b-comoving"] = scale_free(resid, db, b * accel)

    lhs = b * (nabla + np.einsum("k,j->kj", u, accel))
    rhs = (np.einsum("j,k->kj", u, dgam) - g * u_dot_dgam) / (2 * (n - 1))
    out["torse-source"] = scale_free(lhs - rhs, lhs, rhs)

    m = np.einsum("k,j->kj", db, u) + b * nabla   # nabla_k (B u_j)
    out["bu-closed"] = scale_free(m - m.T, m)

    resid = np.einsum("j,k->jk", u, dgam) - np.einsum("k,j->jk", u, dgam)
    out["gamma-aligned"] = scale_free(resid, np.einsum("j,k->jk", u, dgam))
    return out


def soliton_at(fp: FieldPoint, base, *, closed_tol: float = 1e-6):
    """(residual, lam, eta, theta) of the soliton form at one point, with
    theta integrating the closed u from the basepoint."""
    if fp.u_closed > closed_tol:
        raise NotClosedError(f"u not closed (residual {fp.u_closed:.3e})")
    pot = _integrate_form(_field_integrand(fp.stack.chart, fp.field), fp.n,
                          base, fp.point.array(), QUAD_ORDER, QUAD_PANELS)
    return _soliton_residual_at(fp) + (pot.value,)


def _soliton_residual_at(fp: FieldPoint) -> tuple[float, float, float]:
    # d theta = u, so Hess(theta) is the symmetrized d u.
    grad_theta = fp.uv
    hess_cov = 0.5 * (fp.du + fp.du.T) - np.einsum(
        "aij,a->ij", fp.stack.gamma.value, grad_theta)
    f = float(fp.f_jet.value)
    lam = float(fp.a_jet.value) + f
    eta = float(fp.b_jet.value) + f
    lhs = fp.stack.ricci.value + hess_cov - eta * np.outer(grad_theta, grad_theta)
    rhs = lam * fp.g
    return scale_free(lhs - rhs, lhs, rhs), lam, eta
