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
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache, reduce
from operator import add

import numpy as np

from .chart import ChartPoint, MetricChart, VectorField
from .curvature import (JetStack, SingularMetricError, christoffel,
                        covariant_derivative, metric_inverse, scale_free,
                        scale_free_at)
# eval_jet3 is not called here; perfbench's layer tracer wraps it by name.
from .expr import eval_batch, eval_jet3, eval_jet3_batch  # noqa: F401
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
# quadrature; doubling the panels may move it by at most REFINE_TOL relative.
QUAD_ORDER = 8
QUAD_PANELS = 4
REFINE_TOL = 1e-8


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
    u_up: np.ndarray | None       # contravariant components, unit, u^1 > 0
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
        return FluidDecomposition(a=a, b=0.0, u_up=None, residual=residual,
                                  degenerate=True)

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
    return FluidDecomposition(
        a=a, b=b, u_up=u_up, degenerate=False,
        residual=fluid_form_residual(cp, a, b, cp.g @ u_up))


def fluid_form_residual(cp, a, b, u: np.ndarray):
    """Scale-free R_{kl} - (A g_{kl} + B u_k u_l); ``cp`` exposes g, ricci.
    One residual per point when u has a point axis (as A, B and cp do)."""
    model = (np.asarray(a)[..., None, None] * cp.g
             + np.asarray(b)[..., None, None] * _outer(u, u))
    return scale_free_at(u.ndim - 1, cp.ricci - model, cp.ricci, model)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


# ---------------------------------------------------------------------------
# Jet pipeline for a closed-form velocity field.
# ---------------------------------------------------------------------------

@dataclass
class FieldPoint:
    """Tensor jets of every velocity-derived object at each point of a
    batch: ``stack`` is the batch's, ``point`` its points, every jet has a
    leading point axis, and ``at(i)`` is point i's alone.

    ``u`` is order 3; the others are order 1, which is all that is read.
    The scalar jets f, A, B, gamma, p and mu are shape () per point, so
    ``.value`` has shape (P,) and ``.grad`` (P, n).

    u^, nabla u, f, omega, A and B are formed here once; ``torse_at``,
    ``geodesic_at``, ``ladder_residuals_at``, ``soliton_at``,
    ``physics.motion_at``, ``fluid_form_residual`` and ``weyl_electric_at``
    read them on the batch, ``chen_at`` on one point's ``at(i)``.
    """

    stack: JetStack
    point: ChartPoint | tuple
    field: VectorField         # the velocity, for sigma's integrand
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

    @property
    def n(self) -> int:
        return self.stack.n

    @property
    def g(self) -> np.ndarray:
        return self.stack.g.value

    @property
    def uv(self) -> np.ndarray:
        return self.u.value

    @property
    def uupv(self) -> np.ndarray:
        return self.u_up.value

    @property
    def nabla_u(self) -> np.ndarray:
        return self.nabla.value

    @cached_property
    def u_closed(self):
        return _curl_residual(self.u.grad)

    @cached_property
    def omega_closed(self):
        return _curl_residual(self.omega.grad)

    @cached_property
    def unit_residual(self):
        return abs(self.along_u(self.uv) + 1.0)

    @cached_property
    def accel(self) -> np.ndarray:
        """u^k nabla_k u_j."""
        return self.along_u(self.nabla_u)

    def along_u(self, v: np.ndarray):
        """u^k v_k... (u^ on v's first axis) at each point: one ``@`` per
        point, since BLAS sums a dot product in another order than a
        batched matmul or einsum does."""
        return np.array([x @ y for x, y in zip(self.uupv, v)])

    def at(self, i: int) -> "FieldPoint":
        """Point i of the batch; its jets are views into the batch's, and
        the residuals the batch has formed (``omega_closed``, ...) are
        their rows, not formed again."""
        jets = {f.name: getattr(self, f.name).at(i) for f in fields(self)
                if isinstance(getattr(self, f.name), TensorJet)}
        view = replace(self, stack=self.stack.at(i), point=self.point[i],
                       **jets)
        view.__dict__.update(
            (name, value[i]) for name, value in vars(self).items()
            if isinstance(getattr(FieldPoint, name, None), cached_property))
        return view


def _curl_residual(grad: np.ndarray):
    """Scale-free curl of a covector from its partials grad[j, k] = d_k w_j.

    The covariant curl equals the partial curl (symmetric connection)."""
    return scale_free_at(grad.ndim - 2, grad - np.swapaxes(grad, -1, -2),
                         grad)


class VelocityAnalysis:
    """Ties a covariant velocity field to the curvature stack."""

    def __init__(self, chart: MetricChart, field: VectorField | None = None,
                 *, kappa: float = 1.0):
        self.chart = chart
        self.field = field if field is not None else chart.velocity
        self.kappa = float(kappa)

    def at(self, points, stack: JetStack | None = None) -> FieldPoint:
        """The FieldPoint at a sequence of points, with their batched
        ``stack``, from one walk of the velocity's trees (whose domain
        error names the point's ``index``)."""
        chart = self.chart
        n = chart.n
        stack = stack or JetStack(chart, points)
        u = TensorJet(n, eval_jet3_batch(
            self.field.components, [p.coords for p in points], chart.params),
            1)
        u_up, nabla, f, omega = _velocity_terms(
            stack.g_inv.truncated(1), stack.gamma.truncated(1), u)
        ruu = contract("ij,ij->", stack.ricci,
                       contract("i,j->ij", u_up, u_up))
        a_jet = (stack.rs + ruu) * (1.0 / (n - 1))
        b_jet = ruu + a_jet
        gamma_jet = a_jet * float(n - 2) + b_jet
        mu_jet = gamma_jet * (1.0 / (2.0 * self.kappa))
        p_jet = b_jet * (1.0 / self.kappa) - mu_jet
        return FieldPoint(stack=stack, point=points, field=self.field, u=u,
                          u_up=u_up, nabla=nabla, omega=omega, f_jet=f,
                          a_jet=a_jet, b_jet=b_jet, gamma_jet=gamma_jet,
                          p_jet=p_jet, mu_jet=mu_jet)


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
    return scale_free_at(1, fp.accel, fp.nabla_u)


def torse_at(fp: FieldPoint):
    """(residual, alignment, f_cross) of nabla u = f (g + u x u), arrays
    over the batch's points. The misalignment (nabla_k u_j) u^j is
    f u - omega; f_cross compares f with -u^m d_m gamma / (2B(n-1)), NaN
    where B vanishes."""
    f, b, nabla = fp.f_jet.value, fp.b_jet.value, fp.nabla_u
    model = f[..., None, None] * (_outer(fp.uv, fp.uv) + fp.g)
    residual = scale_free_at(1, nabla - model, nabla, model)
    alignment = scale_free_at(1, f[..., None] * fp.uv - fp.omega.value, nabla)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_ref = -fp.along_u(fp.gamma_jet.grad) / (2.0 * b * (fp.n - 1))
        return residual, alignment, np.where(
            np.abs(b) <= 1e-12, np.nan, abs(f - f_ref) / (1.0 + abs(f)))


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


def _integrate_form(integrand, n, base, target, quad_order,
                    panels) -> PotentialResult:
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
    if drift > REFINE_TOL * (1.0 + abs(fine)):
        raise QuadratureError(
            f"segment quadrature did not converge (panel doubling moved "
            f"the value by {drift:.3e})")
    return PotentialResult(value=fine, path_defect=abs(fine - other),
                           refinement_error=drift)


def _omega_integrand(chart: MetricChart, field: VectorField):
    """omega at the rows of an (N, n) array by the FieldPoint's formula at
    order 0: the Christoffels need metric first derivatives only, so one
    value-and-gradient walk over the metric and velocity trees feeds it."""
    trees, pairs = chart.upper + field.components, len(chart.upper)

    def integrand(x):
        levels = eval_batch(trees, x, chart.params, grad=True)
        g = TensorJet(chart.n, [chart.symmetric(level[:, :pairs])
                                for level in levels], 1)
        u = TensorJet(chart.n, [level[:, pairs:] for level in levels], 1)
        try:
            g_inv = metric_inverse(g.truncated(0))
        except SingularMetricError as err:
            err.coords, err.place = x[err.index], "path row"
            raise
        return _velocity_terms(g_inv, christoffel(g, g_inv), u)[3].value

    return integrand


@dataclass
class ChenPointData:
    rho: float
    x: np.ndarray                  # covariant Chen vector e^{-sigma} u
    chen_residual: float           # nabla_k X_l - rho g_kl
    ckv_residual: float            # nabla_j rho - (A-B)/(1-n) X_j
    path_defect: float
    grad_rho_norm: float


def require_closed(form: str, residual: float, tol: float) -> None:
    """Refuse, with ``NotClosedError``, a form whose closedness residual
    exceeds ``tol``: it has no potential."""
    if residual > tol:
        raise NotClosedError(f"{form} not closed (residual {residual:.3e})")


def chen_at(fp: FieldPoint, base, *, closed_tol: float = 1e-6) -> ChenPointData:
    """The gradient laws at one point: sigma integrates the closed omega
    from the basepoint, X = e^{-sigma} u and rho = e^{-sigma} f."""
    require_closed("ω", fp.omega_closed, closed_tol)
    pot = _integrate_form(_omega_integrand(fp.stack.chart, fp.field), fp.n,
                          base, fp.point.array(), QUAD_ORDER, QUAD_PANELS)
    return _chen_point(fp, pot)


def _chen_point(fp: FieldPoint, pot: PotentialResult) -> ChenPointData:
    # X = e^{-sigma} u and rho = e^{-sigma} f as jet products, with
    # d sigma = omega read off the closed form itself.
    scaling = math.exp(-pot.value)
    s = TensorJet(fp.n, [np.array(scaling), -scaling * fp.omega.value])
    x = contract(",j->j", s, fp.u.truncated(1))
    rho_jet = contract(",->", s, fp.f_jet)
    nabla_x = covariant_derivative(x, fp.stack.gamma.truncated(0)).value
    rho, grad_rho = float(rho_jet.value), rho_jet.grad
    chen_resid = scale_free(nabla_x - rho * fp.g, nabla_x, rho * fp.g)
    a, b = float(fp.a_jet.value), float(fp.b_jet.value)
    ckv_rhs = ((a - b) / (1.0 - fp.n)) * x.value
    ckv_resid = scale_free(grad_rho - ckv_rhs, grad_rho, ckv_rhs)
    return ChenPointData(rho=rho, x=x.value, chen_residual=chen_resid,
                         ckv_residual=ckv_resid,
                         path_defect=pot.path_defect,
                         grad_rho_norm=float(np.max(np.abs(grad_rho))))


def weyl_electric_at(cp, u_up: np.ndarray):
    """Scale-free C_{jkl}{}^m u_m, from the contravariant velocity; one
    residual per point when u_up and cp have a point axis."""
    return scale_free_at(u_up.ndim - 1,
                         np.einsum("...jkla,...a->...jkl", cp.weyl, u_up),
                         cp.weyl)


def ladder_residuals_at(fp: FieldPoint) -> dict:
    """All nine intermediate identities, scale-free, as arrays over the
    batch's points."""
    n, g, u, nabla = fp.n, fp.g, fp.uv, fp.nabla_u
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
        out[name] = scale_free_at(1, residual, *references)

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


def soliton_at(fp: FieldPoint, *, closed_tol: float = 1e-6):
    """(residual, lam, eta) of the soliton form, arrays over the batch's
    points. The form reads d theta = u and Hess(theta) only, so theta
    itself is never integrated; u must be closed at every point for theta
    to exist."""
    require_closed("u", float(np.max(fp.u_closed)), closed_tol)
    return _soliton_residual_at(fp)


def _soliton_residual_at(fp: FieldPoint):
    """(residual, lam, eta), closed u or not."""
    # d theta = u, so Hess(theta) is the symmetrized nabla u.
    grad_theta = fp.uv
    hess_cov = 0.5 * (fp.nabla_u + np.swapaxes(fp.nabla_u, -1, -2))
    f = fp.f_jet.value
    lam = fp.a_jet.value + f
    eta = fp.b_jet.value + f
    lhs = (fp.stack.ricci.value + hess_cov
           - eta[..., None, None] * _outer(grad_theta, grad_theta))
    rhs = lam[..., None, None] * fp.g
    return scale_free_at(1, lhs - rhs, lhs, rhs), lam, eta
