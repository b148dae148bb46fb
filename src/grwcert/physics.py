"""The equations of motion, the equation of state and the homothetic
triple, read off the fluid variables p and mu of a ``classify.FieldPoint``.

Geometric units, c = 1, with p and mu in units where Einstein's coupling
is 1: ``VelocityAnalysis`` forms mu = ((n-2) A + B)/2 and p = B - mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import FieldPoint
from .curvature import scale_free_at

# Gradients (and sums of mu squared) at or below this count as zero.
DEGENERATE_TOL = 1e-10


def motion_at(fp: FieldPoint):
    """Scale-free residuals of the two projected conservation equations:

    r1:  u^k d_k mu + (p + mu) nabla_k u^k
    r2:  (d_j + u_j u^k d_k) p + (p + mu) u^k nabla_k u_j

    as arrays over the points of the batch.
    """
    dmu, dp = fp.mu_jet.grad, fp.p_jet.grad
    p_plus_mu = fp.p_jet.value + fp.mu_jet.value
    transport = fp.along_u(dmu)
    expansion = p_plus_mu * (fp.f_jet.value * (fp.n - 1))  # (p+mu) div u
    r1 = abs(transport + expansion) / (1.0 + abs(expansion) + abs(transport))
    force = p_plus_mu[..., None] * fp.accel
    lhs2 = dp + fp.uv * fp.along_u(dp)[..., None] + force
    return r1, scale_free_at(lhs2, dp, force)


def eos_parallel_at(fp: FieldPoint):
    """|grad p ^ grad mu| / (1 + |grad p| |grad mu|), each size a max over
    components, as an array over the points of the batch: the equation of
    state's p = p(mu) needs the two gradients parallel."""
    dp, dmu = fp.p_jet.grad, fp.mu_jet.grad
    wedge = dp[:, :, None] * dmu[:, None, :] - dmu[:, :, None] * dp[:, None, :]
    size_p, size_mu = (np.max(np.abs(v), axis=-1) for v in (dp, dmu))
    return np.max(np.abs(wedge), axis=(-2, -1)) / (1.0 + size_p * size_mu)


@dataclass
class EosReport:
    w: float | None            # least-squares slope of p against mu
    degenerate_fit: bool       # both gradients vanish: slope undefined
    min_p_plus_mu: float
    p_plus_mu_positive: bool


def eos_check(grad_p, grad_mu, p_values, mu_values) -> EosReport:
    """Equation-of-state behaviour over the sampled points, from the
    gradients (one row per point) and the values of p and mu."""
    moving = any(np.any(np.abs(np.asarray(grad, dtype=float))
                        > DEGENERATE_TOL) for grad in (grad_p, grad_mu))
    p_arr = np.asarray(p_values, dtype=float)
    mu_arr = np.asarray(mu_values, dtype=float)
    denom = float(mu_arr @ mu_arr)
    if moving and denom > DEGENERATE_TOL:
        w = float(p_arr @ mu_arr) / denom
    else:
        w = None
    p_plus_mu = p_arr + mu_arr
    return EosReport(
        w=w,
        degenerate_fit=not moving,
        min_p_plus_mu=float(np.min(np.abs(p_plus_mu))),
        p_plus_mu_positive=bool(np.all(p_plus_mu > 0)))


@dataclass
class HomotheticReport:
    consistent: bool           # the three conditions agree at every point
    homothetic_points: int
    proper_points: int


def homothetic(a, b, tol: float):
    """The homothetic branch A = B: |A - B| <= tol (1 + |A| + |B|), at one
    point or at each point of arrays."""
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def homothetic_check(a_values, b_values, grad_rho_norms, p_values, mu_values,
                     n: int, *, tol: float = 1e-7) -> HomotheticReport:
    """Same verdict from |A-B|, |grad rho| and p = (3-n)/(n-1) mu at each point."""
    a, b, grad_rho, p, mu = (np.asarray(v, dtype=float) for v in (
        a_values, b_values, grad_rho_norms, p_values, mu_values))
    ratio = (3.0 - n) / (n - 1.0)
    c1 = homothetic(a, b, tol)
    c2 = grad_rho <= tol * (1.0 + abs(a) + abs(b))
    c3 = abs(p - ratio * mu) <= tol * (1.0 + abs(p) + abs(mu))
    homothetic_points = int(np.count_nonzero(c1))
    return HomotheticReport(consistent=bool(np.all((c1 == c2) & (c2 == c3))),
                            homothetic_points=homothetic_points,
                            proper_points=c1.size - homothetic_points)
