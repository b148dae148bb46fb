"""The equations of motion, the equation of state and the homothetic
triple, read off the fluid variables p and mu of a ``classify.FieldPoint``.

Geometric units, c = 1. ``VelocityAnalysis`` forms p and mu from A and B
with the coupling kappa, which only rescales them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import FieldPoint
from .curvature import scale_free


def motion_at(fp: FieldPoint) -> tuple[float, float]:
    """Scale-free residuals of the two projected conservation equations:

    r1:  u^k d_k mu + (p + mu) nabla_k u^k
    r2:  (d_j + u_j u^k d_k) p + (p + mu) u^k nabla_k u_j
    """
    dmu = np.array(fp.mu_jet.grad)
    dp = np.array(fp.p_jet.grad)
    p_plus_mu = float(fp.p_jet.value) + float(fp.mu_jet.value)
    transport = float(fp.uupv @ dmu)
    expansion = p_plus_mu * (float(fp.f_jet.value) * (fp.n - 1))  # (p+mu) div u
    r1 = abs(transport + expansion) / (1.0 + abs(expansion) + abs(transport))
    force = p_plus_mu * fp.accel
    lhs2 = dp + fp.uv * float(fp.uupv @ dp) + force
    return r1, scale_free(lhs2, dp, force)


@dataclass
class EosReport:
    parallel_residual: float   # size of grad p wedge grad mu
    w: float | None            # least-squares slope of p against mu
    degenerate_fit: bool       # both gradients vanish: slope undefined
    min_p_plus_mu: float
    p_plus_mu_positive: bool


def eos_check(grad_p, grad_mu, p_values, mu_values,
              *, degenerate_tol: float = 1e-10) -> EosReport:
    """Equation-of-state behaviour over the sampled points.

    ``grad_p``/``grad_mu`` are per-point gradient vectors; the parallelism
    residual is max |dp ^ dmu| / (1 + |dp||dmu|).
    """
    worst = 0.0
    moving = False
    for dp, dmu in zip(grad_p, grad_mu):
        dp = np.asarray(dp)
        dmu = np.asarray(dmu)
        wedge = np.outer(dp, dmu) - np.outer(dmu, dp)
        np_, nm = float(np.max(np.abs(dp))), float(np.max(np.abs(dmu)))
        worst = max(worst, float(np.max(np.abs(wedge))) / (1.0 + np_ * nm))
        if max(np_, nm) > degenerate_tol:
            moving = True
    p_arr = np.asarray(list(p_values), dtype=float)
    mu_arr = np.asarray(list(mu_values), dtype=float)
    denom = float(mu_arr @ mu_arr)
    if moving and denom > degenerate_tol:
        w = float(p_arr @ mu_arr) / denom
    else:
        w = None
    p_plus_mu = p_arr + mu_arr
    return EosReport(
        parallel_residual=worst,
        w=w,
        degenerate_fit=not moving,
        min_p_plus_mu=float(np.min(np.abs(p_plus_mu))),
        p_plus_mu_positive=bool(np.all(p_plus_mu > 0)))


@dataclass
class HomotheticReport:
    consistent: bool           # the three conditions agree at every point
    homothetic_points: int
    proper_points: int


def homothetic_check(a_values, b_values, grad_rho_norms, p_values, mu_values,
                     n: int, *, tol: float = 1e-7) -> HomotheticReport:
    """Same verdict from |A-B|, |grad rho| and p = (3-n)/(n-1) mu at each point."""
    ratio = (3.0 - n) / (n - 1.0)
    homothetic = proper = 0
    consistent = True
    for a, b, gr, p, mu in zip(a_values, b_values, grad_rho_norms,
                               p_values, mu_values):
        c1 = abs(a - b) <= tol * (1.0 + abs(a) + abs(b))
        c2 = gr <= tol * (1.0 + abs(a) + abs(b))
        c3 = abs(p - ratio * mu) <= tol * (1.0 + abs(p) + abs(mu))
        if c1 != c2 or c2 != c3:
            consistent = False
        if c1:
            homothetic += 1
        else:
            proper += 1
    return HomotheticReport(consistent=consistent,
                            homothetic_points=homothetic,
                            proper_points=proper)
