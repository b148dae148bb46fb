"""Certification runs: orchestrate every check suite over sampled points.

The pipeline per run: curvature sanity -> fluid decomposition ->
hypotheses (closed velocity, divergence-free Weyl) -> conclusions
(torse-forming / concircular / gradient-rescaled vector / conformal-Killing
gradient law / electric Weyl) -> identity ladder -> physics, plus the
warped-product converse formulas for declared warped products. A failed or
degenerate hypothesis downgrades the downstream checks to informational;
they still run and are reported.

The curvature stack is built for fixed-size chunks of points at a time;
the per-point work on each chunk's point views is pure and may fan out to
worker threads. Every aggregation is a max or an ordered reduction over
the point index, so reports are byte-identical regardless of the worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import classify, physics
from .chart import ChartInput, MetricChart, compile_chart, sample_points
from .classify import (FluidDecompositionError, NotClosedError,
                       VelocityAnalysis, fluid_decompose)
from .curvature import (JetStack, SingularMetricError,
                        first_bianchi_residual, scale_free,
                        weyl_trace_residual)
from .expr import EvalDomainError
from .grw import RESOLUTION_NOTE
from .report import (DEGENERATE, FAIL, INFORMATIONAL, PASS, SKIPPED,
                     CertificationReport, CheckRecord)
from .schema import load_chart_input

GROUPS = ("sanity", "fluid", "hypotheses", "conclusions", "ladder",
          "physics", "converse")


@dataclass(frozen=True)
class RunConfig:
    points: int = 50
    seed: int = 0
    hypothesis_tol: float = 1e-7
    conclusion_tol: float = 1e-7
    cluster_tol: float = 1e-6
    kappa: float = 1.0
    workers: int = 1
    checks: tuple[str, ...] | None = None   # subset of GROUPS; None = all
    basepoint: tuple[float, ...] | None = None
    quad_order: int = 8
    quad_panels: int = 4

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")
        for label, value in (("hypothesis_tol", self.hypothesis_tol),
                             ("conclusion_tol", self.conclusion_tol),
                             ("cluster_tol", self.cluster_tol)):
            if not value > 0:
                raise ValueError(f"{label} must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def selected(self) -> set[str]:
        if self.checks is None:
            return set(GROUPS)
        unknown = set(self.checks) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown check groups: {sorted(unknown)}; "
                             f"valid groups: {', '.join(GROUPS)}")
        return set(self.checks)


# (group, name, anchor, tolerance source) in report order. Tolerance
# sources: 'hyp', 'conc', a float for fixed sanity bars, None for
# informational records.
CHECK_DEFS = (
    ("sanity", "signature", "eigenvalue signs of g match the declared signature", 0.0),
    ("sanity", "ricci-symmetric", "R_{jl} = R_{lj}", 1e-10),
    ("sanity", "bianchi-first", "R_{jkl}{}^m + R_{klj}{}^m + R_{ljk}{}^m = 0", 1e-10),
    ("sanity", "weyl-tracefree", "every g-trace of C_{jklm} vanishes", 1e-10),
    ("fluid", "fluid-decompose",
     "R^i{}_j eigenvalues split (n-1)-fold A | A-B on a time-like direction", "hyp"),
    ("fluid", "fluid-form", "R_{kl} = A g_{kl} + B u_k u_l", "hyp"),
    ("fluid", "u-unit", "u^j u_j = -1", "hyp"),
    ("hypotheses", "u-closed", "∇_k u_j − ∇_j u_k = 0", "hyp"),
    ("hypotheses", "div-weyl", "∇_m C_{jkl}^m = 0", "hyp"),
    ("conclusions", "torse-forming", "∇_k u_j = ω_k u_j + f g_{kj}", "conc"),
    ("conclusions", "torse-f-consistency",
     "f = −u^m ∇_m γ / (2B(n−1))", "conc"),
    ("conclusions", "omega-aligned", "ω_k = f u_k", "conc"),
    ("conclusions", "omega-closed", "∇_j ω_k = ∇_k ω_j", "conc"),
    ("conclusions", "chen-vector", "∇_k X_l = ρ g_{kl}", "conc"),
    ("conclusions", "potential-path-independence",
     "staircase orderings agree on ∫ω", 1e-10),
    ("conclusions", "ckv-gradient", "∇_j ρ = (A−B)/(1−n) X_j", "conc"),
    ("conclusions", "ckv-branch", "proper (A≠B) vs homothetic (A=B)", None),
    ("conclusions", "weyl-electric", "C_{jkl}{}^m u_m = 0", "conc"),
    ("conclusions", "weyl-zero-n4", "C_{jklm} = 0 (n = 4)", "conc"),
    ("conclusions", "soliton-form",
     "R_{ij} + ∇_i∇_j θ − η(∇_iθ)(∇_jθ) = λ g_{ij}, λ = A+f, η = B+f", "conc"),
    ("ladder", "bianchi-contract", "∇^m(B u_j u_m) = ½ ∇_j[(n−2)A − B]", "conc"),
    ("ladder", "ricci-curl",
     "∇_k(B u_j u_l) − ∇_l(B u_j u_k) = −[g_{jl}∇_k γ − g_{jk}∇_l γ]/(2(n−1))", "conc"),
    ("ladder", "b-transport",
     "(∇_k + u_k u^l∇_l)B + B u^l∇_l u_k = (∇_k + u_k u^l∇_l)γ / (2(n−1))", "conc"),
    ("ladder", "b-transport-half",
     "(∇_k + u_k u^i∇_i)B + B u^m∇_m u_k = ½(∇_k + u_k u^i∇_i)γ", "conc"),
    ("ladder", "gamma-comoving", "(∇_j + u_j u^k∇_k)γ = 0", "conc"),
    ("ladder", "b-comoving", "(∇_j + u_j u^k∇_k)B + B u^m∇_m u_j = 0", "conc"),
    ("ladder", "torse-source",
     "B(∇_k + u_k u^m∇_m)u_j = (u_j∇_k − g_{jk}u^l∇_l)γ / (2(n−1))", "conc"),
    ("ladder", "bu-closed", "∇_k(B u_j) = ∇_j(B u_k)", "conc"),
    ("ladder", "gamma-aligned", "u_j∇_k γ = u_k∇_j γ", "conc"),
    ("physics", "geodesic", "u^k ∇_k u_j = 0", "conc"),
    ("physics", "motion-energy", "u^k∇_k μ + (p+μ) ∇_k u^k = 0", "conc"),
    ("physics", "motion-euler",
     "(∇_j + u_j u^k∇_k) p + (p+μ) u^k∇_k u_j = 0", "conc"),
    ("physics", "eos-parallel", "∇p ∧ ∇μ = 0", "conc"),
    ("physics", "eos-slope", "p ≈ w μ (least-squares over points)", None),
    ("physics", "energy-condition", "p + μ ≠ 0", None),
    ("physics", "homothetic-triple",
     "A=B ⇔ ∇ρ=0 ⇔ p=(3−n)μ/(n−1)", "conc"),
    ("converse", "fiber-einstein", "R*_{αβ} = (R*/(n−1)) g*_{αβ}", "hyp"),
    ("converse", "grw-ricci-A",
     "A = [R*/(n−1) + q′²(n−2) + q q″]/q²", "conc"),
    ("converse", "grw-ricci-B", "B = A − (n−1) q″/q", "conc"),
)

_LADDER_SET = set(classify.LADDER_NAMES)

# Points per JetStack. One batched stack pays numpy's per-operation
# overhead once per chunk instead of once per point; the size bounds the
# memory the stack's arrays take. The chunks never depend on --workers.
CHUNK_POINTS = 10


def run_certify(source, config: RunConfig | None = None) -> CertificationReport:
    """Certify a chart given a spec-file path, dict, ChartInput or chart."""
    config = config or RunConfig()
    if isinstance(source, MetricChart):
        chart = source
    elif isinstance(source, ChartInput):
        chart = compile_chart(source)
    else:
        chart = compile_chart(load_chart_input(source))
    return certify_chart(chart, config)


def _basepoint(chart: MetricChart, config: RunConfig):
    if config.basepoint is not None:
        return np.asarray(config.basepoint, dtype=float)
    if chart.basepoint is not None:
        return np.asarray(chart.basepoint, dtype=float)
    return None


def certify_chart(chart: MetricChart, config: RunConfig) -> CertificationReport:
    selected = config.selected()
    points = sample_points(chart, config.points, config.seed)
    lorentzian = chart.signature == "lorentzian"
    has_velocity = (chart.velocity is not None
                    and chart.velocity.closed_form and lorentzian)
    base = _basepoint(chart, config)
    analysis = (VelocityAnalysis(chart, chart.velocity, kappa=config.kappa)
                if has_velocity else None)

    def work(stack):
        return _point_payload(chart, analysis, stack, config, base, selected)

    payloads = []
    with (ThreadPoolExecutor(max_workers=config.workers)
          if config.workers > 1 else nullcontext()) as pool:
        fan_out = pool.map if pool else map
        for start in range(0, len(points), CHUNK_POINTS):
            try:
                stack = JetStack(chart, points[start:start + CHUNK_POINTS])
            except SingularMetricError as err:
                err.index += start       # name the point by its run index
                raise
            payloads += fan_out(work, [stack.at(i)
                                       for i in range(len(stack.points))])

    records = _assemble(chart, config, selected, payloads,
                        has_velocity=has_velocity, basepoint=base)
    environment = {
        "points": config.points,
        "seed": config.seed,
        "tolerances": {"hypothesis": config.hypothesis_tol,
                       "conclusion": config.conclusion_tol,
                       "cluster": config.cluster_tol},
        "kappa": config.kappa,
        "quadrature": {"order": config.quad_order,
                       "panels": config.quad_panels},
        "basepoint": None if base is None else [float(v) for v in base],
        "checks": sorted(selected),
    }
    report = CertificationReport(metric_name=chart.name,
                                 environment=environment, checks=records)
    return report.settle_verdict()


# ---------------------------------------------------------------------------
# Per-point computation (pure).
# ---------------------------------------------------------------------------

# The staircase runs from the basepoint and may leave an expression's domain
# even when every sample point is valid; the error then names the path.
_STAIRCASE = "staircase from basepoint"

def _point_payload(chart, analysis, stack, config, base, selected) -> dict:
    """Every per-point quantity of the report, from the point's stack."""
    out: dict = {"errors": {}}
    n = chart.n
    point = stack.point
    cp = stack.to_point()

    eigs = np.linalg.eigvalsh(cp.g)
    negatives = int(np.sum(eigs < 0))
    expected = 1 if chart.signature == "lorentzian" else 0
    out["signature_ok"] = bool(negatives == expected
                               and np.min(np.abs(eigs)) > 1e-12)
    out["ricci-symmetric"] = scale_free(cp.ricci - cp.ricci.T, cp.ricci)
    out["bianchi-first"] = first_bianchi_residual(cp)
    out["weyl-tracefree"] = weyl_trace_residual(cp)
    out["div-weyl"] = scale_free(cp.divweyl, cp.driem)

    if chart.signature != "lorentzian":
        return out

    try:
        dec = fluid_decompose(cp, cluster_tol=config.cluster_tol)
        out["fluid_branch"] = "degenerate" if dec.degenerate else "nondegenerate"
        out["fluid_residual"] = dec.residual
        out["fluid_a"] = dec.a
        out["fluid_b"] = dec.b
    except FluidDecompositionError as err:
        dec = None
        out["fluid_branch"] = "anomalous"
        out["errors"]["fluid-decompose"] = str(err)

    if chart.grw is not None and "converse" in selected:
        _converse_payload(chart, point, dec, out)

    if analysis is None:
        if dec is not None and dec.u is not None:
            elec = classify.weyl_electric_check(cp, dec.u)
            out["weyl-electric"] = elec.electric_residual
            out["weyl_norm"] = elec.weyl_norm
        return out

    fp = analysis.at(point, stack=stack)
    out["u-unit"] = fp.unit_residual
    du = fp.du
    out["u-closed"] = scale_free(du - du.T, du)
    a, b = fp.a_jet.value, fp.b_jet.value
    model = a * fp.g + b * np.outer(fp.uv, fp.uv)
    out["fluid-form"] = scale_free(cp.ricci - model, cp.ricci, model)
    out["scalar_a"] = a
    out["scalar_b"] = b
    out["scalar_f"] = fp.f_jet.value

    torse = classify.torse_decompose(fp.nabla_u, fp.uv, fp.g, fp.g_inv,
                                     b=b, grad_gamma=np.array(fp.gamma_jet.grad))
    out["torse-forming"] = torse.residual
    out["omega-aligned"] = torse.alignment_residual
    if torse.f_cross_residual is not None:
        out["torse-f-consistency"] = torse.f_cross_residual
    omega_resid = scale_free(fp.omega_curl(), fp.domega)
    out["omega-closed"] = omega_resid

    elec = classify.weyl_electric_check(cp, fp.uv)
    out["weyl-electric"] = elec.electric_residual
    out["weyl_norm"] = elec.weyl_norm

    out["ladder"] = classify.ladder_residuals_at(fp)

    accel = fp.uupv @ fp.nabla_u
    out["geodesic"] = scale_free(accel, fp.nabla_u)
    dmu = np.array(fp.mu_jet.grad)
    dp = np.array(fp.p_jet.grad)
    p_plus_mu = fp.p_jet.value + fp.mu_jet.value
    divu = fp.f_jet.value * (n - 1)
    lhs1 = float(fp.uupv @ dmu) + p_plus_mu * divu
    out["motion-energy"] = abs(lhs1) / (1.0 + abs(p_plus_mu * divu)
                                        + abs(float(fp.uupv @ dmu)))
    lhs2 = dp + fp.uv * float(fp.uupv @ dp) + p_plus_mu * accel
    out["motion-euler"] = scale_free(lhs2, dp, p_plus_mu * accel)
    out["p"] = fp.p_jet.value
    out["mu"] = fp.mu_jet.value
    out["dp"] = [float(v) for v in dp]
    out["dmu"] = [float(v) for v in dmu]

    # sigma feeds the conclusions and homothetic-triple (grad_rho_norm);
    # theta feeds soliton-form only.
    if base is not None and selected & {"conclusions", "physics"}:
        try:
            if omega_resid > config.hypothesis_tol * 10:
                raise NotClosedError(
                    f"ω not closed (residual {omega_resid:.3e})")
            pot = classify._integrate_form(
                classify._omega_integrand(chart, analysis.field),
                n, base, point.array(), config.quad_order, config.quad_panels)
            chen = classify._chen_point(fp, pot, omega_resid,
                                        config.conclusion_tol)
            out["chen-vector"] = chen.chen_residual
            out["ckv-gradient"] = chen.ckv_residual
            out["potential-path-independence"] = chen.path_defect
            out["sigma"] = chen.sigma
            out["rho"] = chen.rho
            out["grad_rho_norm"] = chen.grad_rho_norm
            out["proper"] = bool(chen.proper)
        except (NotClosedError, classify.QuadratureError) as err:
            out["errors"]["chen-vector"] = str(err)
        except EvalDomainError as err:
            out["errors"]["chen-vector"] = f"{_STAIRCASE}: {err}"
    if base is not None and "conclusions" in selected:
        try:
            if out["u-closed"] > config.hypothesis_tol * 10:
                raise NotClosedError(
                    f"u not closed (residual {out['u-closed']:.3e})")
            theta_pot = classify._integrate_form(
                classify._field_integrand(chart, analysis.field),
                n, base, point.array(), config.quad_order, config.quad_panels)
            lams, etas = [], []
            out["soliton-form"] = classify._soliton_residual_at(fp, lams, etas)
            out["lam"] = lams[0]
            out["eta"] = etas[0]
            out["theta"] = theta_pot.value
        except (NotClosedError, classify.QuadratureError) as err:
            out["errors"]["soliton-form"] = str(err)
        except EvalDomainError as err:
            out["errors"]["soliton-form"] = f"{_STAIRCASE}: {err}"
    return out


def _converse_payload(chart, point, dec, out):
    from .chart import ChartPoint
    n = chart.n
    warp, fiber = chart.grw.warp, chart.grw.fiber
    fiber_point = ChartPoint(point.coords[1:])
    gstar, ricci_star, rstar = fiber.ricci_at(fiber_point)
    m = fiber.dim
    out["fiber-einstein"] = scale_free(ricci_star - (rstar / m) * gstar,
                                       ricci_star)
    q, qp, qpp, _ = warp.jets(point.coords[0], chart.params)
    a_formula = (rstar / (n - 1) + qp * qp * (n - 2) + q * qpp) / (q * q)
    b_formula = a_formula - (n - 1) * qpp / q
    out["a_formula"] = a_formula
    out["b_formula"] = b_formula
    if dec is not None:
        out["grw-ricci-A"] = abs(dec.a - a_formula) / (1.0 + abs(a_formula))
        if not dec.degenerate:
            out["grw-ricci-B"] = abs(dec.b - b_formula) / (1.0 + abs(b_formula))


# ---------------------------------------------------------------------------
# Aggregation into records.
# ---------------------------------------------------------------------------

def _max_over(payloads, key):
    values = [p[key] for p in payloads if key in p]
    return max(values) if values else None


def _assemble(chart, config, selected, payloads, *, has_velocity, basepoint):
    tol = {"hyp": config.hypothesis_tol, "conc": config.conclusion_tol}
    lorentzian = chart.signature == "lorentzian"
    records = []

    # Read by the eos-slope, eos-parallel and energy-condition records.
    eos = _eos(payloads) if "physics" in selected else None

    point_errors: dict[str, list] = {}
    for idx, payload in enumerate(payloads):
        for name, message in payload.get("errors", {}).items():
            point_errors.setdefault(name, []).append((idx, message))

    def skip(group, name, anchor, reason):
        records.append(CheckRecord(name=name, group=group, anchor=anchor,
                                   status=SKIPPED,
                                   skipped_reason=reason).finalize())

    for group, name, anchor, tolsrc in CHECK_DEFS:
        tolerance = tol[tolsrc] if isinstance(tolsrc, str) else tolsrc
        if group not in selected:
            skip(group, name, anchor, "not selected")
            continue
        if group != "sanity" and not lorentzian:
            skip(group, name, anchor, "riemannian chart: fluid pipeline not applicable")
            continue
        if group == "converse" and chart.grw is None:
            skip(group, name, anchor, "not a declared warped product")
            continue
        rec = _build_record(chart, config, group, name, anchor, tolerance,
                            payloads, has_velocity=has_velocity,
                            basepoint=basepoint, eos=eos)
        if rec is None:
            continue
        if name in point_errors:
            # Also when every point failed, which leaves the check no data.
            idx, message = point_errors[name][0]
            rec.ok = False
            rec.status = FAIL
            rec.skipped_reason = None
            rec.detail["error"] = f"point {idx}: {message}"
        records.append(rec.finalize())

    _apply_downgrades(records, payloads, has_velocity)
    return records


def _build_record(chart, config, group, name, anchor, tolerance, payloads,
                  *, has_velocity, basepoint, eos):
    rec = CheckRecord(name=name, group=group, anchor=anchor,
                      tolerance=tolerance)
    needs_velocity = {
        "fluid-form", "u-unit", "u-closed", "torse-forming",
        "torse-f-consistency", "omega-aligned", "omega-closed",
        "chen-vector", "potential-path-independence", "ckv-gradient",
        "ckv-branch", "soliton-form", "geodesic", "motion-energy",
        "motion-euler", "eos-parallel", "eos-slope", "energy-condition",
        "homothetic-triple",
    } | _LADDER_SET
    if name in needs_velocity and not has_velocity:
        rec.status = SKIPPED
        rec.skipped_reason = ("not evaluable: velocity field only known "
                              "pointwise (no closed-form components)")
        return rec
    needs_basepoint = {"chen-vector", "potential-path-independence",
                       "ckv-gradient", "ckv-branch", "soliton-form"}
    if name in needs_basepoint and basepoint is None:
        rec.status = SKIPPED
        rec.skipped_reason = "no basepoint declared for potential reconstruction"
        return rec

    if name == "signature":
        rec.ok = all(p.get("signature_ok", False) for p in payloads)
        rec.max_residual = 0.0 if rec.ok else 1.0
        return rec
    if name == "fluid-decompose":
        branches = [p.get("fluid_branch", "anomalous") for p in payloads]
        rec.detail["branches"] = {b: branches.count(b) for b in sorted(set(branches))}
        a_vals = [p["fluid_a"] for p in payloads if "fluid_a" in p]
        if a_vals:
            rec.detail["A_min"] = min(a_vals)
            rec.detail["A_max"] = max(a_vals)
        b_vals = [p["fluid_b"] for p in payloads if "fluid_b" in p]
        if b_vals:
            rec.detail["B_min"] = min(b_vals)
            rec.detail["B_max"] = max(b_vals)
        rec.max_residual = _max_over(payloads, "fluid_residual")
        if any(b == "anomalous" for b in branches):
            rec.ok = False
            rec.status = FAIL
        elif any(b == "degenerate" for b in branches):
            rec.ok = False
            rec.status = DEGENERATE
            rec.detail["note"] = "Einstein case: B ≈ 0, velocity undefined"
        else:
            rec.ok = (rec.max_residual is not None
                      and rec.max_residual <= rec.tolerance)
        return rec
    if name == "ckv-branch":
        proper = sum(1 for p in payloads if p.get("proper") is True)
        homothetic = sum(1 for p in payloads if p.get("proper") is False)
        rec.status = INFORMATIONAL
        rec.detail["proper_points"] = proper
        rec.detail["homothetic_points"] = homothetic
        if proper and homothetic:
            rec.detail["note"] = "mixed branches across points"
        return rec
    if name == "weyl-zero-n4":
        rec.max_residual = _max_over(payloads, "weyl_norm")
        if chart.n != 4:
            rec.status = INFORMATIONAL
            rec.detail["note"] = "reported only: vanishing is not asserted for n > 4"
        return rec
    if name == "eos-slope":
        rec.status = INFORMATIONAL
        if eos is not None:
            rec.detail["w"] = eos.w if eos.w is not None else "undefined"
            rec.detail["degenerate_fit"] = eos.degenerate_fit
        return rec
    if name == "eos-parallel":
        if eos is None:
            rec.status = SKIPPED
            rec.skipped_reason = "no scalar gradients available"
            return rec
        rec.max_residual = eos.parallel_residual
        return rec
    if name == "energy-condition":
        rec.status = INFORMATIONAL
        if eos is not None:
            rec.detail["min_abs_p_plus_mu"] = eos.min_p_plus_mu
            rec.detail["p_plus_mu_positive"] = eos.p_plus_mu_positive
        return rec
    if name == "homothetic-triple":
        rows = [p for p in payloads if "grad_rho_norm" in p]
        if not rows:
            rec.status = SKIPPED
            rec.skipped_reason = "no potential data (basepoint or closedness missing)"
            return rec
        hom = physics.homothetic_check(
            [p["scalar_a"] for p in rows], [p["scalar_b"] for p in rows],
            [p["grad_rho_norm"] for p in rows],
            [p["p"] for p in rows], [p["mu"] for p in rows],
            chart.n, tol=config.conclusion_tol)
        rec.ok = hom.consistent
        rec.max_residual = 0.0 if hom.consistent else 1.0
        rec.detail["homothetic_points"] = hom.homothetic_points
        rec.detail["proper_points"] = hom.proper_points
        return rec
    if name in ("grw-ricci-A", "grw-ricci-B"):
        rec.max_residual = _max_over(payloads, name)
        rec.detail["resolution"] = RESOLUTION_NOTE
        if rec.max_residual is None:
            rec.status = SKIPPED
            branches = {p.get("fluid_branch") for p in payloads}
            if "anomalous" in branches or "grw-ricci-A" not in payloads[0]:
                rec.skipped_reason = "fluid decomposition unavailable"
            else:
                rec.skipped_reason = "degenerate fluid: B ≈ 0, only A compared"
        return rec
    if name == "torse-f-consistency":
        rec.max_residual = _max_over(payloads, name)
        if rec.max_residual is None:
            rec.status = SKIPPED
            rec.skipped_reason = "B vanishes: the cross formula is undefined"
        return rec
    if name in _LADDER_SET:
        values = [p["ladder"][name] for p in payloads if "ladder" in p]
        if not values:
            rec.status = SKIPPED
            rec.skipped_reason = "scalar gradients unavailable"
            return rec
        rec.max_residual = max(values)
        return rec

    rec.max_residual = _max_over(payloads, name)
    if rec.max_residual is None:
        rec.status = SKIPPED
        rec.skipped_reason = _generic_skip_reason(name)
    return rec


def _generic_skip_reason(name):
    if name in ("weyl-electric",):
        return "no velocity available (degenerate or anomalous decomposition)"
    if name in ("chen-vector", "ckv-gradient", "potential-path-independence",
                "soliton-form"):
        return "potential reconstruction unavailable"
    return "no data"


def _eos(payloads):
    """The equation-of-state report over the points that carry scalar
    gradients, or None when none does."""
    rows = [p for p in payloads if "dp" in p]
    if not rows:
        return None
    return physics.eos_check([p["dp"] for p in rows],
                             [p["dmu"] for p in rows],
                             [p["p"] for p in rows],
                             [p["mu"] for p in rows])


_HYPOTHESIS_CHECKS = ("fluid-decompose", "fluid-form", "u-unit", "u-closed",
                      "div-weyl")
_THEOREM2_HYPOTHESES = ("fiber-einstein", "div-weyl")


def _apply_downgrades(records, payloads, has_velocity):
    by_name = {r.name: r for r in records}

    def established(names):
        for nm in names:
            rec = by_name.get(nm)
            if rec is None or rec.status == SKIPPED:
                if nm in ("u-closed",) and not has_velocity:
                    return False, f"{nm} not evaluable"
                continue
            if rec.status == DEGENERATE:
                return False, f"{nm} degenerate"
            if rec.ok is False:
                return False, f"{nm} failed"
        return True, ""

    ok1, why1 = established(_HYPOTHESIS_CHECKS)
    if not ok1:
        for rec in records:
            if rec.group in ("conclusions", "ladder", "physics") \
                    and rec.status in (PASS, FAIL):
                rec.status = INFORMATIONAL
                rec.required = False
                rec.detail["downgraded"] = f"hypothesis not established: {why1}"
    ok2, why2 = established(_THEOREM2_HYPOTHESES)
    if not ok2:
        for rec in records:
            if rec.name in ("grw-ricci-A", "grw-ricci-B") \
                    and rec.status in (PASS, FAIL):
                rec.status = INFORMATIONAL
                rec.required = False
                rec.detail["downgraded"] = f"hypothesis not established: {why2}"
