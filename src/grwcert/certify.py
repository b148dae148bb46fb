"""Certification runs: orchestrate every check suite over sampled points.

The pipeline per run: curvature sanity -> fluid decomposition ->
hypotheses (closed velocity, divergence-free Weyl) -> conclusions
(torse-forming / concircular / gradient-rescaled vector / conformal-Killing
gradient law / electric Weyl) -> identity ladder -> physics, plus the
warped-product converse formulas for declared warped products. A failed or
degenerate hypothesis downgrades the downstream checks to informational;
they still run and are reported.

The points go in fixed-size chunks: each chunk's curvature stack and
every kernel, the fluid eigen-split and the Chen vector included, run once
for the chunk, on its point axis. sigma's quadrature makes one integrand
call per rung of its panel ladder for all of the chunk's points; the points
whose paths leave the domain are refused, and the rung walked once more
without them.
The chunk is the unit that worker threads map over. Every aggregation is
a max or an ordered reduction over the point index, so reports are
byte-identical regardless of the worker count and the chunk size.
"""

from __future__ import annotations

import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import classify, physics
from .chart import (ChartInput, MetricChart, compile_chart, sample_points,
                    validate_basepoint)
from .classify import (ANOMALOUS, NONDEGENERATE, VelocityAnalysis,
                       fluid_decompose)
from .curvature import (JetStack, first_bianchi_residual, scale_free_at,
                        weyl_trace_residual)
from .expr import RowError
from .grw import RESOLUTION_NOTE, converse_at
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
    workers: int = 1
    checks: tuple[str, ...] | None = None   # subset of GROUPS; None = all
    basepoint: tuple[float, ...] | None = None

    def __post_init__(self):
        # Stored as int and float: an np.int64 seed samples the points the
        # int does, and the report's environment stays JSON. A bool is
        # neither a count nor a tolerance.
        for label, least in (("points", 1), ("seed", 0), ("workers", 1)):
            value = getattr(self, label)
            try:
                number = operator.index(value)
            except TypeError:
                number = None
            if isinstance(value, bool) or number is None or number < least:
                kind = "positive" if least else "non-negative"
                raise ValueError(f"{label} must be a {kind} integer, "
                                 f"not {value!r}")
            object.__setattr__(self, label, number)
        for label in ("hypothesis_tol", "conclusion_tol", "cluster_tol"):
            value = getattr(self, label)
            tol = (float(value) if isinstance(value, numbers.Real)
                   and not isinstance(value, bool) else math.nan)
            if not 0.0 < tol < math.inf:
                raise ValueError(f"{label} must be a positive finite "
                                 f"number, not {value!r}")
            object.__setattr__(self, label, tol)
        # Stored as a tuple, so that the config hashes. A string is one
        # name, not a collection of its letters.
        if isinstance(self.checks, str):
            raise ValueError(f"checks must be a collection of group names, "
                             f"not {self.checks!r}")
        if self.checks is not None:
            object.__setattr__(self, "checks", tuple(self.checks))
            unknown = set(self.checks) - set(GROUPS)
            if unknown or not self.checks:   # an empty run checks nothing
                what = (f"unknown check groups: {sorted(unknown)}" if unknown
                        else "no check groups selected")
                raise ValueError(f"{what}; valid groups: {', '.join(GROUPS)}")

    def selected(self) -> set[str]:
        return set(GROUPS if self.checks is None else self.checks)


# Points per chunk. One batched stack and kernel pass pays numpy's
# per-operation overhead once per chunk instead of once per point, so the
# default 50-point run is one chunk. The size bounds the memory that the
# stack's arrays and sigma's rows take (at most 224 rows per point). The
# chunks never depend on --workers.
CHUNK_POINTS = 64


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
        return validate_basepoint(config.basepoint, chart.coordinates,
                                  chart.ranges)
    return chart.basepoint


def certify_chart(chart: MetricChart, config: RunConfig) -> CertificationReport:
    selected = config.selected()
    points = sample_points(chart, config.points, config.seed)
    base = _basepoint(chart, config)
    analysis = (VelocityAnalysis(chart, chart.velocity)
                if chart.velocity is not None
                and chart.signature == "lorentzian" else None)

    starts = range(0, len(points), CHUNK_POINTS)
    chunks = [points[start:start + CHUNK_POINTS] for start in starts]
    solve = partial(_chunk_values, chart, analysis, config, base, selected)
    workers = min(config.workers, len(chunks))
    columns, masks, first_error = [], [], {}
    # Overflow and NaN in the jets reach the report as NaN residuals, which
    # fail their records and name the point: numpy's warnings add nothing.
    with np.errstate(all="ignore"), (
            ThreadPoolExecutor(max_workers=workers,
                               initializer=partial(np.seterr, all="ignore"))
            if workers > 1 else nullcontext()) as pool:
        # In chunk order: the first failing chunk of the run names its point.
        results = (pool.map if pool else map)(solve, chunks)
        for start, chunk in zip(starts, chunks):
            try:
                values, present, refusals = next(results)
            except RowError as err:     # name the point by its run index
                err.coords = chunk[err.index].coords
                err.index, err.place = start + err.index, "point"
                raise
            columns.append(values)
            masks.append(present)
            for i, name, message in refusals:
                first_error.setdefault(name, f"point {start + i}: {message}")

    records = _assemble(_Run(chart, config, _join(columns), _join(masks)),
                        selected, first_error, basepoint=base)
    environment = {
        "points": config.points,
        "seed": config.seed,
        "tolerances": {"hypothesis": config.hypothesis_tol,
                       "conclusion": config.conclusion_tol,
                       "cluster": config.cluster_tol},
        "quadrature": {"order": classify.QUAD_ORDER,
                       "panels": list(classify.QUAD_PANELS)},
        "basepoint": None if base is None else [float(v) for v in base],
        "checks": sorted(selected),
    }
    report = CertificationReport(metric_name=chart.name,
                                 environment=environment, checks=records)
    return report.settle_verdict()


def _join(chunks: list[dict]) -> dict:
    """Each key's arrays over the chunks joined in point order: every chunk
    of a run carries the same keys."""
    return {key: np.concatenate([chunk[key] for chunk in chunks])
            for key in chunks[0]}


# ---------------------------------------------------------------------------
# Per-chunk and per-point computation (pure).
# ---------------------------------------------------------------------------

def _chunk_values(chart, analysis, config, base, selected, chunk):
    """A chunk's columns (key -> array over its points, a max over every
    other axis), masks of the points that carry each key that not every
    point does, and refusals as (point, record, message). The keys depend
    on the run only. Each column is formed once for the chunk, on its
    curvature stack; ``_point_payload`` integrates sigma at all of the
    chunk's points at once."""
    stack = JetStack(chart, chunk)
    cp, fp = stack.to_point(), None
    eigs = np.linalg.eigvalsh(cp.g)
    expected = 1 if chart.signature == "lorentzian" else 0
    values = {
        "signature": np.where((np.sum(eigs < 0, axis=-1) == expected)
                              & (np.min(np.abs(eigs), axis=-1) > 1e-12),
                              0.0, 1.0),
        "ricci-symmetric": scale_free_at(
            cp.ricci - np.swapaxes(cp.ricci, -1, -2), cp.ricci),
        "bianchi-first": first_bianchi_residual(cp),
        "weyl-tracefree": weyl_trace_residual(cp),
        "div-weyl": scale_free_at(cp.divweyl, cp.driem),
    }
    # The points that carry a key, for the keys that not every point does.
    present: dict[str, np.ndarray] = {}
    refusals = []
    lorentzian = chart.signature == "lorentzian"
    if lorentzian and "conclusions" in selected:
        values["weyl-zero-n4"] = scale_free_at(cp.weyl, cp.riem)

    # Only the records of these groups read the velocity's jets (analysis
    # is None on a Riemannian chart).
    reads_u = {"fluid", "hypotheses", "conclusions", "ladder", "physics"}
    if analysis is not None and selected & reads_u:
        fp = analysis.at(stack.points, stack=stack)
        a, b = fp.a_jet.value, fp.b_jet.value
        values["u-unit"], values["u-closed"] = fp.unit_residual, fp.u_closed
        values["fluid-form"] = classify.fluid_form_residual(cp, a, b, fp.uv)
        values["scalar_a"], values["scalar_b"] = a, b
        (values["torse-forming"], values["omega-aligned"],
         values["torse-f-consistency"]) = classify.torse_at(fp)
        present["torse-f-consistency"] = ~np.isnan(   # B vanishes
            values["torse-f-consistency"])
        values["omega-closed"] = fp.omega_closed
        values.update(classify.ladder_residuals_at(fp))
        values["geodesic"] = classify.geodesic_at(fp)
        values["motion-energy"], values["motion-euler"] = physics.motion_at(fp)
        values["eos-parallel"] = physics.eos_parallel_at(fp)
        values["p"], values["mu"] = fp.p_jet.value, fp.mu_jet.value
        values["dp"], values["dmu"] = fp.p_jet.grad, fp.mu_jet.grad
        if "conclusions" in selected:
            values["weyl-electric"] = classify.weyl_electric_at(cp, fp.uupv)
            values["soliton-form"] = classify._soliton_residual_at(fp)[0]
            # The soliton form needs a potential of u.
            refused = fp.u_closed > config.hypothesis_tol * 10
            present["soliton-form"] = ~refused
            refusals += [(i, "soliton-form",
                          classify.not_closed("u", fp.u_closed[i]))
                         for i in np.flatnonzero(refused)]

    # Only the records of these groups read the fluid split.
    if lorentzian and selected & {"fluid", "conclusions", "converse"}:
        dec = fluid_decompose(cp, cluster_tol=config.cluster_tol)
        split = dec.branch != ANOMALOUS
        values["fluid_branch"] = dec.branch
        for key, column in (("fluid_residual", dec.residual),
                            ("fluid_a", dec.a), ("fluid_b", dec.b)):
            values[key], present[key] = column, split
        refusals += [(i, "fluid-decompose", dec.error[i])
                     for i in np.flatnonzero(~split)]
        if fp is None and "conclusions" in selected:
            # Without a velocity field the electric check reads the split's.
            values["weyl-electric"] = classify.weyl_electric_at(cp,
                                                                dec.u_up)
            present["weyl-electric"] = dec.branch == NONDEGENERATE
        if chart.grw is not None and "converse" in selected:
            fiber, a, b = _converse_payload(chart, stack.points)
            values["fiber-einstein"] = fiber
            values["grw-ricci-A"] = np.abs(dec.a - a) / (1.0 + np.abs(a))
            values["grw-ricci-B"] = np.abs(dec.b - b) / (1.0 + np.abs(b))
            present["grw-ricci-A"] = split
            present["grw-ricci-B"] = dec.branch == NONDEGENERATE

    # sigma on the chunk, then the Chen vector's laws. sigma feeds the
    # conclusions and homothetic-triple (grad_rho_norm).
    integrand = (classify._omega_integrand(chart, fp.field)
                 if fp is not None and base is not None
                 and selected & {"conclusions", "physics"} else None)
    potentials = _point_payload(integrand, fp, base,
                                config.hypothesis_tol * 10)
    if potentials is not None:
        sigma, defect, refused = potentials
        # In point order: the chunk's first refusal names the record's.
        refusals += [(i, "chen-vector", refused[i]) for i in sorted(refused)]
        # A refused point has no potential. A NaN sigma stays, and fails.
        has = np.ones(len(sigma), dtype=bool)
        has[list(refused)] = False
        (values["chen-vector"], values["ckv-gradient"],
         values["grad_rho_norm"]) = classify._chen_point(fp, sigma)
        values["potential-path-independence"] = defect
        present.update(dict.fromkeys(
            ("chen-vector", "ckv-gradient", "grad_rho_norm",
             "potential-path-independence"), has))
    return values, present, refusals


def _point_payload(integrand, fp, base, limit):
    """sigma at a chunk's points, or None without an integrand: (sigma,
    path defect, refused), two arrays over the points, NaN where a point
    has no potential, and each such point's refusal text by its index
    (omega's curl above ``limit``, say). One quadrature integrates every
    point whose omega is closed; a point whose path leaves an expression's
    domain or meets a singular metric is refused with its own path row."""
    if integrand is None:
        return None
    points = fp.stack.points
    sigma, defect = np.full((2, len(points)), math.nan)
    refused = {i: classify.not_closed("ω", curl)
               for i, curl in enumerate(fp.omega_closed) if curl > limit}
    closed = np.flatnonzero(~(fp.omega_closed > limit))     # NaN: closed
    value, path_defect, failed = classify._integrate_form(
        integrand, fp.n, base, np.array([p.coords for p in points])[closed])
    sigma[closed], defect[closed] = value, path_defect
    refused.update((int(closed[k]), text) for k, text in failed.items())
    return sigma, defect, refused


def _converse_payload(chart, points):
    """The converse's formulas at a chunk's points: one fiber stack."""
    return converse_at(chart, points)


# ---------------------------------------------------------------------------
# The checks as one table, and their aggregation into records.
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """What the aggregators read: the run, its columns over the points and
    ``present``, the masks of the keys that not every point carries."""

    chart: MetricChart
    config: RunConfig
    columns: dict
    present: dict

    def carried(self, key):
        """The run indices of the points that carry ``key``, and its
        values there."""
        column = self.columns.get(key, np.zeros(0))
        keep = self.present.get(key)
        if keep is None:
            return np.arange(len(column)), column
        index = np.flatnonzero(keep)
        return index, column[index]

    def max_over(self, key, rec):
        """The largest ``key`` over the points that carry it, or None. A NaN
        at any point is the maximum, and ``rec`` names its run index."""
        index, values = self.carried(key)
        if not values.size:
            return None
        largest = float(values.max())
        if math.isnan(largest):
            rec.detail["error"] = (f"point {index[np.isnan(values).argmax()]}"
                                   f": the residual is NaN")
        return largest

    @cached_property
    def eos(self) -> physics.EosReport:
        """The EOS report: its records need a velocity, so dp is a column."""
        return physics.eos_check(*(self.columns[key]
                                   for key in ("dp", "dmu", "p", "mu")))

    @cached_property
    def homothetic(self) -> physics.HomotheticReport:
        """The A = B split of the points with a potential, which ckv-branch
        and homothetic-triple both report."""
        index, grad_rho = self.carried("grad_rho_norm")
        a, b, p, mu = (self.columns[key][index]
                       for key in ("scalar_a", "scalar_b", "p", "mu"))
        return physics.homothetic_check(a, b, grad_rho, p, mu, self.chart.n,
                                        tol=self.config.conclusion_tol)


# An aggregator fills a check's record from the run and returns the skip
# reason when the points carry no data for it, else None.

def _max_of_name(row, run, rec):
    rec.max_residual = run.max_over(row.name, rec)
    return row.no_data if rec.max_residual is None else None


def _fluid_decompose(row, run, rec):
    branches = run.columns["fluid_branch"].tolist()
    rec.detail["branches"] = {b: branches.count(b) for b in sorted(set(branches))}
    for label, key in (("A", "fluid_a"), ("B", "fluid_b")):
        values = run.carried(key)[1]
        if values.size:
            rec.detail[f"{label}_min"] = float(values.min())
            rec.detail[f"{label}_max"] = float(values.max())
    rec.max_residual = run.max_over("fluid_residual", rec)
    if ANOMALOUS in branches:
        rec.ok = False
        rec.status = FAIL
    elif classify.DEGENERATE in branches:
        rec.ok = False
        rec.status = DEGENERATE
        rec.detail["note"] = "Einstein case: B ≈ 0, velocity undefined"
    else:
        rec.ok = (rec.max_residual is not None
                  and rec.max_residual <= rec.tolerance)


def _ckv_branch(row, run, rec):
    hom = run.homothetic
    rec.status = INFORMATIONAL
    rec.detail["proper_points"] = hom.proper_points
    rec.detail["homothetic_points"] = hom.homothetic_points
    if hom.proper_points and hom.homothetic_points:
        rec.detail["note"] = "mixed branches across points"


def _weyl_zero_n4(row, run, rec):
    # Below n = 4 the record is downgraded by the theorem's scope instead.
    if run.chart.n > 4:
        rec.status = INFORMATIONAL
        rec.detail["note"] = "reported only: vanishing is not asserted for n > 4"
    return _max_of_name(row, run, rec)


def _eos_slope(row, run, rec):
    rec.status = INFORMATIONAL
    rec.detail["w"] = run.eos.w if run.eos.w is not None else "undefined"
    rec.detail["degenerate_fit"] = run.eos.degenerate_fit


def _energy_condition(row, run, rec):
    rec.status = INFORMATIONAL
    rec.detail["min_abs_p_plus_mu"] = run.eos.min_p_plus_mu
    rec.detail["p_plus_mu_positive"] = run.eos.p_plus_mu_positive


def _homothetic_triple(row, run, rec):
    if not run.carried("grad_rho_norm")[0].size:
        return row.no_data
    hom = run.homothetic
    rec.ok = hom.consistent
    rec.max_residual = 0.0 if hom.consistent else 1.0
    rec.detail["homothetic_points"] = hom.homothetic_points
    rec.detail["proper_points"] = hom.proper_points


def _grw_ricci(row, run, rec):
    rec.max_residual = run.max_over(row.name, rec)
    rec.detail["resolution"] = RESOLUTION_NOTE
    if rec.max_residual is None:
        if ANOMALOUS in run.columns["fluid_branch"].tolist():
            return row.no_data
        return "degenerate fluid: B ≈ 0, only A compared"


@dataclass(frozen=True)
class Check:
    """One report record: its place, bar, requirements and aggregation.

    ``tol`` is 'hyp' or 'conc' (the run's hypothesis or conclusion
    tolerance), a fixed bar, or None for informational records.
    ``velocity`` and ``basepoint`` mark checks that need a velocity field
    and a basepoint for sigma. ``no_data`` is the skip reason when the
    points carry nothing for the check. ``requires`` names what the check
    rests on, in the order a failure is named: hypothesis records, and
    ``_SCOPE``, the forward theorem's n ≥ 4. An evaluated record whose
    requirement is not established is downgraded to informational.
    """

    group: str
    name: str
    anchor: str
    tol: str | float | None
    velocity: bool = False
    basepoint: bool = False
    no_data: str = "no data"
    aggregate: Callable = _max_of_name
    requires: tuple[str, ...] = ()


_NO_POTENTIAL = "potential reconstruction unavailable"
_NOT_EVALUABLE = "not evaluable: no velocity field declared"
_SCOPE = "n ≥ 4"
# The forward theorem: for n ≥ 4, a perfect fluid with closed u and
# div C = 0. u-closed is named before fluid-form and u-unit, which share
# its skip reason when no velocity field is declared.
_THEOREM = (_SCOPE, "fluid-decompose", "u-closed", "fluid-form", "u-unit",
            "div-weyl")
# The converse formulas: a warped product with Einstein fiber and div C = 0.
_CONVERSE = ("fiber-einstein", "div-weyl")

# Report order.
CHECKS = (
    Check("sanity", "signature",
          "eigenvalue signs of g match the declared signature", 0.0),
    Check("sanity", "ricci-symmetric", "R_{jl} = R_{lj}", 1e-10),
    Check("sanity", "bianchi-first",
          "R_{jkl}{}^m + R_{klj}{}^m + R_{ljk}{}^m = 0", 1e-10),
    Check("sanity", "weyl-tracefree", "every g-trace of C_{jklm} vanishes",
          1e-10),
    Check("fluid", "fluid-decompose",
          "R^i{}_j eigenvalues split (n-1)-fold A | A-B on a time-like "
          "direction", "hyp", aggregate=_fluid_decompose),
    Check("fluid", "fluid-form", "R_{kl} = A g_{kl} + B u_k u_l", "hyp",
          velocity=True),
    Check("fluid", "u-unit", "u^j u_j = -1", "hyp", velocity=True),
    Check("hypotheses", "u-closed", "∇_k u_j − ∇_j u_k = 0", "hyp",
          velocity=True),
    Check("hypotheses", "div-weyl", "∇_m C_{jkl}^m = 0", "hyp"),
    Check("conclusions", "torse-forming", "∇_k u_j = ω_k u_j + f g_{kj}",
          "conc", velocity=True, requires=_THEOREM),
    Check("conclusions", "torse-f-consistency",
          "f = −u^m ∇_m γ / (2B(n−1))", "conc", velocity=True,
          no_data="B vanishes: the cross formula is undefined",
          requires=_THEOREM),
    Check("conclusions", "omega-aligned", "ω_k = f u_k", "conc",
          velocity=True, requires=_THEOREM),
    Check("conclusions", "omega-closed", "∇_j ω_k = ∇_k ω_j", "conc",
          velocity=True, requires=_THEOREM),
    Check("conclusions", "chen-vector", "∇_k X_l = ρ g_{kl}", "conc",
          velocity=True, basepoint=True, no_data=_NO_POTENTIAL,
          requires=_THEOREM),
    Check("conclusions", "potential-path-independence",
          "segment and corner path agree on ∫ω", 1e-10, velocity=True,
          basepoint=True, no_data=_NO_POTENTIAL, requires=_THEOREM),
    Check("conclusions", "ckv-gradient", "∇_j ρ = (A−B)/(1−n) X_j", "conc",
          velocity=True, basepoint=True, no_data=_NO_POTENTIAL,
          requires=_THEOREM),
    Check("conclusions", "ckv-branch", "proper (A≠B) vs homothetic (A=B)",
          None, velocity=True, basepoint=True, aggregate=_ckv_branch,
          requires=_THEOREM),
    Check("conclusions", "weyl-electric", "C_{jkl}{}^m u_m = 0", "conc",
          no_data="no velocity available (degenerate or anomalous "
                  "decomposition)", requires=_THEOREM),
    Check("conclusions", "weyl-zero-n4", "C_{jklm} = 0 (n = 4)", "conc",
          aggregate=_weyl_zero_n4, requires=_THEOREM),
    Check("conclusions", "soliton-form",
          "R_{ij} + ∇_i∇_j θ − η(∇_iθ)(∇_jθ) = λ g_{ij}, λ = A+f, η = B+f",
          "conc", velocity=True, requires=_THEOREM),
    *(Check("ladder", name, anchor, "conc", velocity=True,
            no_data="scalar gradients unavailable", requires=_THEOREM)
      for name, anchor in (
        ("bianchi-contract", "∇^m(B u_j u_m) = ½ ∇_j[(n−2)A − B]"),
        ("ricci-curl", "∇_k(B u_j u_l) − ∇_l(B u_j u_k) = "
                       "−[g_{jl}∇_k γ − g_{jk}∇_l γ]/(2(n−1))"),
        ("b-transport", "(∇_k + u_k u^l∇_l)B + B u^l∇_l u_k = "
                        "(∇_k + u_k u^l∇_l)γ / (2(n−1))"),
        ("b-transport-half", "(∇_k + u_k u^i∇_i)B + B u^m∇_m u_k = "
                             "½(∇_k + u_k u^i∇_i)γ"),
        ("gamma-comoving", "(∇_j + u_j u^k∇_k)γ = 0"),
        ("b-comoving", "(∇_j + u_j u^k∇_k)B + B u^m∇_m u_j = 0"),
        ("torse-source", "B(∇_k + u_k u^m∇_m)u_j = "
                         "(u_j∇_k − g_{jk}u^l∇_l)γ / (2(n−1))"),
        ("bu-closed", "∇_k(B u_j) = ∇_j(B u_k)"),
        ("gamma-aligned", "u_j∇_k γ = u_k∇_j γ"))),
    Check("physics", "geodesic", "u^k ∇_k u_j = 0", "conc", velocity=True,
          requires=_THEOREM),
    Check("physics", "motion-energy", "u^k∇_k μ + (p+μ) ∇_k u^k = 0",
          "conc", velocity=True, requires=_THEOREM),
    Check("physics", "motion-euler",
          "(∇_j + u_j u^k∇_k) p + (p+μ) u^k∇_k u_j = 0", "conc",
          velocity=True, requires=_THEOREM),
    Check("physics", "eos-parallel", "∇p ∧ ∇μ = 0", "conc", velocity=True,
          no_data="no scalar gradients available", requires=_THEOREM),
    Check("physics", "eos-slope", "p ≈ w μ (least-squares over points)",
          None, velocity=True, aggregate=_eos_slope, requires=_THEOREM),
    Check("physics", "energy-condition", "p + μ ≠ 0", None, velocity=True,
          aggregate=_energy_condition, requires=_THEOREM),
    Check("physics", "homothetic-triple",
          "A=B ⇔ ∇ρ=0 ⇔ p=(3−n)μ/(n−1)", "conc", velocity=True,
          no_data="no potential data (basepoint or closedness missing)",
          aggregate=_homothetic_triple, requires=_THEOREM),
    Check("converse", "fiber-einstein", "R*_{αβ} = (R*/(n−1)) g*_{αβ}",
          "hyp"),
    Check("converse", "grw-ricci-A", "A = [R*/(n−1) + q′²(n−2) + q q″]/q²",
          "conc", no_data="fluid decomposition unavailable",
          aggregate=_grw_ricci, requires=_CONVERSE),
    Check("converse", "grw-ricci-B", "B = A − (n−1) q″/q", "conc",
          no_data="fluid decomposition unavailable", aggregate=_grw_ricci,
          requires=_CONVERSE),
)


def _assemble(run, selected, first_error, *, basepoint):
    """The report's records from the run's columns and each record's first
    refusal, already named by its point."""
    chart, config = run.chart, run.config
    tol = {"hyp": config.hypothesis_tol, "conc": config.conclusion_tol}
    lorentzian = chart.signature == "lorentzian"
    records = []

    for row in CHECKS:
        rec = CheckRecord(name=row.name, group=row.group, anchor=row.anchor)
        if row.group not in selected:
            reason = "not selected"
        elif row.group != "sanity" and not lorentzian:
            reason = "riemannian chart: fluid pipeline not applicable"
        elif row.group == "converse" and chart.grw is None:
            reason = "not a declared warped product"
        else:
            rec.tolerance = tol.get(row.tol, row.tol)
            if row.velocity and chart.velocity is None:
                reason = _NOT_EVALUABLE
            elif row.basepoint and basepoint is None:
                reason = "no basepoint declared for potential reconstruction"
            else:
                reason = row.aggregate(row, run, rec)
            if row.name in first_error:
                # Also when every point failed, which leaves the check no data.
                rec.ok = False
                rec.status = FAIL
                rec.detail["error"] = first_error[row.name]
                reason = None
        if reason is not None:
            rec.status = SKIPPED
            rec.skipped_reason = reason
        records.append(rec.finalize())

    _apply_downgrades(records, chart.n)
    return records


def _apply_downgrades(records, n):
    """Downgrade each evaluated record whose check ``requires`` something
    that is not established; the first such requirement names the reason."""
    unmet = {rec.name: _unmet(rec) for rec in records}
    unmet[_SCOPE] = None if n >= 4 else "the theorem needs n ≥ 4"
    for row, rec in zip(CHECKS, records):
        why = next((unmet[r] for r in row.requires if unmet[r]), None)
        if why is not None and rec.status in (PASS, FAIL):
            rec.status = INFORMATIONAL
            rec.required = False
            rec.detail["downgraded"] = f"hypothesis not established: {why}"


def _unmet(rec):
    """Why a record does not establish its hypothesis, or None. A record
    skipped for another reason than a missing velocity field (not
    selected, say) asserts nothing and blocks nothing."""
    if rec.status == SKIPPED:
        if rec.skipped_reason == _NOT_EVALUABLE:
            return f"{rec.name} not evaluable"
        return None
    if rec.status == DEGENERATE:
        return f"{rec.name} degenerate"
    return f"{rec.name} failed" if rec.ok is False else None
