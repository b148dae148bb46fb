import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwcert.certify import RunConfig
from grwcert.chart import sample_points
from grwcert.classify import VelocityAnalysis, weyl_electric_at
from grwcert.expr import eval_jet3_batch, parse
from grwcert.grw import _sphere, build_grw, catalog_get
from grwcert.jets import TensorJet
from grwcert.physics import (eos_check, eos_parallel_at, homothetic,
                             homothetic_check, motion_at)

from .conftest import certified
from .test_classify import chen_rows


def gathered_scalars(chart, points):
    fp = VelocityAnalysis(chart, chart.velocity).at(points)
    keys = ("a", "b", "p", "mu", "dp", "dmu")
    return [dict(zip(keys, row)) for row in zip(
        fp.a_jet.value, fp.b_jet.value, fp.p_jet.value, fp.mu_jet.value,
        fp.p_jet.grad, fp.mu_jet.grad)]


def fluid_at(chart):
    """A, B, p and mu of the chart's velocity at its first sample point
    (seed 0)."""
    fp = VelocityAnalysis(chart).at(sample_points(chart, 1, seed=0))
    return tuple(float(jet.value[0])
                 for jet in (fp.a_jet, fp.b_jet, fp.p_jet, fp.mu_jet))


def static_chart(n):
    """The static warped product -dt^2 + g*, g* the unit (n-1)-sphere."""
    if n == 4:
        return catalog_get("einstein-static").chart
    return build_grw("1", _sphere(4), name="static-s4", t_range=(1, 2))


class TestFluidMapping:
    """``VelocityAnalysis`` maps A = (p - mu)/(2 - n) and B = p + mu to
    mu = ((n-2) A + B)/2, p = B - mu: p and mu in units with kappa = 1."""

    def test_worked_example(self):
        # The static Einstein universe: A = B = 2 gives mu = 3, p = -1.
        a, b, p, mu = fluid_at(static_chart(4))
        assert (a, b) == pytest.approx((2.0, 2.0), abs=1e-9)
        assert mu == pytest.approx(3.0)
        assert p == pytest.approx(-1.0)
        assert ((p - mu) / (2 - 4), p + mu) == pytest.approx((a, b))

    def test_equal_ab_gives_fixed_ratio(self):
        for n in (4, 5):
            chart = static_chart(n)
            a, b, p, mu = fluid_at(chart)
            assert a == pytest.approx(b, rel=1e-14)
            assert p == pytest.approx((3.0 - n) / (n - 1.0) * mu, rel=1e-12)

    def test_desitter_fluid(self):
        a, b, p, mu = fluid_at(catalog_get("desitter").chart)
        assert (a, b) == pytest.approx((3.0, 0.0), abs=1e-9)
        assert mu == pytest.approx(3.0)
        assert p == pytest.approx(-3.0)

    def test_gamma_is_two_mu(self):
        a, b, _, mu = fluid_at(catalog_get("frw-dust").chart)
        assert (4 - 2) * a + b == pytest.approx(2 * mu, rel=1e-12)

    def test_invalid_inputs(self):
        # Neither the run nor the analysis takes a coupling.
        with pytest.raises(TypeError):
            RunConfig(kappa=1.0)
        with pytest.raises(TypeError):
            VelocityAnalysis(catalog_get("frw-dust").chart, kappa=1.0)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["frw-dust", "frw-rad", "grw5-sphere"]))
def test_round_trip_property(name):
    chart = catalog_get(name).chart
    a, b, p, mu = fluid_at(chart)
    assert abs((p - mu) / (2 - chart.n) - a) <= 1e-14 * (1 + abs(a))
    assert abs((p + mu) - b) <= 1e-14 * (1 + abs(b))


class TestMotion:
    @staticmethod
    def motion(name, count, seed):
        report = certified(catalog_get(name).chart, count, seed, "physics")
        return (report.find("motion-energy").max_residual,
                report.find("motion-euler").max_residual)

    def test_einstein_static_constants(self):
        r1, r2 = self.motion("einstein-static", 5, 1)
        assert r1 < 1e-12
        assert r2 < 1e-12

    def test_frw_dust(self):
        r1, r2 = self.motion("frw-dust", 10, 2)
        assert r1 < 1e-7
        assert r2 < 1e-7

    def test_perturbed_pressure_negative_control(self):
        chart = catalog_get("frw-dust").chart
        perturb = parse("0.1*x^2", chart.coordinates)
        points = sample_points(chart, 10, seed=3)
        fp = VelocityAnalysis(chart).at(points)
        levels = eval_jet3_batch((perturb,), [p.coords for p in points],
                                 chart.params)
        p_jet = fp.p_jet + TensorJet(fp.n, [lv[:, 0] for lv in levels], 1)
        r2 = max(motion_at(replace(fp, p_jet=p_jet))[1])
        assert r2 > 1e-3


def eos_parallel(chart, points):
    """The largest eos-parallel residual over the points."""
    return max(eos_parallel_at(VelocityAnalysis(chart).at(points)))


class TestEos:
    def test_frw_dust_w_zero(self):
        chart = catalog_get("frw-dust").chart
        points = sample_points(chart, 20, seed=4)
        rows = gathered_scalars(chart, points)
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert eos_parallel(chart, points) < 1e-8
        assert report.w == pytest.approx(0.0, abs=1e-6)
        assert report.p_plus_mu_positive
        assert report.min_p_plus_mu > 0
        assert not report.degenerate_fit

    def test_frw_rad_w_third(self):
        chart = catalog_get("frw-rad").chart
        points = sample_points(chart, 20, seed=5)
        rows = gathered_scalars(chart, points)
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert report.w == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert eos_parallel(chart, points) < 1e-8

    def test_einstein_static_degenerate_fit(self):
        chart = catalog_get("einstein-static").chart
        points = sample_points(chart, 10, seed=6)
        rows = gathered_scalars(chart, points)
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert report.degenerate_fit
        assert report.w is None
        assert eos_parallel(chart, points) < 1e-12

    def test_parallel_matches_the_per_point_formula(self):
        # The batched kernel against the per-point outer products it
        # replaced: the same arithmetic, so the same bits.
        dp, dmu = np.random.default_rng(0).normal(size=(2, 6, 4))
        dmu[2] = 3.0 * dp[2]
        grads = SimpleNamespace(p_jet=SimpleNamespace(grad=dp),
                                mu_jet=SimpleNamespace(grad=dmu))
        for r, p, m in zip(eos_parallel_at(grads), dp, dmu):
            wedge = np.outer(p, m) - np.outer(m, p)
            assert r == float(np.max(np.abs(wedge))) / (
                1.0 + float(np.max(np.abs(p))) * float(np.max(np.abs(m))))

    def test_nan_gradient_fails_and_names_its_point(self, monkeypatch):
        # A NaN gradient of p at run point 1 fails eos-parallel there, as
        # every max-over-points record fails on a NaN, wherever it falls.
        at = VelocityAnalysis.at

        def nan_at_point_one(self, points, stack=None):
            fp = at(self, points, stack=stack)
            fp.p_jet.grad[1] = math.nan
            return fp

        monkeypatch.setattr(VelocityAnalysis, "at", nan_at_point_one)
        rec = certified(catalog_get("frw-dust").chart, 3, 0,
                        "physics").find("eos-parallel")
        assert rec.status == "fail" and math.isnan(rec.max_residual)
        assert rec.detail["error"] == "point 1: the residual is NaN"


class TestHomothetic:
    def _rows_with_grad_rho(self, name, seed):
        chart = catalog_get(name).chart
        points = sample_points(chart, 5, seed=seed)
        rows = gathered_scalars(chart, points)
        grads = [row.grad_rho_norm for row in chen_rows(chart, points)]
        return rows, grads

    def test_einstein_static_triple_holds(self):
        rows, grads = self._rows_with_grad_rho("einstein-static", 7)
        report = homothetic_check(
            [r["a"] for r in rows], [r["b"] for r in rows], grads,
            [r["p"] for r in rows], [r["mu"] for r in rows], n=4)
        assert report.consistent
        assert report.homothetic_points == len(rows)
        for r in rows:
            assert r["p"] == pytest.approx(-r["mu"] / 3.0, abs=1e-10)

    def test_frw_dust_proper_branch(self):
        rows, grads = self._rows_with_grad_rho("frw-dust", 8)
        report = homothetic_check(
            [r["a"] for r in rows], [r["b"] for r in rows], grads,
            [r["p"] for r in rows], [r["mu"] for r in rows], n=4)
        assert report.consistent
        assert report.proper_points == len(rows)
        assert report.homothetic_points == 0

    @pytest.mark.parametrize("name, branch", [("frw-dust", "proper_points"),
                                              ("einstein-static",
                                               "homothetic_points")])
    def test_ckv_branch_counts_match_triple(self, name, branch):
        # ckv-branch and homothetic-triple split the points by one A = B
        # test, so their counts agree; every point is on one branch here.
        report = certified(catalog_get(name).chart, 6, 3, "conclusions",
                           "physics")
        ckv = report.find("ckv-branch").detail
        triple = report.find("homothetic-triple").detail
        for key in ("proper_points", "homothetic_points"):
            assert ckv[key] == triple[key], key
        assert ckv[branch] == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arrays_match_the_per_point_tests(self, seed):
        # The array form against the three tests applied point by point,
        # on points split evenly between A = B and A != B; each of the
        # three conditions agrees with the split at 80 % of the points.
        rng = np.random.default_rng(seed)
        a, noise = rng.normal(size=(2, 12))
        split = rng.random(12) < 0.5
        agree = np.where(rng.random((3, 12)) < 0.8, split, ~split)
        b = a + np.where(agree[0], 1e-12, 0.5)
        grad_rho = np.where(agree[1], 0.0, 0.5 + noise ** 2)
        mu = rng.normal(size=12)
        p = np.where(agree[2], -mu / 3.0, mu)
        report = homothetic_check(a, b, grad_rho, p, mu, n=4)
        conditions = [(homothetic(float(a_), float(b_), 1e-7),
                       gr <= 1e-7 * (1.0 + abs(a_) + abs(b_)),
                       abs(p_ + m / 3.0) <= 1e-7 * (1.0 + abs(p_) + abs(m)))
                      for a_, b_, gr, p_, m in zip(a, b, grad_rho, p, mu)]
        assert report.consistent == all(c1 == c2 == c3
                                        for c1, c2, c3 in conditions)
        assert report.homothetic_points == sum(c[0] for c in conditions)
        assert report.proper_points == 12 - report.homothetic_points

    def test_symbolic_equal_ab(self):
        # A = B forces p = -mu/3 in n = 4 identically
        a, b, p, mu = fluid_at(static_chart(4))
        assert a == pytest.approx(b, rel=1e-14)
        assert p == pytest.approx(-mu / 3.0, rel=1e-14)


class TestPropositionConclusions:
    """Catalog metrics satisfying the hypotheses with p + mu != 0 have
    irrotational, geodesic velocity annihilating the Weyl tensor."""

    NAMES = ("frw-dust", "frw-rad", "frw-k+1", "frw-k-1", "grw5-sphere")

    @pytest.mark.parametrize("name", NAMES)
    def test_conclusions(self, name):
        chart = catalog_get(name).chart
        points = sample_points(chart, 5, seed=9)
        rows = gathered_scalars(chart, points)
        assert all(abs(r["p"] + r["mu"]) > 1e-6 for r in rows)
        report = certified(chart, 5, 9, "hypotheses", "physics")
        assert report.find("u-closed").max_residual < 1e-7
        assert report.find("geodesic").max_residual < 1e-7
        fp = VelocityAnalysis(chart, chart.velocity).at(points)
        assert max(weyl_electric_at(fp.stack.to_point(), fp.uupv)) < 1e-7
