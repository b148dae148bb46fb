from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwcert.certify import RunConfig
from grwcert.chart import sample_points
from grwcert.classify import VelocityAnalysis, chen_at, weyl_electric_check
from grwcert.expr import eval_jet3, parse
from grwcert.grw import WarpSpec, build_grw, catalog_get
from grwcert.physics import eos_check, homothetic_check, motion_at

from .conftest import certified


def gathered_scalars(chart, points, kappa=1.0):
    analysis = VelocityAnalysis(chart, chart.velocity, kappa=kappa)
    rows = []
    for p in points:
        fp = analysis.at(p)
        rows.append({
            "a": fp.a_jet.value, "b": fp.b_jet.value,
            "p": fp.p_jet.value, "mu": fp.mu_jet.value,
            "dp": np.array(fp.p_jet.grad), "dmu": np.array(fp.mu_jet.grad),
        })
    return rows


def fluid_at(chart, kappa=1.0):
    """A, B, p and mu of the chart's velocity at its first sample point
    (seed 0), at coupling kappa."""
    point = sample_points(chart, 1, seed=0)[0]
    fp = VelocityAnalysis(chart, kappa=kappa).at(point)
    return tuple(float(jet.value)
                 for jet in (fp.a_jet, fp.b_jet, fp.p_jet, fp.mu_jet))


def static_chart(n):
    """The static warped product -dt^2 + g*, g* the unit (n-1)-sphere."""
    if n == 4:
        return catalog_get("einstein-static").chart
    return build_grw(WarpSpec("1"), catalog_get("grw5-sphere").chart.grw.fiber,
                     name="static-s4", t_range=(1, 2))


class TestFluidMapping:
    """``VelocityAnalysis`` maps A = kappa (p - mu)/(2 - n) and
    B = kappa (p + mu) to mu = ((n-2) A + B)/(2 kappa), p = B/kappa - mu."""

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
            for kappa in (0.5, 1.0, 2.5):
                a, b, p, mu = fluid_at(chart, kappa)
                assert a == pytest.approx(b, rel=1e-14)
                assert p == pytest.approx((3.0 - n) / (n - 1.0) * mu,
                                          rel=1e-12)

    def test_desitter_fluid(self):
        a, b, p, mu = fluid_at(catalog_get("desitter").chart)
        assert (a, b) == pytest.approx((3.0, 0.0), abs=1e-9)
        assert mu == pytest.approx(3.0)
        assert p == pytest.approx(-3.0)

    def test_gamma_is_two_kappa_mu(self):
        chart = catalog_get("frw-dust").chart
        for kappa in (1.0, 2.5):
            a, b, _, mu = fluid_at(chart, kappa)
            assert (4 - 2) * a + b == pytest.approx(2 * kappa * mu, rel=1e-12)

    def test_invalid_inputs(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(ValueError, match="kappa must be positive"):
                RunConfig(kappa=kappa)


@settings(max_examples=300, deadline=None)
@given(kappa=st.floats(0.1, 10),
       name=st.sampled_from(["frw-dust", "frw-rad", "grw5-sphere"]))
def test_round_trip_property(kappa, name):
    chart = catalog_get(name).chart
    a, b, p, mu = fluid_at(chart, kappa)
    assert abs(kappa * (p - mu) / (2 - chart.n) - a) <= 1e-14 * (1 + abs(a))
    assert abs(kappa * (p + mu) - b) <= 1e-14 * (1 + abs(b))


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
        analysis = VelocityAnalysis(chart)
        r2 = 0.0
        for point in sample_points(chart, 10, seed=3):
            fp = analysis.at(point)
            p_jet = fp.p_jet + eval_jet3((perturb,), point,
                                         chart.params).at(0)
            r2 = max(r2, motion_at(replace(fp, p_jet=p_jet))[1])
        assert r2 > 1e-3


class TestEos:
    def test_frw_dust_w_zero(self):
        chart = catalog_get("frw-dust").chart
        rows = gathered_scalars(chart, sample_points(chart, 20, seed=4))
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert report.parallel_residual < 1e-8
        assert report.w == pytest.approx(0.0, abs=1e-6)
        assert report.p_plus_mu_positive
        assert report.min_p_plus_mu > 0
        assert not report.degenerate_fit

    def test_frw_rad_w_third(self):
        chart = catalog_get("frw-rad").chart
        rows = gathered_scalars(chart, sample_points(chart, 20, seed=5))
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert report.w == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert report.parallel_residual < 1e-8

    def test_einstein_static_degenerate_fit(self):
        chart = catalog_get("einstein-static").chart
        rows = gathered_scalars(chart, sample_points(chart, 10, seed=6))
        report = eos_check([r["dp"] for r in rows], [r["dmu"] for r in rows],
                           [r["p"] for r in rows], [r["mu"] for r in rows])
        assert report.degenerate_fit
        assert report.w is None
        assert report.parallel_residual < 1e-12


class TestHomothetic:
    def _rows_with_grad_rho(self, name, seed):
        chart = catalog_get(name).chart
        points = sample_points(chart, 5, seed=seed)
        rows = gathered_scalars(chart, points)
        analysis = VelocityAnalysis(chart)
        grads = [chen_at(analysis.at(p), chart.basepoint).grad_rho_norm
                 for p in points]
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

    def test_symbolic_equal_ab(self):
        # A = B forces p = -mu/3 in n = 4 identically
        for kappa in (0.7, 1.9):
            a, b, p, mu = fluid_at(static_chart(4), kappa)
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
        analysis = VelocityAnalysis(chart, chart.velocity)
        for p in points:
            fp = analysis.at(p)
            res = weyl_electric_check(fp.stack.to_point(), fp.uv)
            assert res.electric_residual < 1e-7
