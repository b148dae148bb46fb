import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwcert.certify import RunConfig, run_certify
from grwcert.chart import ChartInput, ChartPoint, VectorField, compile_chart, sample_points
from grwcert.classify import (LADDER_NAMES, QUAD_ORDER, QUAD_PANELS,
                              NotClosedError, OrientationTieError,
                              SpacelikeAnomalyError, VelocityAnalysis,
                              chen_at, fluid_decompose, geodesic_at,
                              ladder_residuals_at, soliton_at,
                              torse_decompose, weyl_electric_check,
                              _field_integrand, _integrate_form, _leggauss,
                              _omega_integrand)
from grwcert.curvature import curvature_at
from grwcert.expr import EvalDomainError, eval_jet3, parse
from grwcert.grw import catalog_get

from .conftest import certified
from .oracles import (eval_value, friedmann_scalars, integrate_per_node,
                      omega_per_node, staircase_per_node)

MINK_G = np.diag([-1.0, 1.0, 1.0, 1.0])


def synthetic_point(ricci, g=MINK_G):
    return SimpleNamespace(n=len(g), g=g, g_inv=np.linalg.inv(g), ricci=ricci)


def field_for(chart, comps):
    return VectorField(components=tuple(
        parse(s, chart.coordinates, tuple(chart.params)) for s in comps))


def field_points(chart, points, field=None):
    """The ``FieldPoint`` of ``field`` (default: the chart's velocity) at
    each point, for the per-point kernels."""
    analysis = VelocityAnalysis(chart, field)
    return [analysis.at(p) for p in points]


def curl(chart, field, points):
    """Max over the points of the field's scale-free curl."""
    return max(fp.u_closed for fp in field_points(chart, points, field))


def potential(chart, field, base, target):
    """The line integral of a closed field from ``base`` to ``target``."""
    return _integrate_form(_field_integrand(chart, field), chart.n, base,
                           target.array(), QUAD_ORDER, QUAD_PANELS)


@pytest.fixture(scope="module")
def frw_dust():
    return catalog_get("frw-dust").chart


@pytest.fixture(scope="module")
def minkowski_chart():
    return compile_chart(ChartInput(
        name="mink", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1"},
        ranges={"t": (0.2, 0.8), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        velocity_field=["-1", "0", "0", "0"], basepoint=[0.2, 0, 0, 0]))


class TestFluidDecompose:
    def test_constructed_fluid_recovers(self):
        u = np.array([-1.0, 0, 0, 0])
        ricci = 2.0 * MINK_G + 5.0 * np.outer(u, u)
        np.testing.assert_allclose(np.diag(ricci), [3, 2, 2, 2])
        dec = fluid_decompose(synthetic_point(ricci))
        assert dec.a == pytest.approx(2.0, abs=1e-12)
        assert dec.b == pytest.approx(5.0, abs=1e-12)
        assert dec.u_up[0] > 0
        np.testing.assert_allclose(dec.u, u, atol=1e-12)
        assert dec.residual < 1e-14
        assert not dec.degenerate

    def test_einstein_degenerate(self):
        dec = fluid_decompose(synthetic_point(2.0 * MINK_G))
        assert dec.degenerate
        assert dec.b == 0.0
        assert dec.u is None
        assert dec.a == pytest.approx(2.0, abs=1e-12)

    def test_spacelike_anomaly(self):
        ricci = np.diag([-2.0, 5.0, 2.0, 2.0])
        with pytest.raises(SpacelikeAnomalyError):
            fluid_decompose(synthetic_point(ricci))

    def test_unclustered(self):
        ricci = np.diag([-1.0, 2.0, 3.0, 4.0])
        with pytest.raises(Exception):
            fluid_decompose(synthetic_point(ricci))

    def test_orientation_deterministic(self):
        u = np.array([-1.0, 0.3, 0, 0])
        u = u / math.sqrt(-u @ np.linalg.inv(MINK_G) @ u)
        ricci = 1.5 * MINK_G + 2.5 * np.outer(u, u)
        first = fluid_decompose(synthetic_point(ricci))
        second = fluid_decompose(synthetic_point(ricci))
        np.testing.assert_array_equal(first.u, second.u)
        assert first.u_up[0] > 0

    def test_orientation_tie_is_an_error(self):
        # time-like direction along the second coordinate: u^1 = 0 exactly
        g = np.diag([1.0, -1.0, 1.0, 1.0])
        u_up = np.array([0.0, 1.0, 0.0, 0.0])
        u = g @ u_up
        ricci = 1.5 * g + 2.5 * np.outer(u, u)
        with pytest.raises(OrientationTieError):
            fluid_decompose(synthetic_point(ricci, g=g))


@settings(max_examples=150, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5), phi=st.floats(-1, 1),
       eps=st.floats(-0.15, 0.15))
def test_decomposition_round_trip_property(a, b, phi, eps):
    """Any (A, B, unit timelike u) with |B| above the gap is recovered."""
    if abs(b) < 1e-3:
        return
    eta = np.diag([-1.0, 1, 1, 1])
    m = np.eye(4) + eps * np.array([[0.1, 0.4, -0.2, 0.3],
                                    [0.2, -0.1, 0.5, 0.1],
                                    [-0.3, 0.2, 0.1, -0.4],
                                    [0.1, -0.2, 0.3, 0.2]])
    g = m.T @ eta @ m
    minv = np.linalg.inv(m)
    u_up = minv @ np.array([math.cosh(phi), math.sinh(phi), 0.0, 0.0])
    u = g @ u_up
    assert u_up @ g @ u_up == pytest.approx(-1.0, abs=1e-12)
    if abs(u_up[0]) < 1e-6:
        return
    ricci = a * g + b * np.outer(u, u)
    dec = fluid_decompose(SimpleNamespace(n=4, g=g, g_inv=np.linalg.inv(g),
                                          ricci=ricci))
    assert not dec.degenerate
    assert dec.a == pytest.approx(a, abs=1e-10 * (1 + abs(a)))
    assert dec.b == pytest.approx(b, abs=1e-10 * (1 + abs(b)))
    sign = 1.0 if u_up[0] > 0 else -1.0
    np.testing.assert_allclose(dec.u, sign * u, atol=1e-9)


class TestScalarFields:
    """The scalar jets of ``FieldPoint``: A, B, gamma = (n-2) A + B, and
    mu and p at kappa = 1."""

    def test_frw_dust_jets_match_friedmann_oracle(self, frw_dust):
        analysis = VelocityAnalysis(frw_dust)
        h = 1e-5
        for p in sample_points(frw_dust, 5, seed=3):
            t = p.coords[0]
            fs = friedmann_scalars(2.0 / 3.0, t)
            ahead = friedmann_scalars(2.0 / 3.0, t + h)
            behind = friedmann_scalars(2.0 / 3.0, t - h)
            fp = analysis.at(p)
            for key, jet in (("gamma", fp.gamma_jet), ("mu", fp.mu_jet),
                             ("p", fp.p_jet)):
                assert float(jet.value) == pytest.approx(fs[key], rel=1e-10)
                slope = (ahead[key] - behind[key]) / (2.0 * h)
                assert abs(jet.grad[0] - slope) <= 1e-6 * (1.0 + abs(slope))
                assert np.all(jet.grad[1:] == 0.0), (key, jet.grad)

    def test_desitter_scalars(self):
        chart = catalog_get("desitter").chart
        analysis = VelocityAnalysis(chart)
        for p in sample_points(chart, 5, seed=1):
            fp = analysis.at(p)
            assert float(fp.a_jet.value) == pytest.approx(3.0, abs=1e-9)
            assert float(fp.b_jet.value) == pytest.approx(0.0, abs=1e-9)
            assert float(fp.gamma_jet.value) == pytest.approx(6.0, abs=1e-9)
            assert np.max(np.abs(fp.a_jet.grad)) < 1e-9
            assert np.max(np.abs(fp.gamma_jet.grad)) < 1e-9

    def test_einstein_static_scalars(self):
        chart = catalog_get("einstein-static").chart
        analysis = VelocityAnalysis(chart)
        for p in sample_points(chart, 5, seed=2):
            fp = analysis.at(p)
            assert float(fp.a_jet.value) == pytest.approx(2.0, abs=1e-9)
            assert float(fp.b_jet.value) == pytest.approx(2.0, abs=1e-9)
            assert float(fp.gamma_jet.value) == pytest.approx(6.0, abs=1e-9)

    def test_frw_dust_matches_friedmann_oracle(self, frw_dust):
        analysis = VelocityAnalysis(frw_dust)
        for p in sample_points(frw_dust, 5, seed=3):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            fp = analysis.at(p)
            assert float(fp.a_jet.value) == pytest.approx(fs["A"], rel=1e-10)
            assert float(fp.b_jet.value) == pytest.approx(fs["B"], rel=1e-10)


class TestClosedAndGeodesic:
    def test_constant_components_exactly_closed(self, frw_dust):
        report = certified(frw_dust, 5, 4, "hypotheses")
        assert report.find("u-closed").max_residual == 0.0

    def test_non_closed_field(self, minkowski_chart):
        field = field_for(minkowski_chart, ("-1", "t", "0", "0"))
        points = sample_points(minkowski_chart, 5, seed=5)
        resid = curl(minkowski_chart, field, points)
        # raw curl component is 1; scale-free denominator is 1 + max|du| = 2
        assert resid == pytest.approx(0.5, abs=1e-12)

    def test_decomposed_velocity_closed_on_catalog(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=6)
        for p in points:
            dec = fluid_decompose(curvature_at(frw_dust, p))
            np.testing.assert_allclose(dec.u, [-1, 0, 0, 0], atol=1e-9)
        report = certified(frw_dust, 5, 6, "hypotheses")
        assert report.find("u-closed").max_residual < 1e-9

    def test_grw_velocity_geodesic(self, frw_dust):
        report = certified(frw_dust, 5, 7, "physics")
        assert report.find("geodesic").max_residual < 1e-10

    def test_boosted_field_not_geodesic(self, minkowski_chart):
        field = field_for(minkowski_chart,
                          ("-1/sqrt(1-t^2)", "t/sqrt(1-t^2)", "0", "0"))
        points = sample_points(minkowski_chart, 10, seed=8)
        assert max(geodesic_at(fp) for fp in
                   field_points(minkowski_chart, points, field)) > 0.1


class TestTorseForming:
    def test_frw_dust_f_equals_qprime_over_q(self, frw_dust):
        analysis = VelocityAnalysis(frw_dust, frw_dust.velocity)
        for p in sample_points(frw_dust, 5, seed=9):
            fp = analysis.at(p)
            torse = torse_decompose(fp.nabla_u, fp.uv, fp.g, fp.g_inv,
                                    b=fp.b_jet.value,
                                    grad_gamma=np.array(fp.gamma_jet.grad))
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert torse.f == pytest.approx(fs["f"], rel=1e-9)
            assert torse.residual < 1e-9
            assert torse.f_cross_residual < 1e-9
            assert torse.alignment_residual < 1e-9

    def test_minkowski_constant_field(self, minkowski_chart):
        analysis = VelocityAnalysis(minkowski_chart, minkowski_chart.velocity)
        fp = analysis.at(ChartPoint((0.5, 0, 0, 0)))
        torse = torse_decompose(fp.nabla_u, fp.uv, fp.g, fp.g_inv)
        assert torse.f == 0.0
        assert torse.residual == 0.0

    def test_einstein_static_f_zero_with_nonzero_b(self):
        chart = catalog_get("einstein-static").chart
        analysis = VelocityAnalysis(chart, chart.velocity)
        for p in sample_points(chart, 3, seed=10):
            fp = analysis.at(p)
            torse = torse_decompose(fp.nabla_u, fp.uv, fp.g, fp.g_inv,
                                    b=fp.b_jet.value,
                                    grad_gamma=np.array(fp.gamma_jet.grad))
            assert abs(torse.f) < 1e-10
            assert fp.b_jet.value == pytest.approx(2.0, abs=1e-9)
            assert torse.f_cross_residual < 1e-9


class TestConcircular:
    def test_grw_omega_closed(self, frw_dust):
        # omega = (q'/q) u has components (-q'/q, 0, 0, 0), a function of t only
        field = field_for(frw_dust, ("-(2/3)/t", "0", "0", "0"))
        points = sample_points(frw_dust, 5, seed=11)
        assert curl(frw_dust, field, points) < 1e-12

    def test_constant_omega(self, minkowski_chart):
        field = field_for(minkowski_chart, ("0.7", "0", "0", "0"))
        points = sample_points(minkowski_chart, 5, seed=12)
        assert curl(minkowski_chart, field, points) == 0.0

    def test_non_closed_omega(self, minkowski_chart):
        field = field_for(minkowski_chart, ("0", "z", "0", "0"))
        points = sample_points(minkowski_chart, 5, seed=13)
        resid = curl(minkowski_chart, field, points)
        assert resid == pytest.approx(0.5, abs=1e-12)
        # raw curl entry d_4 w_2 - d_2 w_4 = 1
        comps = [parse(s, minkowski_chart.coordinates) for s in
                 ("0", "z", "0", "0")]
        from .oracles import eval_jet3
        jet = eval_jet3(comps[1], (0.3, 0.1, 0.2, 0.4), {})
        assert jet.grad[3] == 1.0


class TestReconstructPotential:
    def test_dt_integrates_to_t(self):
        chart = compile_chart(ChartInput(
            name="mink-wide", dimension=4, signature="lorentzian",
            coordinates=["t", "x", "y", "z"],
            metric={"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1"},
            ranges={"t": (0, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}))
        field = field_for(chart, ("1", "0", "0", "0"))
        target = ChartPoint((2.0, 0.5, -0.5, 0.25))
        pot = potential(chart, field, (0, 0, 0, 0), target)
        assert pot.value == pytest.approx(2.0, abs=1e-12)
        assert pot.path_defect < 1e-12

    def test_grw_log_warp_potential(self, frw_dust):
        # omega = f u = (-q'/q) dt integrates to -ln q
        field = field_for(frw_dust, ("-(2/3)/t", "0", "0", "0"))
        for p in sample_points(frw_dust, 5, seed=14):
            pot = potential(frw_dust, field, frw_dust.basepoint, p)
            t = p.coords[0]
            assert pot.value == pytest.approx(-math.log(t ** (2.0 / 3.0)),
                                              abs=1e-10)
            assert pot.path_defect < 1e-10

    def test_two_orderings_agree_on_closed_form(self, minkowski_chart):
        field = field_for(minkowski_chart, ("x", "t", "0", "0"))  # d(tx)
        target = ChartPoint((0.7, 0.9, 0.1, -0.3))
        pot = potential(minkowski_chart, field, (0.2, 0, 0, 0), target)
        assert pot.value == pytest.approx(0.7 * 0.9 - 0.0, abs=1e-11)
        assert pot.path_defect < 1e-10

    def test_not_closed_rejected(self, minkowski_chart):
        # soliton_at integrates the field's own potential, theta.
        field = field_for(minkowski_chart, ("0", "z", "0", "0"))
        [fp] = field_points(minkowski_chart,
                            [ChartPoint((0.5, 0.5, 0.5, 0.5))], field)
        with pytest.raises(NotClosedError):
            soliton_at(fp, (0.2, 0, 0, 0))


def dense_pullback_chart(seed=5):
    """frw-dust pulled back through x = A y + b, A = I + O(0.1): every
    metric component is non-zero. The basepoint sits at mapped t ~ 1.5."""
    rng = np.random.default_rng(seed)
    a = np.eye(4) + rng.uniform(-0.1, 0.1, (4, 4))
    b = rng.uniform(-0.1, 0.1, 4)
    t = ("(" + " + ".join(f"({float(a[0, k])!r})*{c}"
                          for k, c in enumerate("txyz"))
         + f" + ({float(b[0])!r}))")
    metric = {}
    for k in range(4):
        for l in range(k, 4):
            space = float(a[1:, k] @ a[1:, l])
            metric[f"{k + 1},{l + 1}"] = (
                f"({space!r})*{t}^(4/3) + ({float(-a[0, k] * a[0, l])!r})")
    return compile_chart(ChartInput(
        name="frw-dust-dense", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"], metric=metric,
        ranges={"t": (0.5, 2.7), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        exclusions=[(f"({t} - 1)*(2 - {t})", 0.0)],
        velocity_field=[repr(float(-a[0, k])) for k in range(4)],
        basepoint=(1.5, 0.0, 0.0, 0.0)))


class TestBatchedQuadrature:
    """One integrand call per potential gives the per-node rule's numbers
    exactly, and its errors."""

    CHARTS = ["frw-dust", "grw5-sphere", "dense-pullback"]

    @staticmethod
    def integrands(name):
        chart = (dense_pullback_chart() if name == "dense-pullback"
                 else catalog_get(name).chart)
        field = chart.velocity
        return chart, (
            (_omega_integrand(chart, field),
             lambda x: omega_per_node(chart, field, x)),
            (_field_integrand(chart, field),
             lambda x: [eval_value(c, tuple(x), chart.params)
                        for c in field.components]),
        )

    @pytest.mark.parametrize("name", CHARTS)
    def test_matches_per_node_oracle(self, name):
        chart, integrands = self.integrands(name)
        base = np.asarray(chart.basepoint)
        for p in sample_points(chart, 2, seed=4):
            for batched, per_node in integrands:
                got = _integrate_form(batched, chart.n, base, p.array(), 8, 4)
                assert (got.value, got.path_defect, got.refinement_error) \
                    == integrate_per_node(per_node, chart.n, base, p.array())

    @pytest.mark.parametrize("name", CHARTS)
    def test_segment_matches_staircase(self, name):
        # An independent path on numpy's Gauss nodes: the descending
        # staircase, one integrand row per node.
        chart, integrands = self.integrands(name)
        base = np.asarray(chart.basepoint)
        for p in sample_points(chart, 2, seed=4):
            for batched, _ in integrands:
                sigma = _integrate_form(batched, chart.n, base, p.array(),
                                        QUAD_ORDER, QUAD_PANELS).value
                stair = staircase_per_node(
                    lambda x: batched(x[None])[0], base, p.array(),
                    tuple(reversed(range(chart.n))), QUAD_ORDER,
                    2 * QUAD_PANELS)
                assert abs(sigma - stair) <= 1e-12 * (1.0 + abs(sigma))

    def test_gauss_nodes_match_numpy(self):
        nodes, weights = _leggauss(QUAD_ORDER)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
        assert np.max(np.abs(weights - want_weights)) <= 1e-15

    def test_one_integrand_call_per_potential(self, frw_dust):
        # Coarse and fine segment, then both legs of the corner path.
        calls = []
        integrand = _field_integrand(frw_dust, frw_dust.velocity)

        def counted(x):
            calls.append(x.shape)
            return integrand(x)

        target = sample_points(frw_dust, 1, seed=0)[0].array()
        _integrate_form(counted, 4, frw_dust.basepoint, target, QUAD_ORDER,
                        QUAD_PANELS)
        assert calls == [(7 * QUAD_ORDER * QUAD_PANELS, 4)]

    def test_bad_path_keeps_per_node_error(self):
        # Sampled points avoid t <= 0.5, but the segment from the
        # basepoint at t = 0.1 crosses sqrt's domain edge at t = 0.2.
        chart = compile_chart(ChartInput(
            name="frw-dust-sqrt", dimension=4, signature="lorentzian",
            coordinates=["t", "x", "y", "z"],
            metric={"1,1": "-1", "2,2": "t^(4/3)*sqrt(t-0.2)",
                    "3,3": "t^(4/3)", "4,4": "t^(4/3)"},
            ranges={"t": (0.1, 2), "x": (-1, 1), "y": (-1, 1),
                    "z": (-1, 1)},
            exclusions=[("t - 0.5", 0.0)],
            velocity_field=["-1", "0", "0", "0"],
            basepoint=(0.1, 0.0, 0.0, 0.0)))
        target = sample_points(chart, 1, seed=0)[0].array()
        field = chart.velocity
        with pytest.raises(EvalDomainError) as per_node:
            integrate_per_node(lambda x: omega_per_node(chart, field, x),
                               chart.n, chart.basepoint, target)
        with pytest.raises(EvalDomainError) as batched:
            _integrate_form(_omega_integrand(chart, field), chart.n,
                            chart.basepoint, target, 8, 4)
        assert str(batched.value) == str(per_node.value)
        assert str(batched.value).startswith("sqrt at offset 8: argument ")
        report = run_certify(chart, RunConfig(points=1, seed=0))
        chen = next(r for r in report.checks if r.name == "chen-vector")
        assert chen.detail["error"] == (
            f"point 0: path from basepoint: {per_node.value}")


def chen_rows(chart, points):
    """``chen_at`` at each point, sigma integrated from the chart's
    basepoint."""
    return [chen_at(fp, chart.basepoint) for fp in field_points(chart, points)]


class TestChen:
    def test_frw_dust_chen_and_ckv(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=15)
        rows = chen_rows(frw_dust, points)
        assert max(row.chen_residual for row in rows) < 1e-10
        assert max(row.ckv_residual for row in rows) < 1e-10
        assert max(row.omega_closed for row in rows) < 1e-12
        assert max(row.path_defect for row in rows) < 1e-10
        assert all(row.proper for row in rows)
        for row, p in zip(rows, points):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert row.rho == pytest.approx(fs["qp"], rel=1e-10)
            # X is time-like with X.X = -e^{-2 sigma}
            assert row.timelike_residual < 1e-10
            assert row.x[0] == pytest.approx(-fs["q"], rel=1e-10)

    def test_desitter_ckv_gradient_matches_second_derivative(self):
        chart = catalog_get("desitter").chart
        points = sample_points(chart, 3, seed=16)
        rows = chen_rows(chart, points)
        # rho = q' = e^t and d_t rho = q'' = e^t = (A-B)/(1-n) X_1
        for row, p in zip(rows, points):
            assert row.chen_residual < 1e-10
            assert row.ckv_residual < 1e-10
            assert row.rho == pytest.approx(math.exp(p.coords[0]), rel=1e-10)

    def test_einstein_static_homothetic(self):
        chart = catalog_get("einstein-static").chart
        rows = chen_rows(chart, sample_points(chart, 3, seed=17))
        for row in rows:
            assert not row.proper
            assert abs(row.rho) < 1e-10
            assert row.grad_rho_norm < 1e-10

    def test_minkowski_all_zero(self, minkowski_chart):
        rows = chen_rows(minkowski_chart,
                         sample_points(minkowski_chart, 3, seed=18))
        for row in rows:
            assert row.chen_residual < 1e-12
            assert row.ckv_residual < 1e-12
            assert not row.proper

    def test_refusals_name_the_point(self):
        # The kernels refuse with the text that the report prefixes with
        # the point's run index.
        chart = compile_chart(ChartInput(
            name="frw-dust-sheared", dimension=4, signature="lorentzian",
            coordinates=["t", "x", "y", "z"],
            metric={"1,1": "-1", "2,2": "t^(4/3)", "3,3": "t^(4/3)",
                    "4,4": "t^(4/3)"},
            ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
            velocity_field=["-1", "0.3*y", "0", "0"],
            basepoint=[1, 0, 0, 0]))
        [fp] = field_points(chart, sample_points(chart, 1, seed=19))
        with pytest.raises(NotClosedError) as chen:
            chen_at(fp, chart.basepoint)
        assert str(chen.value).startswith("ω not closed (residual ")
        with pytest.raises(NotClosedError) as soliton:
            soliton_at(fp, chart.basepoint)
        assert str(soliton.value).startswith("u not closed (residual ")
        report = run_certify(chart, RunConfig(points=1, seed=19))
        for name, refusal in (("chen-vector", chen), ("soliton-form", soliton)):
            assert report.find(name).detail["error"] \
                == f"point 0: {refusal.value}"


class TestWeylElectric:
    def test_frw_dust_both_residuals(self, frw_dust):
        analysis = VelocityAnalysis(frw_dust, frw_dust.velocity)
        for p in sample_points(frw_dust, 5, seed=19):
            fp = analysis.at(p)
            result = weyl_electric_check(fp.stack.to_point(), fp.uv)
            assert result.electric_residual < 1e-8
            assert result.weyl_norm < 1e-8  # n = 4: conformally flat

    def test_minkowski_zero(self, minkowski_chart):
        cp = curvature_at(minkowski_chart, ChartPoint((0.5, 0, 0, 0)))
        result = weyl_electric_check(cp, np.array([-1.0, 0, 0, 0]))
        assert result.electric_residual == 0.0

    def test_grw5_sphere_fiber_electric(self):
        chart = catalog_get("grw5-sphere").chart
        analysis = VelocityAnalysis(chart, chart.velocity)
        for p in sample_points(chart, 5, seed=20):
            fp = analysis.at(p)
            result = weyl_electric_check(fp.stack.to_point(), fp.uv)
            assert result.electric_residual < 1e-8

    def test_einstein_but_not_constant_curvature_fiber(self):
        # S^2 x S^2 fiber: Einstein yet not a space form, so the warped
        # product has a genuinely nonzero Weyl tensor that u annihilates.
        from grwcert.grw import FiberMetric, WarpSpec, build_grw
        hi = math.pi - 0.3
        fiber = FiberMetric.from_input(ChartInput(
            name="s2xs2", dimension=4, signature="riemannian",
            coordinates=["theta", "phi", "alpha", "beta"],
            metric={"1,1": "1", "2,2": "sin(theta)^2", "3,3": "1",
                    "4,4": "sin(alpha)^2"},
            ranges={"theta": (0.3, hi), "phi": (0, 6.2),
                    "alpha": (0.3, hi), "beta": (0, 6.2)}))
        chart = build_grw(WarpSpec("t^2"), fiber, name="grw5-s2xs2",
                          t_range=(1, 2))
        analysis = VelocityAnalysis(chart, chart.velocity)
        norms = []
        for p in sample_points(chart, 5, seed=21):
            fp = analysis.at(p)
            result = weyl_electric_check(fp.stack.to_point(), fp.uv)
            assert result.electric_residual < 1e-8
            norms.append(result.weyl_norm)
        assert max(norms) > 1e-3


class TestIdentityLadder:
    def test_frw_dust_all_nine(self, frw_dust):
        report = certified(frw_dust, 5, 22, "ladder")
        ladder = [rec for rec in report.checks if rec.group == "ladder"]
        assert {rec.name for rec in ladder} == {
            "bianchi-contract", "ricci-curl", "b-transport",
            "b-transport-half", "gamma-comoving", "b-comoving",
            "torse-source", "bu-closed", "gamma-aligned"}
        assert max(rec.max_residual for rec in ladder) < 1e-7

    def test_minkowski_identically_zero(self, minkowski_chart):
        report = certified(minkowski_chart, 3, 23, "ladder")
        for name in LADDER_NAMES:
            assert report.find(name).max_residual == 0.0, name

    def test_perturbed_b_negative_control(self, frw_dust):
        # B + 0.1 x^2 is no longer comoving: gamma = (n-2) A + B moves
        # with it, and the contracted Bianchi identity fails.
        perturb = parse("0.1*x^2", frw_dust.coordinates)
        worst = 0.0
        for fp in field_points(frw_dust, sample_points(frw_dust, 5, seed=24)):
            b_jet = fp.b_jet + eval_jet3((perturb,), fp.point,
                                         frw_dust.params).at(0)
            perturbed = replace(fp, b_jet=b_jet,
                                gamma_jet=fp.a_jet * float(fp.n - 2) + b_jet)
            worst = max(worst,
                        ladder_residuals_at(perturbed)["bianchi-contract"])
        assert worst > 1e-2

    def test_ladder_from_hypotheses_across_catalog(self):
        # hypothesis residuals < 1e-9 force ladder residuals < 1e-7
        for name in ("frw-dust", "frw-rad", "frw-k+1", "frw-k-1",
                     "einstein-static", "grw5-sphere"):
            report = certified(catalog_get(name).chart, 5, 25,
                               "hypotheses", "ladder")
            assert report.find("u-closed").max_residual < 1e-9, name
            for rung in LADDER_NAMES:
                assert report.find(rung).max_residual < 1e-7, (name, rung)


def soliton_rows(chart, points):
    """Columns (residual, lam, eta, theta) of ``soliton_at`` over the
    points, theta integrated from the chart's basepoint."""
    return zip(*(soliton_at(fp, chart.basepoint)
                 for fp in field_points(chart, points)))


def gradient_soliton(lams, etas):
    """A constant lam and a vanishing eta, to 1e-7."""
    return max(lams) - min(lams) < 1e-7 and max(map(abs, etas)) < 1e-7


class TestSolitonForm:
    def test_frw_dust(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=26)
        residuals, lams, etas, thetas = soliton_rows(frw_dust, points)
        assert max(residuals) < 1e-7
        assert not gradient_soliton(lams, etas)
        for theta, p in zip(thetas, points):
            assert theta == pytest.approx(-(p.coords[0] - 1.0), abs=1e-10)

    def test_minkowski_flat_soliton(self, minkowski_chart):
        points = sample_points(minkowski_chart, 3, seed=27)
        residuals, lams, etas, _ = soliton_rows(minkowski_chart, points)
        assert max(residuals) < 1e-12
        assert max(abs(v) for v in lams) < 1e-12
        assert max(abs(v) for v in etas) < 1e-12

    def test_einstein_static_constants(self):
        chart = catalog_get("einstein-static").chart
        points = sample_points(chart, 3, seed=28)
        residuals, lams, etas, _ = soliton_rows(chart, points)
        assert max(residuals) < 1e-9
        for lam, eta in zip(lams, etas):
            assert lam == pytest.approx(2.0, abs=1e-9)
            assert eta == pytest.approx(2.0, abs=1e-9)
        assert not gradient_soliton(lams, etas)
