import copy
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwcert import certify, classify
from grwcert.certify import (CHUNK_POINTS, RunConfig, _point_payload,
                             run_certify)
from grwcert.chart import ChartInput, ChartPoint, compile_chart, sample_points
from grwcert.classify import (ANOMALOUS, DEGENERATE as SPLIT_DEGENERATE,
                              NONDEGENERATE, QUAD_ORDER, QUAD_PANELS,
                              REFINE_TOL, VelocityAnalysis, fluid_decompose,
                              geodesic_at, ladder_residuals_at, not_closed,
                              torse_at, weyl_electric_at,
                              _chen_point, _integrate_form, _leggauss,
                              _omega_integrand, _soliton_residual_at)
from grwcert.curvature import JetStack, SingularMetricError, scale_free_at
from grwcert.expr import EvalDomainError, eval_jet3_batch, parse
from grwcert.jets import TensorJet
from grwcert.grw import catalog_get, catalog_names
from grwcert.physics import homothetic
from grwcert.report import DEGENERATE

from .conftest import LADDER_RUNGS, certified
from .oracles import (_field_integrand, eval_value, friedmann_scalars,
                      integrate_per_node, leg_rows, omega_per_node,
                      segment_reference, staircase_per_node)

MINK_G = np.diag([-1.0, 1.0, 1.0, 1.0])


def synthetic_chunk(riccis, gs):
    """A CurvaturePoint-like batch of the given Ricci tensors and metrics."""
    g = np.array(gs)
    return SimpleNamespace(n=g.shape[-1], g=g, g_inv=np.linalg.inv(g),
                           ricci=np.array(riccis))


def synthetic_point(ricci, g=MINK_G):
    """A batch of one point."""
    return synthetic_chunk([ricci], [g])


def field_for(chart, comps):
    return tuple(parse(s, chart.coordinates, tuple(chart.params))
                 for s in comps)


def field_points(chart, points, field=None):
    """The batched ``FieldPoint`` of ``field`` (default: the chart's
    velocity) at the points, for the kernels."""
    return VelocityAnalysis(chart, field).at(points)


def curl(chart, field, points):
    """Max over the points of the field's scale-free curl."""
    return max(field_points(chart, points, field).u_closed)


def per_target(columns):
    """Each target's result in the columns of one ``_integrate_form``
    call: its value and path defect, or its refusal text."""
    value, defect, refused = columns
    return [refused.get(i) or SimpleNamespace(value=v, path_defect=d)
            for i, (v, d) in enumerate(zip(value, defect))]


def sigma_at(integrand, n, base, target):
    """``_integrate_form`` at one target: its value and path defect, or
    its refusal text."""
    return per_target(_integrate_form(integrand, n, base, [target]))[0]


def result_bits(result):
    """A target's value and path defect as bytes, or its refusal text."""
    if isinstance(result, str):
        return result
    return [np.float64(v).tobytes() for v in (result.value,
                                              result.path_defect)]


def counting(integrand):
    """The integrand, and the shapes of the rows of each of its calls."""
    calls = []

    def counted(x):
        calls.append(x.shape)
        return integrand(x)

    return counted, calls


def potential(chart, field, base, target):
    """The line integral of a closed field from ``base`` to ``target``."""
    return sigma_at(_field_integrand(chart, field), chart.n, base,
                    target.array())


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


# The one-point cases of the eigen-split, as (Ricci, g): what each point
# must give is asserted by TestFluidDecompose, one point per batch, and by
# test_mixed_chunk, all of them in one batch.
_U = np.array([-1.0, 0.3, 0, 0]) / math.sqrt(1.0 - 0.3 ** 2)
_TIE_G = np.diag([1.0, -1.0, 1.0, 1.0])
_TIE_U = _TIE_G @ np.array([0.0, 1.0, 0.0, 0.0])
SPLIT_CASES = {
    "einstein": (2.0 * MINK_G, MINK_G),
    "low": (2.0 * MINK_G + 5.0 * np.outer([-1.0, 0, 0, 0], [-1.0, 0, 0, 0]),
            MINK_G),
    "high": (2.0 * MINK_G - 5.0 * np.outer(_U, _U), MINK_G),
    "complex": (np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
                          [0, 0, 0, 0]]), MINK_G),
    "unclustered": (np.diag([-1.0, 2.0, 3.0, 4.0]), MINK_G),
    "spacelike": (np.diag([-2.0, 5.0, 2.0, 2.0]), MINK_G),
    "tie": (1.5 * _TIE_G + 2.5 * np.outer(_TIE_U, _TIE_U), _TIE_G),
    "oriented": (1.5 * MINK_G + 2.5 * np.outer(_U, _U), MINK_G),
}


def split_of(case):
    """The eigen-split of one SPLIT_CASES entry, as a batch of one."""
    return fluid_decompose(synthetic_point(*SPLIT_CASES[case]))


class TestFluidDecompose:
    def test_constructed_fluid_recovers(self):
        u = np.array([-1.0, 0, 0, 0])
        ricci, g = SPLIT_CASES["low"]
        np.testing.assert_allclose(np.diag(ricci), [3, 2, 2, 2])
        dec = split_of("low")
        assert dec.a[0] == pytest.approx(2.0, abs=1e-12)
        assert dec.b[0] == pytest.approx(5.0, abs=1e-12)
        assert dec.u_up[0, 0] > 0
        np.testing.assert_allclose(g @ dec.u_up[0], u, atol=1e-12)
        assert dec.residual[0] < 1e-14
        assert dec.branch[0] == NONDEGENERATE and dec.error == [None]

    def test_einstein_degenerate(self):
        dec = split_of("einstein")
        assert dec.branch[0] == SPLIT_DEGENERATE
        assert dec.b[0] == 0.0
        assert not dec.u_up[0].any()        # no velocity
        assert dec.a[0] == pytest.approx(2.0, abs=1e-12)

    def test_spacelike_anomaly(self):
        dec = split_of("spacelike")
        assert dec.branch[0] == ANOMALOUS
        assert dec.error[0] == ("distinguished eigendirection has "
                                "g(v, v) = 1 >= 0")

    def test_unclustered(self):
        dec = split_of("unclustered")
        assert dec.branch[0] == ANOMALOUS
        assert dec.error[0] == (
            "eigenvalues [1. 2. 3. 4.] match neither an Einstein point "
            "nor an (n-1)+1 split at tolerance 1e-06")

    def test_orientation_deterministic(self):
        ricci, g = SPLIT_CASES["oriented"]
        first, second = split_of("oriented"), split_of("oriented")
        np.testing.assert_array_equal(g @ first.u_up[0], g @ second.u_up[0])
        assert first.u_up[0, 0] > 0

    def test_orientation_tie_is_an_error(self):
        # time-like direction along the second coordinate: u^1 = 0 exactly
        dec = split_of("tie")
        assert dec.branch[0] == ANOMALOUS
        assert dec.error[0] == "u^1 = 0; cannot orient the velocity"

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        """The shapes ``np.linalg.eig`` is called on."""
        calls = []
        eig = np.linalg.eig

        def counted(m):
            calls.append(m.shape)
            return eig(m)

        monkeypatch.setattr(np.linalg, "eig", counted)
        return calls

    def test_mixed_chunk(self, eig_calls):
        # Every branch in one batch, with one eig call: each point gets the
        # bits and the message of its batch of one.
        riccis, gs = zip(*SPLIT_CASES.values())
        dec = fluid_decompose(synthetic_chunk(riccis, gs))
        assert eig_calls == [(len(SPLIT_CASES), 4, 4)]
        assert list(dec.branch) == [
            SPLIT_DEGENERATE, NONDEGENERATE, NONDEGENERATE, ANOMALOUS,
            ANOMALOUS, ANOMALOUS, ANOMALOUS, NONDEGENERATE]
        assert dec.error[3] == "complex eigenvalues of R^i_j (max imag 1.000e+00)"
        # The high split: A = 2 on the cluster, A - B = 7 on u.
        i = list(SPLIT_CASES).index("high")
        assert (dec.a[i], dec.b[i]) == pytest.approx((2.0, -5.0), abs=1e-12)
        np.testing.assert_allclose(MINK_G @ dec.u_up[i], _U, atol=1e-12)
        for i, case in enumerate(SPLIT_CASES):
            one = split_of(case)
            assert dec.branch[i] == one.branch[0], case
            assert dec.error[i] == one.error[0], case
            if dec.branch[i] != ANOMALOUS:
                for key in ("a", "b", "u_up", "residual"):
                    assert getattr(dec, key)[i].tobytes() \
                        == getattr(one, key)[0].tobytes(), (case, key)

    def test_one_eig_call_per_chunk(self, eig_calls, frw_dust):
        run_certify(frw_dust, RunConfig(points=CHUNK_POINTS + 3, seed=5))
        assert eig_calls == [(CHUNK_POINTS, 4, 4), (3, 4, 4)]


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
    dec = fluid_decompose(synthetic_point(ricci, g))
    assert dec.branch[0] == NONDEGENERATE
    assert dec.a[0] == pytest.approx(a, abs=1e-10 * (1 + abs(a)))
    assert dec.b[0] == pytest.approx(b, abs=1e-10 * (1 + abs(b)))
    sign = 1.0 if u_up[0] > 0 else -1.0
    np.testing.assert_allclose(g @ dec.u_up[0], sign * u, atol=1e-9)


class TestScalarFields:
    """The scalar jets of ``FieldPoint``: A, B, gamma = (n-2) A + B, and
    mu and p at kappa = 1."""

    def test_frw_dust_jets_match_friedmann_oracle(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=3)
        batch = VelocityAnalysis(frw_dust).at(points)
        h = 1e-5
        for i, p in enumerate(points):
            t = p.coords[0]
            fs = friedmann_scalars(2.0 / 3.0, t)
            ahead = friedmann_scalars(2.0 / 3.0, t + h)
            behind = friedmann_scalars(2.0 / 3.0, t - h)
            for key, jet in (("gamma", batch.gamma_jet), ("mu", batch.mu_jet),
                             ("p", batch.p_jet)):
                value, grad = jet.value[i], jet.grad[i]
                assert value == pytest.approx(fs[key], rel=1e-10)
                slope = (ahead[key] - behind[key]) / (2.0 * h)
                assert abs(grad[0] - slope) <= 1e-6 * (1.0 + abs(slope))
                assert np.all(grad[1:] == 0.0), (key, grad)

    def test_desitter_scalars(self):
        chart = catalog_get("desitter").chart
        fp = VelocityAnalysis(chart).at(sample_points(chart, 5, seed=1))
        for i in range(5):
            assert fp.a_jet.value[i] == pytest.approx(3.0, abs=1e-9)
            assert fp.b_jet.value[i] == pytest.approx(0.0, abs=1e-9)
            assert fp.gamma_jet.value[i] == pytest.approx(6.0, abs=1e-9)
            assert np.max(np.abs(fp.a_jet.grad[i])) < 1e-9
            assert np.max(np.abs(fp.gamma_jet.grad[i])) < 1e-9

    def test_einstein_static_scalars(self):
        chart = catalog_get("einstein-static").chart
        fp = VelocityAnalysis(chart).at(sample_points(chart, 5, seed=2))
        for i in range(5):
            assert fp.a_jet.value[i] == pytest.approx(2.0, abs=1e-9)
            assert fp.b_jet.value[i] == pytest.approx(2.0, abs=1e-9)
            assert fp.gamma_jet.value[i] == pytest.approx(6.0, abs=1e-9)
            assert fp.mu_jet.value[i] == pytest.approx(3.0, abs=1e-9)
            assert fp.p_jet.value[i] == pytest.approx(-1.0, abs=1e-9)

    def test_frw_dust_matches_friedmann_oracle(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=3)
        fp = VelocityAnalysis(frw_dust).at(points)
        for i, p in enumerate(points):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert fp.a_jet.value[i] == pytest.approx(fs["A"], rel=1e-10)
            assert fp.b_jet.value[i] == pytest.approx(fs["B"], rel=1e-10)


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
        cp = JetStack(frw_dust, sample_points(frw_dust, 5, seed=6)).to_point()
        dec = fluid_decompose(cp)
        for g, u_up in zip(cp.g, dec.u_up):
            np.testing.assert_allclose(g @ u_up, [-1, 0, 0, 0], atol=1e-9)
        report = certified(frw_dust, 5, 6, "hypotheses")
        assert report.find("u-closed").max_residual < 1e-9

    def test_grw_velocity_geodesic(self, frw_dust):
        report = certified(frw_dust, 5, 7, "physics")
        assert report.find("geodesic").max_residual < 1e-10

    def test_boosted_field_not_geodesic(self, minkowski_chart):
        field = field_for(minkowski_chart,
                          ("-1/sqrt(1-t^2)", "t/sqrt(1-t^2)", "0", "0"))
        points = sample_points(minkowski_chart, 10, seed=8)
        assert max(geodesic_at(
            field_points(minkowski_chart, points, field))) > 0.1


class TestTorseForming:
    def test_frw_dust_f_equals_qprime_over_q(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=9)
        fp = VelocityAnalysis(frw_dust, frw_dust.velocity).at(points)
        for p, f, residual, alignment, f_cross in zip(
                points, fp.f_jet.value, *torse_at(fp)):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert f == pytest.approx(fs["f"], rel=1e-9)
            assert residual < 1e-9
            assert f_cross < 1e-9
            assert alignment < 1e-9

    def test_minkowski_constant_field(self, minkowski_chart):
        analysis = VelocityAnalysis(minkowski_chart, minkowski_chart.velocity)
        fp = analysis.at([ChartPoint((0.5, 0, 0, 0))])
        [residual], [alignment], [f_cross] = torse_at(fp)
        assert fp.f_jet.value[0] == 0.0
        assert residual == 0.0
        assert alignment == 0.0
        assert math.isnan(f_cross)      # B = 0: the cross formula is undefined

    def test_einstein_static_f_zero_with_nonzero_b(self):
        chart = catalog_get("einstein-static").chart
        fp = VelocityAnalysis(chart, chart.velocity).at(
            sample_points(chart, 3, seed=10))
        for f, b, f_cross in zip(fp.f_jet.value, fp.b_jet.value,
                                 torse_at(fp)[2]):
            assert abs(f) < 1e-10
            assert b == pytest.approx(2.0, abs=1e-9)
            assert f_cross < 1e-9

    def test_sheared_velocity_misaligned(self, frw_dust):
        # u = -dt + 0.3 y dx is neither unit nor torse-forming: the
        # misalignment (nabla_k u_j) u^j = f u - omega is read off the
        # FieldPoint's omega and agrees with its direct contraction.
        field = field_for(frw_dust, ("-1", "0.3*y", "0", "0"))
        fp = field_points(frw_dust, sample_points(frw_dust, 3, seed=9), field)
        for nabla, u_up, residual, alignment in zip(
                fp.nabla_u, fp.uupv, *torse_at(fp)[:2]):
            direct = nabla @ u_up
            assert alignment > 1e-3 and residual > 1e-3
            assert alignment == pytest.approx(
                np.max(np.abs(direct)) / (1 + np.max(np.abs(nabla))),
                rel=1e-12)


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

    def test_frw_dust_theta(self, frw_dust):
        # theta, the potential of u = -dt from the basepoint at t = 1.
        for p in sample_points(frw_dust, 5, seed=26):
            pot = potential(frw_dust, frw_dust.velocity, frw_dust.basepoint, p)
            assert pot.value == pytest.approx(-(p.coords[0] - 1.0), abs=1e-10)

    def test_not_closed_rejected(self, minkowski_chart):
        # A field that has no potential theta is refused: soliton-form
        # names the point and the field's curl.
        chart = copy.copy(minkowski_chart)
        chart.velocity = field_for(chart, ("0", "z", "0", "0"))
        points = sample_points(chart, 1, seed=0)
        u_closed = field_points(chart, points).u_closed
        assert u_closed[0] > 1e-6
        report = run_certify(chart, RunConfig(points=1, seed=0))
        assert report.find("soliton-form").detail["error"] == (
            f"point 0: {not_closed('u', u_closed[0])}")


def dense_pullback_chart(seed=5):
    """frw-dust pulled back through x = A y + b, A = I + O(0.1): every
    metric component is non-zero. The basepoint sits at mapped t ~ 1.5."""
    return compile_chart(dense_pullback_input(seed))


def dense_pullback_input(seed=5):
    """The uncompiled description of ``dense_pullback_chart(seed)``."""
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
    return ChartInput(
        name="frw-dust-dense", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"], metric=metric,
        ranges={"t": (0.5, 2.7), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        exclusions=[(f"({t} - 1)*(2 - {t})", 0.0)],
        velocity_field=[repr(float(-a[0, k])) for k in range(4)],
        basepoint=(1.5, 0.0, 0.0, 0.0))


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
                        for c in field]),
        )

    @pytest.mark.parametrize("name", CHARTS)
    def test_matches_per_node_oracle(self, name):
        chart, integrands = self.integrands(name)
        base = np.asarray(chart.basepoint)
        targets = [p.array() for p in sample_points(chart, 2, seed=4)]
        for batched, per_node in integrands:
            chunk = _integrate_form(batched, chart.n, base, targets)
            for got, target in zip(per_target(chunk), targets):
                assert (got.value, got.path_defect) == integrate_per_node(
                    per_node, chart.n, base, target)[:2]

    @pytest.mark.parametrize("name", CHARTS + ["frw-k+1", "frw-k-1"])
    def test_integrand_is_the_field_point_formula(self, name):
        # sigma's integrand forms omega with the FieldPoint's function at
        # order 0: the same bits at the same points.
        chart, _ = self.integrands(name)
        points = sample_points(chart, 10, seed=0)
        omega = VelocityAnalysis(chart).at(points).omega.value
        rows = _omega_integrand(chart, chart.velocity)(
            np.array([p.coords for p in points]))
        for i in range(len(points)):
            assert rows[i].tobytes() == omega[i].tobytes()

    @pytest.mark.parametrize("name", CHARTS)
    def test_segment_matches_staircase(self, name):
        # An independent path on numpy's Gauss nodes: the descending
        # staircase, one integrand row per node.
        chart, integrands = self.integrands(name)
        base = np.asarray(chart.basepoint)
        for p in sample_points(chart, 2, seed=4):
            for batched, _ in integrands:
                sigma = sigma_at(batched, chart.n, base, p.array()).value
                stair = staircase_per_node(
                    lambda x: batched(x[None])[0], base, p.array(),
                    tuple(reversed(range(chart.n))), QUAD_ORDER,
                    2 * QUAD_PANELS[-1])
                assert abs(sigma - stair) <= 1e-12 * (1.0 + abs(sigma))

    def test_gauss_nodes_match_numpy(self):
        nodes, weights = _leggauss(QUAD_ORDER)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
        assert np.max(np.abs(weights - want_weights)) <= 1e-15

    def test_one_integrand_call_per_potential(self, frw_dust):
        # Coarse and fine segment, then both legs of the corner path, on
        # the ladder's first rung, where frw-dust converges.
        counted, calls = counting(_field_integrand(frw_dust,
                                                   frw_dust.velocity))
        target = sample_points(frw_dust, 1, seed=0)[0].array()
        sigma_at(counted, 4, frw_dust.basepoint, target)
        assert calls == [(7 * QUAD_ORDER * QUAD_PANELS[0], 4)]

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
        assert str(per_node.value).startswith("sqrt at offset 8: argument ")
        # The target's rows open with the first rung's coarse segment: its
        # first row at or below the domain edge is the one named.
        segment = leg_rows(np.asarray(chart.basepoint), target, QUAD_PANELS[0])
        row = int(np.argmax(segment[:, 0] - 0.2 <= 0.0))
        assert segment[row, 0] - 0.2 <= 0.0
        value, defect, refused = _integrate_form(
            _omega_integrand(chart, field), chart.n, chart.basepoint, [target])
        assert refused == {0: (
            f"path from basepoint: {per_node.value} at path row {row}, "
            f"coordinates {tuple(segment[row].tolist())}")}
        assert np.isnan(value[0]) and np.isnan(defect[0])
        report = run_certify(chart, RunConfig(points=1, seed=0))
        chen = next(r for r in report.checks if r.name == "chen-vector")
        assert chen.detail["error"] == f"point 0: {refused[0]}"

    def test_singular_path_names_its_row(self):
        # g = diag(-1, x^2, 1, 1) is singular on x = 0. The exclusion keeps
        # the sample points off it, but the corner path's first leg runs
        # along it from the basepoint.
        chart = compile_chart(ChartInput(
            name="flat-x2", dimension=4, signature="lorentzian",
            coordinates=["t", "x", "y", "z"],
            metric={"1,1": "-1", "2,2": "x^2", "3,3": "1", "4,4": "1"},
            ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1),
                    "z": (-1, 1)},
            exclusions=[("x^2", 0.01)],
            velocity_field=["-1", "0", "0", "0"],
            basepoint=(1.0, 0.0, 0.0, 0.0)))
        target = sample_points(chart, 1, seed=0)[0].array()
        # The corner path's first leg, on x = 0, follows the first rung's
        # coarse and fine segments, which leave x = 0 at once.
        base = np.asarray(chart.basepoint)
        corner = np.concatenate((target[:1], base[1:]))
        rows = np.concatenate([leg_rows(a, b, p) for a, b, p in (
            (base, target, QUAD_PANELS[0]), (base, target, 2 * QUAD_PANELS[0]),
            (base, corner, 2 * QUAD_PANELS[0]))])
        row = int(np.argmax(rows[:, 1] == 0.0))
        assert row == 3 * QUAD_ORDER * QUAD_PANELS[0]
        t, *space = rows[row].tolist()
        assert 1.0 < t < target[0] and space == [0.0, 0.0, 0.0]
        # A target at the basepoint's time has a zero-length time leg, on
        # x = 0 from the basepoint; it is never walked, and the target
        # integrates to 0.0. With a time leg the same space is refused.
        level, timed = (np.array([t, 0.5, 0.3, -0.2]) for t in (1.0, 1.4))
        integrand = _omega_integrand(chart, chart.velocity)
        value, defect, refused = _integrate_form(
            integrand, chart.n, chart.basepoint, [target, level, timed])
        # The row is named as a row of the path, not as a sample point.
        assert refused[0] == (
            f"path from basepoint: metric matrix is singular at path row "
            f"{row}, coordinates {tuple(rows[row].tolist())}")
        assert f"at point {row}" not in refused[0]
        assert sorted(refused) == [0, 2]
        assert (value[1], defect[1]) == (0.0, 0.0)
        assert refused[2].startswith(
            f"path from basepoint: metric matrix is singular at path row "
            f"{row}, coordinates (")
        # Until its owner names the row, the error reads its bare message.
        with pytest.raises(SingularMetricError) as bare:
            integrand(np.array([chart.basepoint]))
        assert str(bare.value) == "metric matrix is singular"
        report = run_certify(chart, RunConfig(points=4, seed=0))
        assert report.find("fluid-decompose").status == DEGENERATE
        assert report.find("chen-vector").detail["error"] == \
            f"point 0: {refused[0]}"


def step_chart(steepness):
    """An FRW chart whose Hubble rate H = tanh(steepness (t - 1.3)) steps
    between the basepoint at t = 1 and the top of the range at t = 2:
    a^2 = cosh(steepness (t - 1.3))^(2 / steepness), u = -dt and
    omega = -H dt, which the quadrature resolves worse as the step
    steepens."""
    return compile_chart(step_input(steepness))


def step_input(steepness):
    """``step_chart``'s spec."""
    a2 = f"cosh({steepness}*(t - 1.3))^({2 / steepness!r})"
    return ChartInput(
        name=f"step-{steepness}", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": a2, "3,3": a2, "4,4": a2},
        ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        velocity_field=["-1", "0", "0", "0"],
        basepoint=(1.0, 0.0, 0.0, 0.0))


DENSE_SIGMA_CHARTS = [f"dense-pullback-{seed}" for seed in (5, 7, 2)]


def sigma_chart(name):
    """A catalog entry, or ``dense-pullback-SEED``."""
    if name.startswith("dense-pullback"):
        return dense_pullback_chart(int(name.rsplit("-", 1)[1]))
    return catalog_get(name).chart


class TestQuadratureLadder:
    """sigma starts on the ladder's first rung and climbs only where a
    panel doubling moves it by more than REFINE_TOL."""

    TARGET = np.array([2.0, 0.3, -0.2, 0.1])

    @staticmethod
    def counted(chart, target):
        """The row counts of each integrand call of sigma's quadrature to
        ``target``, and the quadrature's columns."""
        counted, calls = counting(_omega_integrand(chart, chart.velocity))
        return calls, _integrate_form(counted, chart.n, chart.basepoint,
                                      [target])

    @staticmethod
    def per_node(chart, target, panels):
        return integrate_per_node(
            lambda x: omega_per_node(chart, chart.velocity, x), chart.n,
            chart.basepoint, target, panels=panels)

    def test_second_rung_converges(self):
        chart = step_chart(4)
        calls, (value, defect, refused) = self.counted(chart, self.TARGET)
        assert calls == [(7 * QUAD_ORDER * p, 4) for p in QUAD_PANELS[:2]]
        # The first rung's doubling moved the value past REFINE_TOL.
        *_, first = self.per_node(chart, self.TARGET, QUAD_PANELS[0])
        assert first > REFINE_TOL
        assert refused == {}
        assert (value[0], defect[0]) == \
            self.per_node(chart, self.TARGET, QUAD_PANELS[1])[:2]

    def test_no_rung_converges(self):
        chart = step_chart(20)
        calls, (value, defect, refused) = self.counted(chart, self.TARGET)
        assert calls == [(7 * QUAD_ORDER * p, 4) for p in QUAD_PANELS]
        assert calls[-1] == (224, 4)
        *_, drift = self.per_node(chart, self.TARGET, QUAD_PANELS[-1])
        assert refused == {0: ("segment quadrature did not converge (panel "
                               f"doubling moved the value by {drift:.3e})")}
        assert np.isnan(value[0]) and np.isnan(defect[0])
        # The report refuses sigma at the first point whose path crosses
        # the step, with the same text.
        results = [self.counted(chart, p.array())[1][2]
                   for p in sample_points(chart, 6, seed=0)]
        first = next(i for i, refused in enumerate(results) if refused)
        report = run_certify(chart, RunConfig(points=6, seed=0))
        assert report.find("chen-vector").detail["error"] == \
            f"point {first}: {results[first][0]}"

    SIGMA_CHARTS = [name for name in catalog_names()
                    if catalog_get(name).chart.velocity is not None
                    and catalog_get(name).chart.basepoint is not None]

    @pytest.mark.parametrize("chart, count", [
        *((name, 10) for name in SIGMA_CHARTS),
        *((name, 20) for name in DENSE_SIGMA_CHARTS)])
    def test_sigma_matches_a_finer_rule(self, chart, count):
        # An independent accuracy oracle: numpy's 20-node rule at 32
        # panels, against the engine's ladder.
        chart = sigma_chart(chart)
        integrand = _omega_integrand(chart, chart.velocity)
        targets = [p.array() for p in sample_points(chart, count, seed=0)]
        for got, target in zip(per_target(_integrate_form(
                integrand, chart.n, chart.basepoint, targets)), targets):
            want = segment_reference(integrand, chart.basepoint, target)
            assert abs(got.value - want) <= 1e-14 * (1.0 + abs(got.value))


def slab_chart():
    """frw-dust with g_22 scaled by sqrt((x - 0.5)^2 - 0.04), which is
    undefined on the slab 0.3 < x < 0.7. The exclusion keeps the sample
    points out of it, but the paths from the basepoint at x = 0 to the
    points beyond it cross it; omega = f u is closed, f a function of t."""
    return compile_chart(ChartInput(
        name="frw-dust-slab", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": "t^(4/3)*sqrt((x - 0.5)^2 - 0.04)",
                "3,3": "t^(4/3)", "4,4": "t^(4/3)"},
        ranges={"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        exclusions=[("(x - 0.5)^2 - 0.0625", 0.0)],
        velocity_field=["-1", "0", "0", "0"],
        basepoint=(1.0, 0.0, 0.0, 0.0)))


class TestChunkQuadrature:
    """sigma at all of a chunk's points, one integrand call per rung, gives
    each point the bits and the texts of its one-point quadrature."""

    @pytest.mark.parametrize(
        "chart", TestQuadratureLadder.SIGMA_CHARTS + DENSE_SIGMA_CHARTS)
    def test_chunk_matches_one_target_calls(self, chart):
        chart = sigma_chart(chart)
        integrand = _omega_integrand(chart, chart.velocity)
        targets = [p.array() for p in sample_points(chart, 10, seed=3)]
        chunk = _integrate_form(integrand, chart.n, chart.basepoint, targets)
        assert [result_bits(r) for r in per_target(chunk)] == [
            result_bits(sigma_at(integrand, chart.n, chart.basepoint, t))
            for t in targets]

    def test_path_shapes_share_a_call(self, frw_dust):
        # A target at the basepoint's time has no time leg, one at its
        # space no space leg, and the basepoint itself neither: each sums
        # its own rows of the one call.
        base = np.asarray(frw_dust.basepoint, dtype=float)
        targets = [np.array([1.5, 0.3, -0.2, 0.1]),
                   np.concatenate((base[:1], [0.3, -0.2, 0.1])),
                   np.concatenate(([1.5], base[1:])), base]
        counted, calls = counting(_omega_integrand(frw_dust,
                                                   frw_dust.velocity))
        chunk = _integrate_form(counted, 4, base, targets)
        assert calls == [((7 + 5 + 5 + 3) * QUAD_ORDER * QUAD_PANELS[0], 4)]
        assert [result_bits(r) for r in per_target(chunk)] == [
            result_bits(sigma_at(counted, 4, base, t)) for t in targets]

    def test_climbers_climb_together(self):
        # On the steep step, t = 1.1 and 1.2 converge on the first rung,
        # t = 1.5 on the last, and t = 2.0 on none: each rung's call holds
        # the rows of the targets still climbing, in target order.
        chart = step_chart(20)
        integrand = _omega_integrand(chart, chart.velocity)
        counted, calls = counting(integrand)
        targets = [np.array([t, 0.3, -0.2, 0.1]) for t in (1.1, 1.5, 2.0, 1.2)]
        chunk = _integrate_form(counted, chart.n, chart.basepoint, targets)
        rows = [7 * QUAD_ORDER * p for p in QUAD_PANELS]
        assert calls == [(4 * rows[0], 4), (2 * rows[1], 4), (2 * rows[2], 4)]
        assert list(chunk[2]) == [2]
        assert [result_bits(r) for r in per_target(chunk)] == [
            result_bits(sigma_at(integrand, chart.n, chart.basepoint, t))
            for t in targets]

    def test_bad_path_keeps_the_other_points(self):
        # The chunk's paths that leave the domain are refused one by one;
        # the points whose paths stay inside keep their sigma, and each
        # refusal names its own point and path row, as the point's
        # one-target quadrature does.
        chart = slab_chart()
        points = sample_points(chart, 10, seed=0)
        fp = field_points(chart, points)
        assert max(fp.omega_closed) < 1e-10
        integrand = _omega_integrand(chart, chart.velocity)
        sigma, defect, refused = _point_payload(integrand, fp,
                                                chart.basepoint, 1e-6)
        bad = []
        for i, point in enumerate(points):
            want = result_bits(sigma_at(integrand, chart.n, chart.basepoint,
                                        point.array()))
            if isinstance(want, str):
                bad.append(i)
                assert want.startswith("path from basepoint: sqrt ")
                assert " at path row " in want
                assert refused[i] == want
                assert np.isnan(sigma[i]) and np.isnan(defect[i])
            else:
                got = SimpleNamespace(value=sigma[i], path_defect=defect[i])
                assert result_bits(got) == want
        assert sorted(refused) == bad
        assert 0 < len(bad) < len(points)
        report = run_certify(chart, RunConfig(points=10, seed=0))
        assert report.find("chen-vector").detail["error"] == \
            f"point {bad[0]}: {refused[bad[0]]}"

    def test_path_that_fails_on_a_later_rung(self):
        # ln((t - c)^2 - 1e-24) is undefined only at t = c, the t of a row
        # of t = 1.5's second-rung fine segment, which no first-rung row
        # meets. t = 1.1 converges on the first rung; t = 1.5 fails on the
        # second, which is walked again for t = 2.0 alone; t = 2.0's third
        # rung meets the same t at 8 panels and fails there.
        base = np.array([1.0, 0.0, 0.0, 0.0])
        targets = [np.array([t, 0.3, -0.2, 0.1]) for t in (1.1, 1.5, 2.0)]
        c = float(leg_rows(base, targets[1], 4)[20, 0])
        spec = step_input(20)
        spec = replace(spec, metric={**spec.metric, "2,2": (
            f"{spec.metric['2,2']}*(1 + 0*ln((t - {c!r})^2 - 1e-24))")})
        chart = compile_chart(spec)
        integrand = _omega_integrand(chart, chart.velocity)
        counted, calls = counting(integrand)
        chunk = _integrate_form(counted, chart.n, base, targets)
        assert [rows for rows, _ in calls] == [168, 224, 112, 224]
        results = per_target(chunk)
        assert [result_bits(r) for r in results] == [
            result_bits(sigma_at(integrand, chart.n, base, t))
            for t in targets]
        assert not isinstance(results[0], str)
        for text, row in zip(results[1:], (36, 52)):
            assert text.startswith("path from basepoint: ln at offset ")
            assert f" at path row {row}, coordinates " in text

    def test_open_omega_is_never_integrated(self, frw_dust):
        points = sample_points(frw_dust, 4, seed=0)
        fp = field_points(frw_dust, points)
        integrand = _omega_integrand(frw_dust, frw_dust.velocity)
        counted, calls = counting(integrand)
        fp.omega_closed = np.array([0.0, 0.5, 0.0, 1e-3])
        sigma, defect, refused = _point_payload(counted, fp,
                                                frw_dust.basepoint, 1e-6)
        assert calls == [(2 * 7 * QUAD_ORDER * QUAD_PANELS[0], 4)]
        assert refused == {1: not_closed("ω", 0.5), 3: not_closed("ω", 1e-3)}
        assert np.isnan(sigma[1::2]).all() and np.isnan(defect[1::2]).all()
        assert [result_bits(SimpleNamespace(value=v, path_defect=d))
                for v, d in zip(sigma[::2], defect[::2])] == [
            result_bits(sigma_at(integrand, 4, frw_dust.basepoint,
                                 p.array())) for p in points[::2]]
        # A chunk without a closed omega calls no integrand.
        calls.clear()
        fp.omega_closed = np.full(4, 0.5)
        sigma, _, refused = _point_payload(counted, fp, frw_dust.basepoint,
                                           1e-6)
        assert refused == dict.fromkeys(range(4), not_closed("ω", 0.5))
        assert np.isnan(sigma).all()
        assert calls == []
        # Without an integrand sigma is not formed.
        assert _point_payload(None, None, None, 1e-6) is None

    def test_nan_rows_keep_their_point(self, frw_dust, monkeypatch):
        # NaN rows make a NaN drift, which ends the ladder: sigma is NaN
        # and not refused, so the point stays in the chen-vector column,
        # whose record then fails on it.
        points = sample_points(frw_dust, 4, seed=0)
        times = [p.coords[0] for p in points]
        last = int(np.argmax(times))
        below = sorted(times)[-2]    # every other path stays below it
        omega = _omega_integrand(frw_dust, frw_dust.velocity)

        def nan_above(x):
            return np.where(x[:, :1] > below, np.nan, omega(x))

        fp = SimpleNamespace(n=4, omega_closed=np.zeros(4),
                             stack=SimpleNamespace(points=points))
        sigma, defect, refused = _point_payload(nan_above, fp,
                                                frw_dust.basepoint, 1e-6)
        assert refused == {}
        assert np.flatnonzero(np.isnan(sigma)).tolist() == [last]
        assert np.flatnonzero(np.isnan(defect)).tolist() == [last]
        monkeypatch.setattr(classify, "_omega_integrand",
                            lambda chart, field: nan_above)
        report = run_certify(frw_dust, RunConfig(points=4, seed=0))
        chen = report.find("chen-vector")
        assert chen.status == "fail"
        assert chen.detail["error"] == f"point {last}: the residual is NaN"

    def test_refusals_come_in_point_order(self, monkeypatch):
        # A path that leaves the domain at an earlier point, and an open
        # omega at the last: the report names the earlier point, whatever
        # order the refusals were found in.
        chart = slab_chart()
        points = sample_points(chart, 10, seed=0)
        integrand = _omega_integrand(chart, chart.velocity)
        curl = np.zeros(10)
        curl[-1] = 0.5
        fp = SimpleNamespace(n=4, omega_closed=curl,
                             stack=SimpleNamespace(points=points))
        _, _, refused = _point_payload(integrand, fp, chart.basepoint, 1e-6)
        first = min(refused)
        assert refused[first].startswith("path from basepoint: sqrt ")
        assert first < 9 and refused[9] == not_closed("ω", 0.5)
        payload = certify._point_payload

        def open_last(integrand, fp, base, limit):
            fp.omega_closed = np.where(np.arange(10) == 9, 0.5,
                                       fp.omega_closed)
            return payload(integrand, fp, base, limit)

        monkeypatch.setattr(certify, "_point_payload", open_last)
        report = run_certify(chart, RunConfig(points=10, seed=0))
        assert report.find("chen-vector").detail["error"] == \
            f"point {first}: {refused[first]}"


def chen_rows(chart, points):
    """The Chen vector's laws at the points, with sigma integrated from the
    chart's basepoint as the report does: the columns of ``_chen_point``,
    the path defects, and rho = e^{-sigma} f and X = e^{-sigma} u."""
    fp = field_points(chart, points)
    sigma, defect, refused = _integrate_form(
        _omega_integrand(chart, fp.field), chart.n, chart.basepoint,
        [p.array() for p in points])
    assert refused == {}
    chen, ckv, grad_rho_norm = _chen_point(fp, sigma)
    scaling = np.exp(-sigma)
    return [SimpleNamespace(chen_residual=c, ckv_residual=k,
                            grad_rho_norm=r, path_defect=d, rho=s * f,
                            x=s * u)
            for c, k, r, d, s, f, u in zip(chen, ckv, grad_rho_norm, defect,
                                           scaling, fp.f_jet.value, fp.uv)]


def branch_homothetic(chart, points, tol=1e-7):
    """The A = B test of ckv-branch and homothetic-triple at each point."""
    fp = field_points(chart, points)
    return [homothetic(float(a), float(b), tol)
            for a, b in zip(fp.a_jet.value, fp.b_jet.value)]


class TestChen:
    def test_frw_dust_chen_and_ckv(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=15)
        rows = chen_rows(frw_dust, points)
        assert max(row.chen_residual for row in rows) < 1e-10
        assert max(row.ckv_residual for row in rows) < 1e-10
        fp = field_points(frw_dust, points)
        assert max(fp.omega_closed) < 1e-12
        assert max(row.path_defect for row in rows) < 1e-10
        assert not any(branch_homothetic(frw_dust, points))
        for row, unit_residual, p in zip(rows, fp.unit_residual, points):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert row.rho == pytest.approx(fs["qp"], rel=1e-10)
            # X is time-like: X.X = -e^{-2 sigma} because u.u = -1
            assert unit_residual < 1e-10
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
        points = sample_points(chart, 3, seed=17)
        rows = chen_rows(chart, points)
        assert all(branch_homothetic(chart, points))
        for row in rows:
            assert abs(row.rho) < 1e-10
            assert row.grad_rho_norm < 1e-10

    def test_minkowski_all_zero(self, minkowski_chart):
        points = sample_points(minkowski_chart, 3, seed=18)
        rows = chen_rows(minkowski_chart, points)
        for row in rows:
            assert row.chen_residual < 1e-12
            assert row.ckv_residual < 1e-12
        assert all(branch_homothetic(minkowski_chart, points))

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
        fp = field_points(chart, sample_points(chart, 1, seed=19))
        assert min(fp.omega_closed[0], fp.u_closed[0]) > 1e-6
        chen = not_closed("ω", fp.omega_closed[0])
        assert chen.startswith("ω not closed (residual ")
        soliton = not_closed("u", fp.u_closed[0])
        assert soliton.startswith("u not closed (residual ")
        report = run_certify(chart, RunConfig(points=1, seed=19))
        for name, refusal in (("chen-vector", chen), ("soliton-form", soliton)):
            assert report.find(name).detail["error"] == f"point 0: {refusal}"


class TestWeylElectric:
    def test_frw_dust_both_residuals(self, frw_dust):
        fp = VelocityAnalysis(frw_dust, frw_dust.velocity).at(
            sample_points(frw_dust, 5, seed=19))
        cp = fp.stack.to_point()
        assert max(weyl_electric_at(cp, fp.uupv)) < 1e-8
        # n = 4: conformally flat
        assert max(scale_free_at(cp.weyl, cp.riem)) < 1e-8

    def test_minkowski_zero(self, minkowski_chart):
        cp = JetStack(minkowski_chart, [ChartPoint((0.5, 0, 0, 0))]).to_point()
        assert weyl_electric_at(cp, np.array([[1.0, 0, 0, 0]])) == [0.0]

    def test_grw5_sphere_fiber_electric(self):
        chart = catalog_get("grw5-sphere").chart
        fp = VelocityAnalysis(chart, chart.velocity).at(
            sample_points(chart, 5, seed=20))
        assert max(weyl_electric_at(fp.stack.to_point(), fp.uupv)) < 1e-8

    def test_einstein_but_not_constant_curvature_fiber(self):
        # S^2 x S^2 fiber: Einstein yet not a space form, so the warped
        # product has a genuinely nonzero Weyl tensor that u annihilates.
        from grwcert.grw import build_grw
        hi = math.pi - 0.3
        fiber = ChartInput(
            name="s2xs2", dimension=4, signature="riemannian",
            coordinates=["theta", "phi", "alpha", "beta"],
            metric={"1,1": "1", "2,2": "sin(theta)^2", "3,3": "1",
                    "4,4": "sin(alpha)^2"},
            ranges={"theta": (0.3, hi), "phi": (0, 6.2),
                    "alpha": (0.3, hi), "beta": (0, 6.2)})
        chart = build_grw("t^2", fiber, name="grw5-s2xs2", t_range=(1, 2))
        fp = VelocityAnalysis(chart, chart.velocity).at(
            sample_points(chart, 5, seed=21))
        cp = fp.stack.to_point()
        assert max(weyl_electric_at(cp, fp.uupv)) < 1e-8
        norms = scale_free_at(cp.weyl, cp.riem)
        assert max(norms) > 1e-3
        # The report's weyl-electric and weyl-zero-n4 read the same numbers.
        report = run_certify(chart, RunConfig(points=5, seed=21,
                                              checks=("conclusions",)))
        assert report.find("weyl-zero-n4").max_residual == max(norms)


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
        for name in LADDER_RUNGS:
            assert report.find(name).max_residual == 0.0, name

    def test_perturbed_b_negative_control(self, frw_dust):
        # B + 0.1 x^2 is no longer comoving: gamma = (n-2) A + B moves
        # with it, and the contracted Bianchi identity fails.
        perturb = parse("0.1*x^2", frw_dust.coordinates)
        points = sample_points(frw_dust, 5, seed=24)
        fp = field_points(frw_dust, points)
        levels = eval_jet3_batch((perturb,), [p.coords for p in points],
                                 frw_dust.params)
        b_jet = fp.b_jet + TensorJet(fp.n, [lv[:, 0] for lv in levels], 1)
        perturbed = replace(fp, b_jet=b_jet,
                            gamma_jet=fp.a_jet * float(fp.n - 2) + b_jet)
        worst = max(ladder_residuals_at(perturbed)["bianchi-contract"])
        assert worst > 1e-2

    def test_ladder_from_hypotheses_across_catalog(self):
        # hypothesis residuals < 1e-9 force ladder residuals < 1e-7
        for name in ("frw-dust", "frw-rad", "frw-k+1", "frw-k-1",
                     "einstein-static", "grw5-sphere"):
            report = certified(catalog_get(name).chart, 5, 25,
                               "hypotheses", "ladder")
            assert report.find("u-closed").max_residual < 1e-9, name
            for rung in LADDER_RUNGS:
                assert report.find(rung).max_residual < 1e-7, (name, rung)


def soliton_rows(chart, points):
    """Columns (residual, lam, eta) of the soliton form over the points,
    where u must be closed: the report refuses the form elsewhere."""
    fp = field_points(chart, points)
    assert max(fp.u_closed) <= 1e-6, not_closed("u", max(fp.u_closed))
    return _soliton_residual_at(fp)


def gradient_soliton(lams, etas):
    """A constant lam and a vanishing eta, to 1e-7."""
    return max(lams) - min(lams) < 1e-7 and max(map(abs, etas)) < 1e-7


class TestSolitonForm:
    def test_frw_dust(self, frw_dust):
        points = sample_points(frw_dust, 5, seed=26)
        residuals, lams, etas = soliton_rows(frw_dust, points)
        assert max(residuals) < 1e-7
        assert not gradient_soliton(lams, etas)

    def test_minkowski_flat_soliton(self, minkowski_chart):
        points = sample_points(minkowski_chart, 3, seed=27)
        residuals, lams, etas = soliton_rows(minkowski_chart, points)
        assert max(residuals) < 1e-12
        assert max(abs(v) for v in lams) < 1e-12
        assert max(abs(v) for v in etas) < 1e-12

    def test_einstein_static_constants(self):
        chart = catalog_get("einstein-static").chart
        points = sample_points(chart, 3, seed=28)
        residuals, lams, etas = soliton_rows(chart, points)
        assert max(residuals) < 1e-9
        for lam, eta in zip(lams, etas):
            assert lam == pytest.approx(2.0, abs=1e-9)
            assert eta == pytest.approx(2.0, abs=1e-9)
        assert not gradient_soliton(lams, etas)
