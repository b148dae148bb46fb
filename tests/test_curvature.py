import dataclasses

import numpy as np
import pytest

from grwcert.chart import ChartInput, ChartPoint, compile_chart, sample_points
from grwcert.classify import VelocityAnalysis
from grwcert.curvature import (CurvaturePoint, JetStack, SingularMetricError,
                               cotton_factor, first_bianchi_residual,
                               scale_free_at, weyl_trace_residual)
from grwcert.expr import parse

from grwcert.grw import catalog_get, catalog_names
from grwcert.jets import jet_tables

from .oracles import (COTTON_COEFF, curvature_rows, desitter_ricci,
                      per_component_curvature, point_rows, scale_free,
                      second_bianchi_residual, sphere2_curvature,
                      stack_derivatives, warped_flat_curvature,
                      warped_nabla_u)
from .test_classify import dense_pullback_chart


def d2gamma(stack: JetStack) -> np.ndarray:
    """d_a d_b Gamma^m_{jk} as [a, b, m, j, k], unpacked from the packed
    Hessian level of a one-point stack's Christoffel jet."""
    return np.moveaxis(stack.gamma.hess[0][..., jet_tables(stack.n).pos[2]],
                       (-2, -1), (0, 1))


def make_chart(name, dim, signature, coords, metric, ranges, **kw):
    return compile_chart(ChartInput(name=name, dimension=dim,
                                    signature=signature, coordinates=coords,
                                    metric=metric, ranges=ranges, **kw))


@pytest.fixture(scope="module")
def minkowski():
    return make_chart("minkowski", 4, "lorentzian", ["t", "x", "y", "z"],
                      {"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1"},
                      {"t": (-1, 1), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})


@pytest.fixture(scope="module")
def desitter():
    return make_chart("desitter", 4, "lorentzian", ["t", "x", "y", "z"],
                      {"1,1": "-1", "2,2": "exp(2*t)", "3,3": "exp(2*t)",
                       "4,4": "exp(2*t)"},
                      {"t": (-0.5, 0.5), "x": (-1, 1), "y": (-1, 1),
                       "z": (-1, 1)})


@pytest.fixture(scope="module")
def sphere2():
    return make_chart("s2", 2, "riemannian", ["theta", "phi"],
                      {"1,1": "1", "2,2": "sin(theta)^2"},
                      {"theta": (0.3, 2.84), "phi": (0, 6.2)})


class TestConventionPins:
    """Hand-coded Christoffel oracles fix the sign conventions."""

    def test_unit_sphere_scalar_curvature_is_two(self, sphere2):
        for cp in curvature_rows(sphere2, sample_points(sphere2, 10, seed=1)):
            assert cp.rs == pytest.approx(2.0, abs=1e-10)

    def test_sphere_matches_oracle_tensors(self, sphere2):
        p = ChartPoint((1.2, 0.4))
        cp, = curvature_rows(sphere2, [p])
        _, riem_o, ricci_o, scalar_o = sphere2_curvature(1.2)
        np.testing.assert_allclose(cp.riem, riem_o, atol=1e-12)
        np.testing.assert_allclose(cp.ricci, ricci_o, atol=1e-12)
        assert cp.rs == pytest.approx(scalar_o, abs=1e-12)

    def test_desitter_ricci_is_three_g(self, desitter):
        for cp in curvature_rows(desitter,
                                 sample_points(desitter, 10, seed=2)):
            resid = np.max(np.abs(cp.ricci - 3.0 * cp.g)) / np.max(np.abs(cp.g))
            assert resid < 1e-9

    def test_desitter_matches_oracle(self, desitter):
        p = ChartPoint((0.3, 0.1, -0.2, 0.4))
        cp, = curvature_rows(desitter, [p])
        _, ricci_o = desitter_ricci(4, 0.3)
        np.testing.assert_allclose(cp.ricci, ricci_o, atol=1e-12)

    def test_quadratic_warp_full_hand_assembly(self):
        chart = make_chart("qt2", 4, "lorentzian", ["t", "x", "y", "z"],
                           {"1,1": "-1", "2,2": "t^4", "3,3": "t^4",
                            "4,4": "t^4"},
                           {"t": (1, 2), "x": (-1, 1), "y": (-1, 1),
                            "z": (-1, 1)})
        points = [ChartPoint((t0, 0.3, -0.2, 0.9)) for t0 in (1.2, 1.5, 1.9)]
        for p, cp in zip(points, curvature_rows(chart, points)):
            t0 = p.coords[0]
            _, riem_o, ricci_o = warped_flat_curvature(
                4, t0 ** 2, 2 * t0, 2.0)
            np.testing.assert_allclose(cp.riem, riem_o, atol=1e-12)
            np.testing.assert_allclose(cp.ricci, ricci_o, atol=1e-12)
            # settles the first- vs second-derivative time-time row
            assert cp.ricci[0, 0] == pytest.approx(-3 * 2.0 / t0 ** 2,
                                                   abs=1e-12)
            assert cp.ricci[0, 0] != pytest.approx(-3 * 2 * t0 / t0 ** 2,
                                                   abs=1e-3)


class TestChristoffelDerivatives:
    def test_desitter_closed_forms(self, desitter):
        # q = e^t: Gamma^t_{xx} = q q' = e^{2t}, Gamma^x_{tx} = q'/q = 1
        t0 = 0.3
        point = ChartPoint((t0, 0.1, -0.2, 0.4))
        stack = JetStack(desitter, [point])
        cp, = point_rows(stack.to_point())
        q2 = np.exp(2 * t0)
        assert cp.gamma[0, 1, 1] == pytest.approx(q2, rel=1e-12)
        assert cp.gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        # first derivative along t and vanishing spatial derivatives
        dgamma = stack_derivatives(stack)["dgamma"]
        assert dgamma[0, 0, 1, 1] == pytest.approx(2 * q2, rel=1e-12)
        assert dgamma[0, 1, 0, 1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(dgamma[1:])) < 1e-12
        # second derivative d_t d_t Gamma^t_{xx} = 4 e^{2t}
        assert d2gamma(stack)[0, 0, 0, 1, 1] == pytest.approx(4 * q2, rel=1e-12)


class TestFlatness:
    def test_minkowski_everything_vanishes(self, minkowski):
        for cp in curvature_rows(minkowski,
                                 sample_points(minkowski, 10, seed=3)):
            for arr in (cp.riem, cp.ricci, cp.weyl, cp.divweyl, cp.gamma):
                assert np.max(np.abs(arr)) < 1e-12
            assert abs(cp.rs) < 1e-12


class TestScaleFree:
    def test_matches_the_one_point_oracle(self):
        rng = np.random.default_rng(3)
        residual, ref_a, ref_b = (rng.normal(size=(5, 4, 4, 4))
                                  for _ in range(3))
        got = scale_free_at(residual, ref_a, ref_b)
        assert got.tolist() == [scale_free(r, a, b) for r, a, b
                                in zip(residual, ref_a, ref_b)]
        # A column (one value per point) is its own peak.
        assert scale_free_at(residual[:, 0, 0, 0]).tolist() == \
            np.abs(residual[:, 0, 0, 0]).tolist()

    def test_nan_in_residual_is_the_points_result(self):
        residual = np.array([[1.0, np.nan], [2.0, 0.5]])
        got = scale_free_at(residual, np.ones((2, 2)))
        assert np.isnan(got[0]) and got[1] == 2.0 / 2.0

    def test_nan_in_reference_drops_that_reference_at_the_point(self):
        # fmax passes over the NaN peak: the other references, not the
        # reference's finite entries, set point 0's scale.
        residual = np.array([[3.0, 0.0], [3.0, 0.0]])
        ref_a = np.array([[np.nan, 5.0], [0.0, 5.0]])
        ref_b = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert scale_free_at(residual, ref_a, ref_b).tolist() == \
            [3.0 / 2.0, 3.0 / 6.0]
        # With no other reference the point is scaled by 1 alone.
        assert scale_free_at(residual, ref_a).tolist() == [3.0, 3.0 / 6.0]

    def test_empty_arrays_peak_at_zero(self):
        assert scale_free_at(np.ones((2, 3)), np.zeros((2, 0))).tolist() == \
            [1.0, 1.0]


class TestInvariants:
    CHARTS = {}

    def _generic4(self):
        return make_chart("generic4", 4, "lorentzian", ["t", "x", "y", "z"],
                          {"1,1": "-1", "2,2": "t^2*(1+0.3*x^2)",
                           "3,3": "t^4", "4,4": "t^2+y^2"},
                          {"t": (1, 2), "x": (-1, 1), "y": (-1, 1),
                           "z": (-1, 1)})

    def test_first_bianchi(self):
        chart = self._generic4()
        cp = JetStack(chart, sample_points(chart, 10, seed=4)).to_point()
        assert max(first_bianchi_residual(cp)) < 1e-10

    def test_ricci_symmetry_and_weyl_traces(self):
        chart = self._generic4()
        points = sample_points(chart, 10, seed=5)
        for cp in curvature_rows(chart, points):
            assert scale_free(cp.ricci - cp.ricci.T, cp.ricci) < 1e-12
        cp = JetStack(chart, points).to_point()
        assert max(weyl_trace_residual(cp)) < 1e-12

    def test_second_bianchi_spot_check(self):
        chart = self._generic4()
        for p in sample_points(chart, 20, seed=6):
            assert second_bianchi_residual(chart, p) < 1e-9

    def test_second_bianchi_across_catalog(self):
        from grwcert.grw import catalog_get, catalog_names
        for name in catalog_names():
            chart = catalog_get(name).chart
            for p in sample_points(chart, 20, seed=6):
                assert second_bianchi_residual(chart, p) < 1e-9, name

    # The engine forms div C from the contracted second Bianchi identity;
    # these compare it with the oracle's direct divergence of C, whose
    # d_a g^{mp} is -g^{mb} (d_a g_bc) g^{cp}, at the identity's own bar.

    @pytest.mark.parametrize("dim", [4, 5])
    def test_cotton_consistency_generic(self, dim):
        metric = {"1,1": "-1", "2,2": "t^2*(1+0.3*x^2)", "3,3": "t^4",
                  "4,4": "t^2+y^2"}
        coords = ["t", "x", "y", "z"]
        ranges = {"t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}
        if dim == 5:
            metric["5,5"] = "1+0.5*w^2+t^2"
            coords.append("w")
            ranges["w"] = (-1, 1)
        chart = make_chart(f"generic{dim}", dim, "lorentzian", coords,
                           metric, ranges)
        assert cotton_factor(dim) == COTTON_COEFF[dim] == -(dim - 3) / (dim - 2)
        for p in sample_points(chart, 10, seed=7):
            cp, = point_rows(JetStack(chart, [p]).to_point())
            want = per_component_curvature(chart, p)["divweyl"]
            assert scale_free(cp.divweyl - want, want, cp.divweyl) < 1e-8

    def test_cotton_consistency_across_catalog(self):
        for name in catalog_names():
            chart = catalog_get(name).chart
            for p in sample_points(chart, 5, seed=8):
                cp, = point_rows(JetStack(chart, [p]).to_point())
                want = per_component_curvature(chart, p)["divweyl"]
                assert scale_free(cp.divweyl - want, want, cp.divweyl) < 1e-8, name
                if name == "grw-nonEinstein-fiber":
                    # Not conformally flat: div C is far from round-off.
                    assert scale_free(want, cp.driem) > 1e-2


def grad_vector(chart, comps, point):
    """The jet of nabla_k v_j (``[k, j]``, order 1) of the covector with
    these components at one point, and its partials d_k v_j, as the
    FieldPoint forms them (``curvature.covariant_derivative``)."""
    field = tuple(parse(s, chart.coordinates) for s in comps)
    fp = VelocityAnalysis(chart, field).at([point])
    return fp.nabla.at(0), fp.u.grad[0].T


class TestGradVector:
    def test_constant_field_on_minkowski(self, minkowski):
        nabla, _ = grad_vector(minkowski, ("-1", "0", "0", "0"),
                               ChartPoint((0.5, 0.1, 0.2, 0.3)))
        assert np.max(np.abs(nabla.value)) == 0.0
        assert np.max(np.abs(nabla.grad)) == 0.0

    def test_grw_torse_forming_gradient(self, desitter):
        p = ChartPoint((0.25, 0.4, -0.1, 0.7))
        nabla, _ = grad_vector(desitter, ("-1", "0", "0", "0"), p)
        q = np.exp(0.25)
        expected = warped_nabla_u(4, q, q)   # (q'/q)(g + u u) with q = e^t
        np.testing.assert_allclose(nabla.value, expected, atol=1e-11)

    def test_curl_component_value(self, minkowski):
        p = ChartPoint((1.0 - 1e-9, 0.0, 0.0, 0.0))
        nabla, partial = grad_vector(minkowski, ("-1", "t", "0", "0"), p)
        nabla = nabla.value
        # d_1 v_2 - d_2 v_1 = 1 exactly
        assert nabla[0, 1] - nabla[1, 0] == pytest.approx(1.0, abs=1e-14)
        # The covariant curl is the partial curl (symmetric connection).
        assert scale_free((nabla - nabla.T) - (partial - partial.T),
                          partial - partial.T) <= 1e-10


class TestTensorJetStack:
    """The tensor-jet stack against the per-component Jet3 oracle, field by
    field (the derivatives a CurvaturePoint does not carry are read off
    the stack's jets), and its exact antisymmetries."""

    FIELDS = {f.name for f in dataclasses.fields(CurvaturePoint)} - {"n"}
    DERIVATIVES = {"dg", "dgamma", "drs", "dricci"}

    def check(self, chart, points):
        for p in points:
            stack = JetStack(chart, [p])
            cp, = point_rows(stack.to_point())
            got = (dict(vars(cp)) | stack_derivatives(stack)
                   | {"d2gamma": d2gamma(stack)})
            want = per_component_curvature(chart, p)
            assert set(want) == self.FIELDS | self.DERIVATIVES | {"d2gamma"}
            for name, ref in want.items():
                gap = scale_free(np.asarray(got[name]) - ref, ref)
                assert gap <= 1e-12, (name, p.coords, gap)
            assert np.ndim(cp.rs) == 0
            assert np.array_equal(cp.riem, -cp.riem.swapaxes(0, 1))
            assert np.array_equal(cp.driem, -cp.driem.swapaxes(1, 2))
            assert np.array_equal(cp.weyl, -cp.weyl.swapaxes(0, 1))
            assert np.array_equal(cp.weyl, -cp.weyl.swapaxes(2, 3))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_oracle(self, name):
        chart = catalog_get(name).chart
        self.check(chart, sample_points(chart, 5, seed=21))

    @pytest.mark.parametrize("name", ["s2", "s3-fiber", "dense-pullback"])
    def test_other_dimensions_and_dense_chart(self, name, sphere2):
        chart = {"s2": lambda: sphere2,
                 "s3-fiber": lambda: catalog_get("einstein-static").chart.grw.fiber,
                 "dense-pullback": dense_pullback_chart}[name]()
        self.check(chart, sample_points(chart, 5, seed=22))

    @pytest.mark.parametrize("x", [0.0, 1e-9])
    def test_singular_metric_raises(self, x):
        # Flat polar coordinates; at x = 1e-9 an unguarded inverse returns
        # a scalar curvature of order 100 instead of 0.
        chart = make_chart("degenerate-at-zero", 2, "riemannian", ["x", "y"],
                           {"1,1": "1", "2,2": "x^2"},
                           {"x": (0.5, 1), "y": (0, 1)})
        with pytest.raises(np.linalg.LinAlgError) as err:
            JetStack(chart, [ChartPoint((x, 0.3))])
        assert str(err.value) == ("metric matrix is singular at point 0, "
                                  f"coordinates ({x!r}, 0.3)")


class TestBatchedJetStack:
    """Each point's row of a batched stack is the row of its own one-point
    batch, level by level and in every CurvaturePoint array, byte for
    byte: a point gets the same bits from any batch it is in."""

    TENSORS = ("g", "g_inv", "gamma", "riem", "ricci", "rs")

    def check(self, chart, points):
        batch = JetStack(chart, points)
        assert batch.points == tuple(points)
        rows = point_rows(batch.to_point())
        for i, p in enumerate(points):
            one = JetStack(chart, [p])
            assert one.n == batch.n
            for name in self.TENSORS:
                mine, want = getattr(batch, name), getattr(one, name)
                assert mine.batch == want.batch == 1
                assert len(mine.levels) == len(want.levels), name
                for k, (a, b) in enumerate(zip(mine.levels, want.levels)):
                    assert a[i].shape == b[0].shape, (name, k)
                    assert a[i].tobytes() == b[0].tobytes(), (name, k, p.coords)
            mine, (want,) = rows[i], point_rows(one.to_point())
            for field in dataclasses.fields(CurvaturePoint):
                a, b = getattr(mine, field.name), getattr(want, field.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_views_match_one_point_stacks(self, name):
        chart = catalog_get(name).chart
        self.check(chart, sample_points(chart, 5, seed=21))

    @pytest.mark.parametrize("name", ["s2", "s3-fiber", "dense-pullback"])
    def test_other_dimensions_and_dense_chart(self, name, sphere2):
        chart = {"s2": lambda: sphere2,
                 "s3-fiber": lambda: catalog_get("einstein-static").chart.grw.fiber,
                 "dense-pullback": dense_pullback_chart}[name]()
        self.check(chart, sample_points(chart, 5, seed=22))

    def test_singular_point_in_a_batch_is_named(self):
        chart = make_chart("degenerate-at-zero", 2, "riemannian", ["x", "y"],
                           {"1,1": "1", "2,2": "x^2"},
                           {"x": (0.5, 1), "y": (0, 1)})
        points = [ChartPoint((0.7, 0.3)), ChartPoint((0.0, 0.4)),
                  ChartPoint((1e-9, 0.5))]
        with pytest.raises(np.linalg.LinAlgError) as err:
            JetStack(chart, points)
        assert isinstance(err.value, SingularMetricError)
        assert (err.value.index, tuple(err.value.coords)) == (1, (0.0, 0.4))
        assert str(err.value) == ("metric matrix is singular at point 1, "
                                  "coordinates (0.0, 0.4)")
        # The 1e14 bound on g^{-1} holds point by point as well.
        with pytest.raises(SingularMetricError, match="at point 2, "):
            JetStack(chart, [points[0], points[0], points[2]])
