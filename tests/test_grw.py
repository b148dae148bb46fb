import numpy as np
import pytest

from grwcert.chart import ChartInput, ChartPoint, sample_points
from grwcert.classify import fluid_decompose
from grwcert.curvature import curvature_at, scale_free
from grwcert.grw import (RESOLUTION_NOTE, FiberMetric, GRWBuildError,
                         WarpSpec, build_grw, catalog_get, catalog_names,
                         converse_at)

from .conftest import certified
from .oracles import (H3_SCALAR, SPHERE_RICCI_FACTOR, SPHERE_SCALAR,
                      warped_flat_curvature)


def fiber_residual(fiber, points):
    """Max over the fiber points of the Ricci* - (R*/m) g* residual."""
    return max(fiber.einstein_at(p)[0] for p in points)


def converse_rows(chart, points):
    """``converse_at`` at each point, against the point's fluid split."""
    return [converse_at(chart, p, fluid_decompose(curvature_at(chart, p)))
            for p in points]


def flat3():
    return ChartInput(
        name="flat3", dimension=3, signature="riemannian",
        coordinates=["x", "y", "z"],
        metric={"1,1": "1", "2,2": "1", "3,3": "1"},
        ranges={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})


class TestBuildGRW:
    def test_unit_warp_flat_fiber_is_flat(self):
        chart = build_grw(WarpSpec("1"), FiberMetric.from_input(flat3()),
                          name="mink", t_range=(-1, 1))
        for p in sample_points(chart, 10, seed=1):
            cp = curvature_at(chart, p)
            for arr in (cp.riem, cp.ricci, cp.weyl, cp.divweyl):
                assert np.max(np.abs(arr)) < 1e-12

    def test_exponential_warp_is_einstein(self):
        chart = build_grw(WarpSpec("exp(t)"), FiberMetric.from_input(flat3()),
                          name="ds", t_range=(-0.5, 0.5))
        for p in sample_points(chart, 5, seed=2):
            cp = curvature_at(chart, p)
            assert scale_free(cp.ricci - 3.0 * cp.g, cp.ricci) < 1e-9

    def test_static_sphere_fiber(self):
        entry = catalog_get("einstein-static")
        for p in sample_points(entry.chart, 5, seed=3):
            cp = curvature_at(entry.chart, p)
            dec = fluid_decompose(cp)
            assert dec.a == pytest.approx(2.0, abs=1e-9)
            assert dec.b == pytest.approx(2.0, abs=1e-9)

    def test_metric_block_structure(self):
        chart = catalog_get("frw-dust").chart
        p = ChartPoint((1.5, 0.2, -0.3, 0.4))
        g = chart.metric_values(p)
        q2 = 1.5 ** (4.0 / 3.0)
        np.testing.assert_allclose(g, np.diag([-1.0, q2, q2, q2]), rtol=1e-14)

    def test_nonpositive_warp_rejected(self):
        with pytest.raises(GRWBuildError):
            build_grw(WarpSpec("t"), FiberMetric.from_input(flat3()),
                      name="bad", t_range=(-1, 1))

    def test_lorentzian_fiber_rejected(self):
        spec = flat3()
        spec.signature = "lorentzian"
        spec.metric = {"1,1": "-1", "2,2": "1", "3,3": "1"}
        with pytest.raises(GRWBuildError):
            FiberMetric.from_input(spec)


class TestFiberEinstein:
    def test_unit_s3(self):
        fiber = catalog_get("einstein-static").chart.grw.fiber
        points = sample_points(fiber.chart, 10, seed=4)
        assert fiber_residual(fiber, points) < 1e-10
        _, rs = fiber.einstein_at(points[0])
        assert rs == pytest.approx(SPHERE_SCALAR[3], abs=1e-10)
        cp = curvature_at(fiber.chart, points[0])
        np.testing.assert_allclose(cp.ricci, SPHERE_RICCI_FACTOR[3] * cp.g,
                                   atol=1e-10)

    def test_flat_fiber(self):
        fiber = FiberMetric.from_input(flat3())
        points = sample_points(fiber.chart, 5, seed=5)
        assert fiber_residual(fiber, points) == 0.0

    def test_hyperbolic_fiber(self):
        fiber = catalog_get("frw-k-1").chart.grw.fiber
        points = sample_points(fiber.chart, 5, seed=6)
        assert fiber_residual(fiber, points) < 1e-10
        _, rs = fiber.einstein_at(points[0])
        assert rs == pytest.approx(H3_SCALAR, abs=1e-9)

    def test_product_fiber_not_einstein(self):
        fiber = catalog_get("grw-nonEinstein-fiber").chart.grw.fiber
        points = sample_points(fiber.chart, 20, seed=7)
        residual = fiber_residual(fiber, points)
        # orthonormal Ricci diag(1, 1, 0): residual 2/3 against scale 1 + 1
        assert residual == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert residual >= 0.3


class TestConverse:
    def test_einstein_static_formulas(self):
        entry = catalog_get("einstein-static")
        points = sample_points(entry.chart, 5, seed=8)
        for row in converse_rows(entry.chart, points):
            assert row.a_residual < 1e-9
            assert row.b_residual < 1e-9
            assert row.a_formula == pytest.approx(2.0, abs=1e-10)
            assert row.b_formula == pytest.approx(2.0, abs=1e-10)

    def test_desitter_degenerate_branch(self):
        entry = catalog_get("desitter")
        points = sample_points(entry.chart, 5, seed=9)
        for row in converse_rows(entry.chart, points):
            assert row.degenerate
            assert row.b_residual is None
            assert row.a_residual < 1e-9
            assert row.a_formula == pytest.approx(3.0, abs=1e-9)

    def test_grw5_sphere_formulas_match_decomposition(self):
        entry = catalog_get("grw5-sphere")
        points = sample_points(entry.chart, 5, seed=10)
        for row in converse_rows(entry.chart, points):
            assert row.a_residual < 1e-8
            assert row.b_residual < 1e-8
            t = row.point.coords[0]
            # closed forms: q = t^2, R* = 12, n = 5
            a_expected = (12.0 / 4.0 + (2 * t) ** 2 * 3 + t * t * 2) / t ** 4
            assert row.a_formula == pytest.approx(a_expected, rel=1e-10)
            assert row.b_formula == pytest.approx(a_expected - 8.0 / t ** 2,
                                                  rel=1e-10)

    def test_resolution_note_present(self):
        report = certified(catalog_get("grw5-sphere").chart, 2, 11,
                           "converse")
        for name in ("grw-ricci-A", "grw-ricci-B"):
            assert report.find(name).detail["resolution"] == RESOLUTION_NOTE
        assert "q''" in RESOLUTION_NOTE
        assert "q = t^2" in RESOLUTION_NOTE

    def test_first_derivative_variant_rejected_by_oracle(self):
        # On q = t^2 over a flat fiber the hand assembly pins the row.
        for t0 in (1.3, 1.7):
            q, qp, qpp = t0 ** 2, 2 * t0, 2.0
            _, _, ricci = warped_flat_curvature(4, q, qp, qpp)
            second = -(4 - 1) * qpp / q
            first = -(4 - 1) * qp / q
            assert ricci[0, 0] == pytest.approx(second, rel=1e-12)
            assert abs(ricci[0, 0] - first) > 0.5

    def test_not_grw_rejected(self):
        report = certified(catalog_get("kasner-negative").chart, 2, 12,
                           "converse")
        for name in ("fiber-einstein", "grw-ricci-A", "grw-ricci-B"):
            rec = report.find(name)
            assert rec.status == "skipped"
            assert rec.skipped_reason == "not a declared warped product"


class TestCatalog:
    def test_names_stable(self):
        assert catalog_names() == [
            "minkowski", "desitter", "einstein-static", "frw-dust",
            "frw-rad", "frw-k+1", "frw-k-1", "grw5-sphere",
            "grw-nonEinstein-fiber", "kasner-negative"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_get("schwarzschild")

    def test_every_entry_compiles_and_samples(self):
        for name in catalog_names():
            entry = catalog_get(name)
            points = sample_points(entry.chart, 3, seed=13)
            assert len(points) == 3
            assert entry.expected.get("verdict") in ("pass", "fail")

    def test_frw_dust_expectation_record(self):
        entry = catalog_get("frw-dust")
        assert entry.expected["verdict"] == "pass"
        assert entry.expected["scalars"]["w"] == 0.0
        assert entry.chart.n == 4

    def test_kasner_is_vacuum(self):
        chart = catalog_get("kasner-negative").chart
        for p in sample_points(chart, 5, seed=14):
            cp = curvature_at(chart, p)
            assert np.max(np.abs(cp.ricci)) < 1e-10
            dec = fluid_decompose(cp)
            assert dec.degenerate

    def test_non_einstein_fiber_divweyl_large(self):
        chart = catalog_get("grw-nonEinstein-fiber").chart
        points = sample_points(chart, 20, seed=15)
        count = 0
        for p in points:
            cp = curvature_at(chart, p)
            if scale_free(cp.divweyl, cp.driem) > 10 * 1e-7:
                count += 1
        assert count >= 0.9 * len(points)

    def test_grw_positive_entries_divweyl_small(self):
        for name in ("frw-dust", "frw-rad", "frw-k+1", "frw-k-1",
                     "grw5-sphere", "einstein-static"):
            chart = catalog_get(name).chart
            for p in sample_points(chart, 5, seed=16):
                cp = curvature_at(chart, p)
                assert scale_free(cp.divweyl, cp.driem) < 1e-8, name

    def test_converse_property_every_einstein_fiber_entry(self):
        """Einstein fiber forces divWeyl < 1e-8 and the quasi-Einstein form
        matches the converse formulas to 1e-8 at every sampled point."""
        names = ("minkowski", "desitter", "einstein-static", "frw-dust",
                 "frw-rad", "frw-k+1", "frw-k-1", "grw5-sphere")
        for name in names:
            chart = catalog_get(name).chart
            points = sample_points(chart, 5, seed=17)
            fiber = chart.grw.fiber
            fiber_points = sample_points(fiber.chart, 5, seed=17)
            assert fiber_residual(fiber, fiber_points) < 1e-10, name
            for p in points:
                cp = curvature_at(chart, p)
                assert scale_free(cp.divweyl, cp.driem) < 1e-8, name
            report = certified(chart, 5, 17, "converse")
            assert report.find("grw-ricci-A").max_residual < 1e-8, name
            b = report.find("grw-ricci-B").max_residual
            if b is not None:
                assert b < 1e-8, name
