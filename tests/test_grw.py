import dataclasses

import numpy as np
import pytest

from grwcert.chart import (ChartInput, ChartPoint, compile_chart,
                           sample_points)
from grwcert.certify import CHECKS, RunConfig, run_certify
from grwcert.classify import (ANOMALOUS, DEGENERATE, NONDEGENERATE,
                              fluid_decompose)
from grwcert.cli import _SCALARS
from grwcert.curvature import JetStack, scale_free_at
from grwcert.grw import (RESOLUTION_NOTE, GRWBuildError, build_grw,
                         catalog_get, catalog_names, converse_at, einstein_at)

from .conftest import certified
from .oracles import (H3_SCALAR, SPHERE_RICCI_FACTOR, SPHERE_SCALAR,
                      curvature_rows, scale_free, warped_flat_curvature)


def fiber_residual(fiber, points):
    """Max over the fiber points of the Ricci* - (R*/m) g* residual."""
    return max(einstein_at(fiber, points)[0])


def split_rows(chart, points):
    """(branch, A, B) of the fluid split at each point."""
    dec = fluid_decompose(JetStack(chart, points).to_point())
    return list(zip(dec.branch, dec.a, dec.b))


def converse_rows(chart, points):
    """((branch, A, B) of the fluid split, A formula, B formula) of
    ``converse_at`` at each point."""
    _, a_formula, b_formula = converse_at(chart, points)
    return list(zip(split_rows(chart, points), a_formula, b_formula))


def relative(value, formula):
    """The report's comparison of the fluid split with a formula."""
    return abs(value - formula) / (1.0 + abs(formula))


def flat3():
    return ChartInput(
        name="flat3", dimension=3, signature="riemannian",
        coordinates=["x", "y", "z"],
        metric={"1,1": "1", "2,2": "1", "3,3": "1"},
        ranges={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})


class TestBuildGRW:
    def test_unit_warp_flat_fiber_is_flat(self):
        chart = build_grw("1", flat3(),
                          name="mink", t_range=(-1, 1))
        for cp in curvature_rows(chart, sample_points(chart, 10, seed=1)):
            for arr in (cp.riem, cp.ricci, cp.weyl, cp.divweyl):
                assert np.max(np.abs(arr)) < 1e-12

    def test_exponential_warp_is_einstein(self):
        chart = build_grw("exp(t)", flat3(),
                          name="ds", t_range=(-0.5, 0.5))
        for cp in curvature_rows(chart, sample_points(chart, 5, seed=2)):
            assert scale_free(cp.ricci - 3.0 * cp.g, cp.ricci) < 1e-9

    def test_static_sphere_fiber(self):
        entry = catalog_get("einstein-static")
        points = sample_points(entry.chart, 5, seed=3)
        for _, a, b in split_rows(entry.chart, points):
            assert a == pytest.approx(2.0, abs=1e-9)
            assert b == pytest.approx(2.0, abs=1e-9)

    def test_metric_block_structure(self):
        chart = catalog_get("frw-dust").chart
        p = ChartPoint((1.5, 0.2, -0.3, 0.4))
        g = chart.metric_values(p)
        q2 = 1.5 ** (4.0 / 3.0)
        np.testing.assert_allclose(g, np.diag([-1.0, q2, q2, q2]), rtol=1e-14)

    def test_nonpositive_warp_rejected(self):
        with pytest.raises(GRWBuildError):
            build_grw("t", flat3(), name="bad", t_range=(-1, 1))

    def test_lorentzian_fiber_rejected(self):
        spec = flat3()
        spec.signature = "lorentzian"
        spec.metric = {"1,1": "-1", "2,2": "1", "3,3": "1"}
        # The fiber is refused before the warp, which is not positive here.
        with pytest.raises(GRWBuildError, match="^fiber metric must be "
                                                "declared riemannian$"):
            build_grw("t", spec, name="bad", t_range=(-1, 1))


class TestWeylTracesAtScale:
    """weyl-tracefree measures C's traces against C and against Ricci,
    the terms they cancel: on a conformally flat chart C is round-off, so
    C alone would make the bar depend on the units of the coordinates."""

    @staticmethod
    def _report(chart):
        return run_certify(chart, RunConfig(points=10, seed=0))

    @staticmethod
    def _flat_fiber(warp, t_range=(1, 2), basepoint=(1, 0, 0, 0)):
        return build_grw(warp, flat3(), name=warp, t_range=t_range,
                         basepoint=basepoint)

    def test_rescaled_space_keeps_every_status(self):
        # q = 1e3 t^(2/3) is frw-dust with x -> 1000 x: the same space-time.
        want = self._report(catalog_get("frw-dust").chart)
        got = self._report(self._flat_fiber("1e3*t^(2/3)"))
        assert ([(rec.name, rec.status) for rec in got.checks]
                == [(rec.name, rec.status) for rec in want.checks])

    def test_long_de_sitter_range_is_trace_free(self):
        chart = self._flat_fiber("exp(t)", (0, 16), (0, 0, 0, 0))
        assert self._report(chart).find("weyl-tracefree").status == "pass"

    @pytest.mark.parametrize("warp", ["t^(2/3)", "1e3*t^(2/3)"])
    def test_trace_carrying_term_fails(self, monkeypatch, warp):
        # C plus 1e-8 of its own Ricci term, whose traces do not vanish.
        to_point = JetStack.to_point

        def mutated(stack):
            cp = to_point(stack)
            mixed = (np.einsum("...jm,...kl->...jklm", cp.g, cp.ricci)
                     + np.einsum("...jm,...kl->...jklm", cp.ricci, cp.g))
            term = 1e-8 * (mixed - np.swapaxes(mixed, -4, -3))
            return dataclasses.replace(cp, weyl=cp.weyl + term)

        monkeypatch.setattr(JetStack, "to_point", mutated)
        rec = self._report(self._flat_fiber(warp)).find("weyl-tracefree")
        assert rec.status == "fail"


class TestFiberEinstein:
    def test_unit_s3(self):
        fiber = catalog_get("einstein-static").chart.grw.fiber
        points = sample_points(fiber, 10, seed=4)
        assert fiber_residual(fiber, points) < 1e-10
        rs = einstein_at(fiber, points)[1][0]
        assert rs == pytest.approx(SPHERE_SCALAR[3], abs=1e-10)
        cp = curvature_rows(fiber, points)[0]
        np.testing.assert_allclose(cp.ricci, SPHERE_RICCI_FACTOR[3] * cp.g,
                                   atol=1e-10)

    def test_flat_fiber(self):
        fiber = compile_chart(flat3())
        points = sample_points(fiber, 5, seed=5)
        assert fiber_residual(fiber, points) == 0.0

    def test_hyperbolic_fiber(self):
        fiber = catalog_get("frw-k-1").chart.grw.fiber
        points = sample_points(fiber, 5, seed=6)
        assert fiber_residual(fiber, points) < 1e-10
        rs = einstein_at(fiber, points)[1][0]
        assert rs == pytest.approx(H3_SCALAR, abs=1e-9)

    def test_same_numbers_as_the_full_curvature_point(self):
        # einstein_at reads Ricci*, R* and g* off the fiber's stack, the
        # arrays that to_point returns.
        fiber = catalog_get("grw5-sphere").chart.grw.fiber
        points = sample_points(fiber, 3, seed=8)
        for cp, residual, rs in zip(curvature_rows(fiber, points),
                                    *einstein_at(fiber, points)):
            want = scale_free(cp.ricci - (cp.rs / fiber.n) * cp.g, cp.ricci)
            assert (residual, rs) == (want, cp.rs)

    @pytest.mark.parametrize("fiber_of", [
        "flat3", "einstein-static", "frw-k-1", "grw5-sphere",
        "grw-nonEinstein-fiber"])
    def test_order_2_stack_keeps_the_bytes(self, fiber_of):
        # The fiber's stack stops at order 2; its Ricci*, R* and g* values
        # are those of a full order-3 stack, byte for byte (flat3, S3, H3,
        # S4 and S2 x S1).
        fiber = (compile_chart(flat3()) if fiber_of == "flat3"
                 else catalog_get(fiber_of).chart.grw.fiber)
        points = sample_points(fiber, 4, seed=9)
        low, full = (JetStack(fiber, points, order=order)
                     for order in (2, 3))
        assert (low.g.order, low.g_inv.order, low.ricci.order) == (2, 1, 0)
        for name in ("g", "ricci", "rs"):
            assert (getattr(low, name).value.tobytes()
                    == getattr(full, name).value.tobytes()), name
        ricci, rs = full.ricci.value, full.rs.value
        want = scale_free_at(
            ricci - (rs[:, None, None] / fiber.n) * full.g.value, ricci)
        residual, got_rs = einstein_at(fiber, points)
        assert residual.tobytes() == want.tobytes()
        assert got_rs.tobytes() == rs.tobytes()

    def test_product_fiber_not_einstein(self):
        fiber = catalog_get("grw-nonEinstein-fiber").chart.grw.fiber
        points = sample_points(fiber, 20, seed=7)
        residual = fiber_residual(fiber, points)
        # orthonormal Ricci diag(1, 1, 0): residual 2/3 against scale 1 + 1
        assert residual == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert residual >= 0.3


class TestConverse:
    def test_einstein_static_formulas(self):
        entry = catalog_get("einstein-static")
        points = sample_points(entry.chart, 5, seed=8)
        for (_, dec_a, dec_b), a, b in converse_rows(entry.chart, points):
            assert relative(dec_a, a) < 1e-9
            assert relative(dec_b, b) < 1e-9
            assert a == pytest.approx(2.0, abs=1e-10)
            assert b == pytest.approx(2.0, abs=1e-10)

    def test_desitter_degenerate_branch(self):
        entry = catalog_get("desitter")
        points = sample_points(entry.chart, 5, seed=9)
        for (branch, dec_a, _), a, _ in converse_rows(entry.chart, points):
            assert branch == DEGENERATE
            assert relative(dec_a, a) < 1e-9
            assert a == pytest.approx(3.0, abs=1e-9)
        # On the degenerate branch B is not compared.
        report = certified(entry.chart, 5, 9, "converse")
        assert report.find("grw-ricci-B").skipped_reason \
            == "degenerate fluid: B ≈ 0, only A compared"

    def test_grw5_sphere_formulas_match_decomposition(self):
        entry = catalog_get("grw5-sphere")
        points = sample_points(entry.chart, 5, seed=10)
        for p, ((_, dec_a, dec_b), a, b) in zip(
                points, converse_rows(entry.chart, points)):
            assert relative(dec_a, a) < 1e-8
            assert relative(dec_b, b) < 1e-8
            t = p.coords[0]
            # closed forms: q = t^2, R* = 12, n = 5
            a_expected = (12.0 / 4.0 + (2 * t) ** 2 * 3 + t * t * 2) / t ** 4
            assert a == pytest.approx(a_expected, rel=1e-10)
            assert b == pytest.approx(a_expected - 8.0 / t ** 2, rel=1e-10)

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

    @pytest.mark.parametrize("name", catalog_names())
    def test_expectations_name_known_records(self, name):
        # A typo here would reach the CLI's comparison as a KeyError.
        expected = catalog_get(name).expected
        assert set(expected) <= {"verdict", "fluid", "ok", "not_ok",
                                 "informational", "scalars", "branch"}
        records = {check.name for check in CHECKS}
        for key in ("ok", "not_ok", "informational"):
            assert set(expected.get(key, ())) <= records, key
        assert set(expected.get("scalars", {})) <= set(_SCALARS)
        assert expected["verdict"] in ("pass", "fail")
        assert expected["fluid"] in (NONDEGENERATE, DEGENERATE, ANOMALOUS)
        assert expected.get("branch", "proper") in ("proper", "homothetic")

    def test_kasner_is_vacuum(self):
        chart = catalog_get("kasner-negative").chart
        points = sample_points(chart, 5, seed=14)
        for cp, (branch, _, _) in zip(curvature_rows(chart, points),
                                      split_rows(chart, points)):
            assert np.max(np.abs(cp.ricci)) < 1e-10
            assert branch == DEGENERATE

    def test_non_einstein_fiber_divweyl_large(self):
        chart = catalog_get("grw-nonEinstein-fiber").chart
        points = sample_points(chart, 20, seed=15)
        count = 0
        for cp in curvature_rows(chart, points):
            if scale_free(cp.divweyl, cp.driem) > 10 * 1e-7:
                count += 1
        assert count >= 0.9 * len(points)

    def test_grw_positive_entries_divweyl_small(self):
        for name in ("frw-dust", "frw-rad", "frw-k+1", "frw-k-1",
                     "grw5-sphere", "einstein-static"):
            chart = catalog_get(name).chart
            for cp in curvature_rows(chart, sample_points(chart, 5, seed=16)):
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
            fiber_points = sample_points(fiber, 5, seed=17)
            assert fiber_residual(fiber, fiber_points) < 1e-10, name
            for cp in curvature_rows(chart, points):
                assert scale_free(cp.divweyl, cp.driem) < 1e-8, name
            report = certified(chart, 5, 17, "converse")
            assert report.find("grw-ricci-A").max_residual < 1e-8, name
            b = report.find("grw-ricci-B").max_residual
            if b is not None:
                assert b < 1e-8, name
