"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; every suite uses N = 50 points, seed 0, default tolerances. The
residuals are read from ``certify_chart``'s report, the one the CLI
prints; per-point values come from the kernels it calls.
"""

import json
from contextlib import contextmanager

import numpy as np

from grwcert.certify import RunConfig, run_certify
from grwcert.chart import ChartInput, compile_chart, sample_points
from grwcert.classify import DEGENERATE, VelocityAnalysis, fluid_decompose
from grwcert.curvature import JetStack
from grwcert.expr import eval_jet3, parse
from grwcert.grw import catalog_get
from grwcert.report import render_json

from .conftest import ACCEPTANCE_CONFIG
from .oracles import (as_jet3, curvature_rows, dd_gradient, dd_hessian,
                      dd_third, desitter_ricci, eval_value,
                      expression_corpus, friedmann_scalars, scale_free,
                      sphere2_curvature)
from .test_classify import chen_rows

N_POINTS = ACCEPTANCE_CONFIG.points
SEED = ACCEPTANCE_CONFIG.seed


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {description}")
        raise
    print(f"ACCEPTANCE {number} [PASS] {description}")


def test_criterion_1_flat_sanity(catalog_report):
    with criterion(1, "Minkowski: every curvature object and residual < 1e-12"):
        chart = catalog_get("minkowski").chart
        for cp in curvature_rows(chart, sample_points(chart, N_POINTS, SEED)):
            for arr in (cp.gamma, cp.riem, cp.ricci, cp.weyl, cp.divweyl):
                assert np.max(np.abs(arr)) < 1e-12
            assert abs(cp.rs) < 1e-12
        report = catalog_report("minkowski")
        for rec in report.checks:
            if rec.status != "skipped" and rec.max_residual is not None:
                assert rec.max_residual < 1e-12, rec.name


def test_criterion_2_jet_oracle():
    with criterion(2, "order-3 jets match divided differences to 1e-6 "
                      "on a 120-expression seeded corpus"):
        corpus = expression_corpus(seed=20250809, size=120)
        assert len(corpus) >= 100
        for text, coords, point in corpus:
            expr = parse(text, coords)
            n = len(coords)
            jet = as_jet3(eval_jet3((expr,), point, {}).at(0))
            f = lambda x: eval_value(expr, x, {})
            x = np.array(point)

            def close(got, want):
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), text

            close(jet.value, f(x))
            grad = dd_gradient(f, x, n)
            hess = dd_hessian(f, x, n)
            third = dd_third(f, x, n)
            for i in range(n):
                close(jet.grad[i], grad[i])
                for j in range(i, n):
                    close(jet.d2(i, j), hess[i, j])
                    for k in range(j, n):
                        close(jet.d3(i, j, k), third[i, j, k])


def test_criterion_3_convention_pin():
    with criterion(3, "unit S^2 scalar curvature = 2 +- 1e-10 and "
                      "exponential-warp Ricci = 3g +- 1e-9, vs hand oracles"):
        s2 = compile_chart(ChartInput(
            name="s2", dimension=2, signature="riemannian",
            coordinates=["theta", "phi"],
            metric={"1,1": "1", "2,2": "sin(theta)^2"},
            ranges={"theta": (0.3, 2.84), "phi": (0, 6.2)}))
        points = sample_points(s2, 20, SEED)
        for p, cp in zip(points, curvature_rows(s2, points)):
            assert abs(cp.rs - 2.0) < 1e-10
            _, _, ricci_o, scalar_o = sphere2_curvature(p.coords[0])
            assert abs(cp.rs - scalar_o) < 1e-10
            assert np.max(np.abs(cp.ricci - ricci_o)) < 1e-10
        ds = catalog_get("desitter").chart
        points = sample_points(ds, 20, SEED)
        for p, cp in zip(points, curvature_rows(ds, points)):
            scale = np.max(np.abs(cp.g))
            assert np.max(np.abs(cp.ricci - 3.0 * cp.g)) / scale < 1e-9
            _, ricci_o = desitter_ricci(4, p.coords[0])
            assert np.max(np.abs(cp.ricci - ricci_o)) / scale < 1e-9


def test_criterion_4_forward_chain_frw_dust(catalog_report):
    with criterion(4, "frw-dust end-to-end: hypotheses < 1e-8, conclusions "
                      "at stated bars, all nine ladder identities < 1e-7"):
        report = catalog_report("frw-dust")
        assert report.verdict == "pass"
        assert report.find("u-closed").max_residual < 1e-8
        assert report.find("div-weyl").max_residual < 1e-8
        assert report.find("torse-forming").max_residual < 1e-8
        assert report.find("omega-closed").max_residual < 1e-9
        assert report.find("chen-vector").max_residual < 1e-8
        assert report.find("ckv-gradient").max_residual < 1e-8
        assert report.find("weyl-electric").max_residual < 1e-8
        assert report.find("weyl-zero-n4").max_residual < 1e-8
        ladder_names = ("bianchi-contract", "ricci-curl", "b-transport",
                        "b-transport-half", "gamma-comoving", "b-comoving",
                        "torse-source", "bu-closed", "gamma-aligned")
        for name in ladder_names:
            assert report.find(name).max_residual < 1e-7, name

        # f = q'/q and rho = q' pointwise, both to 1e-8
        chart = catalog_get("frw-dust").chart
        points = sample_points(chart, N_POINTS, SEED)
        fp = VelocityAnalysis(chart, chart.velocity).at(points[:10])
        for p, f, row in zip(points, fp.f_jet.value,
                             chen_rows(chart, points[:10])):
            fs = friedmann_scalars(2.0 / 3.0, p.coords[0])
            assert abs(f - fs["f"]) < 1e-8
            assert abs(row.rho - fs["qp"]) < 1e-8


def test_criterion_5_converse_grw5(catalog_report):
    with criterion(5, "grw5-sphere converse: fiber-Einstein < 1e-10, "
                      "divWeyl < 1e-8, (A,B) formulas within 1e-8, "
                      "resolution recorded"):
        report = catalog_report("grw5-sphere")
        assert report.find("fiber-einstein").max_residual < 1e-10
        assert report.find("div-weyl").max_residual < 1e-8
        assert report.find("grw-ricci-A").max_residual < 1e-8
        assert report.find("grw-ricci-B").max_residual < 1e-8
        for name in ("grw-ricci-A", "grw-ricci-B"):
            note = report.find(name).detail["resolution"]
            assert "q''" in note and "q'" in note
        payload = json.loads(render_json(report))
        assert any("q''" in json.dumps(c["detail"])
                   for c in payload["checks"])


def test_criterion_6_negative_controls(catalog_report):
    with criterion(6, "negative controls: non-Einstein fiber trips "
                      "fiber/divWeyl checks; vacuum anisotropic chart "
                      "degenerates with informational conclusions"):
        report = catalog_report("grw-nonEinstein-fiber")
        assert report.verdict == "fail"
        assert report.find("fiber-einstein").max_residual > 0.1
        chart = catalog_get("grw-nonEinstein-fiber").chart
        points = sample_points(chart, N_POINTS, SEED)
        tol = ACCEPTANCE_CONFIG.hypothesis_tol
        hits = 0
        for cp in curvature_rows(chart, points):
            if scale_free(cp.divweyl, cp.driem) > 10 * tol:
                hits += 1
        assert hits >= 0.9 * len(points)

        kasner = catalog_report("kasner-negative")
        assert kasner.verdict == "fail"
        rec = kasner.find("fluid-decompose")
        assert rec.status == "degenerate"
        for name in ("torse-forming", "chen-vector", "weyl-electric",
                     "ckv-gradient"):
            assert kasner.find(name).status == "informational", name


def test_criterion_7_physics(catalog_report):
    with criterion(7, "physics: dust w = 0, radiation w = 1/3, motion "
                      "residuals < 1e-7, static chart homothetic triple "
                      "with p = -mu/3 to 1e-10"):
        dust = catalog_report("frw-dust")
        assert abs(dust.find("eos-slope").detail["w"] - 0.0) < 1e-6
        assert dust.find("energy-condition").detail["p_plus_mu_positive"]
        assert dust.find("motion-energy").max_residual < 1e-7
        assert dust.find("motion-euler").max_residual < 1e-7

        rad = catalog_report("frw-rad")
        assert abs(rad.find("eos-slope").detail["w"] - 1.0 / 3.0) < 1e-6

        static = catalog_report("einstein-static")
        assert static.find("homothetic-triple").ok
        assert static.find("homothetic-triple").detail["proper_points"] == 0
        chart = catalog_get("einstein-static").chart
        fp = VelocityAnalysis(chart, chart.velocity).at(
            sample_points(chart, 10, SEED))
        for p, mu in zip(fp.p_jet.value, fp.mu_jet.value):
            assert abs(p + mu / 3.0) < 1e-10


def test_criterion_8_degeneracy(catalog_report):
    with criterion(8, "exponential warp: degenerate branch taken, no "
                      "velocity emitted, A = 3 +- 1e-9"):
        chart = catalog_get("desitter").chart
        points = sample_points(chart, N_POINTS, SEED)
        dec = fluid_decompose(JetStack(chart, points).to_point())
        for branch, u_up, a in zip(dec.branch, dec.u_up, dec.a):
            assert branch == DEGENERATE
            assert not u_up.any()       # no velocity
            assert abs(a - 3.0) < 1e-9
        report = catalog_report("desitter")
        rec = report.find("fluid-decompose")
        assert rec.status == "degenerate"
        assert abs(rec.detail["A_min"] - 3.0) < 1e-9
        assert abs(rec.detail["A_max"] - 3.0) < 1e-9


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seed/config at 1 and 8 workers emits "
                      "byte-identical JSON"):
        chart = catalog_get("frw-dust").chart
        blobs = {}
        for workers in (1, 8):
            config = RunConfig(points=20, seed=SEED, workers=workers)
            report = run_certify(chart, config)
            path = tmp_path / f"workers{workers}.json"
            path.write_text(render_json(report), encoding="utf-8")
            blobs[workers] = path.read_bytes()
        assert blobs[1] == blobs[8]
        repeat = run_certify(chart, RunConfig(points=20, seed=SEED, workers=1))
        assert render_json(repeat).encode() == blobs[1]
