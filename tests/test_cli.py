import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import grwcert
from grwcert import certify, classify, expr, grw
from grwcert.certify import CHUNK_POINTS, RunConfig, run_certify
from grwcert.chart import ChartError, compile_chart, sample_points
from grwcert.classify import (VelocityAnalysis, geodesic_at,
                              ladder_residuals_at)
from grwcert.cli import main
from grwcert.curvature import JetStack
from grwcert.grw import catalog_get, catalog_names
from grwcert.physics import motion_at
from grwcert.report import render_json, render_text, report_to_dict
from grwcert.schema import SpecFileError, load_chart_input

from .conftest import LADDER_RUNGS
from .test_classify import dense_pullback_input

FRW_DUST_SPEC = {
    "schema": 1,
    "name": "frw-dust-file",
    "dimension": 4,
    "signature": "lorentzian",
    "coordinates": ["t", "x", "y", "z"],
    "parameters": {},
    "metric": {"1,1": "-1", "2,2": "t^(4/3)", "3,3": "t^(4/3)",
               "4,4": "t^(4/3)"},
    "velocity_field": ["-1", "0", "0", "0"],
    "domain": {"ranges": {"t": [1, 2], "x": [-1, 1], "y": [-1, 1],
                          "z": [-1, 1]}, "exclusions": []},
    "basepoint": [1, 0, 0, 0],
}

# g22 of sigma-slab: frw-dust's flat sibling, sampled outside the slab
# |x| < 0.1, with its basepoint at x = 0.5. sigma's path to a point with
# x < -0.1 crosses the slab, where ln leaves its domain; on the overflow
# slab exp overflows there instead.
SIGMA_SLAB = "1 + 0*ln(x^2 - 0.005)"
OVERFLOW_SLAB = "1 + 0*exp(100000*(0.01 - x^2))"


def slab_chart(g22):
    slab = dict(FRW_DUST_SPEC, name="sigma-slab",
                metric={"1,1": "-1", "2,2": g22, "3,3": "1", "4,4": "1"},
                basepoint=[1, 0.5, 0, 0])
    slab["domain"] = dict(slab["domain"], exclusions=[
        {"expr": "x^2", "margin": 0.01}])
    return compile_chart(load_chart_input(slab))


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "frw-dust.json"
    path.write_text(json.dumps(FRW_DUST_SPEC))
    return path


class TestSchema:
    def test_valid_spec_loads(self):
        spec = load_chart_input(dict(FRW_DUST_SPEC))
        assert spec.dimension == 4
        assert spec.velocity_field == ["-1", "0", "0", "0"]

    def test_missing_dimension_names_field(self):
        bad = {k: v for k, v in FRW_DUST_SPEC.items() if k != "dimension"}
        with pytest.raises(SpecFileError) as err:
            load_chart_input(bad)
        assert err.value.path == "dimension"

    def test_missing_range_names_coordinate(self):
        bad = json.loads(json.dumps(FRW_DUST_SPEC))
        del bad["domain"]["ranges"]["z"]
        with pytest.raises(ChartError) as err:
            compile_chart(load_chart_input(bad))
        assert err.value.path == "domain.ranges.z"

    def test_lower_triangle_metric_key(self):
        bad = json.loads(json.dumps(FRW_DUST_SPEC))
        bad["metric"]["2,1"] = "0"
        with pytest.raises(ChartError) as err:
            compile_chart(load_chart_input(bad))
        assert "metric.2,1" == err.value.path

    def test_bad_schema_version(self):
        bad = dict(FRW_DUST_SPEC, schema=99)
        with pytest.raises(SpecFileError) as err:
            load_chart_input(bad)
        assert err.value.path == "schema"

    def test_velocity_length_checked(self):
        bad = dict(FRW_DUST_SPEC, velocity_field=["-1", "0"])
        with pytest.raises(ChartError):
            compile_chart(load_chart_input(bad))


class TestRunCertify:
    def test_spec_file_pass(self, spec_file):
        report = run_certify(spec_file, RunConfig(points=6, seed=1))
        assert report.verdict == "pass"
        assert report.find("u-closed").ok
        assert report.find("div-weyl").ok
        # no declared warp, so the converse suite is skipped
        assert report.find("fiber-einstein").status == "skipped"

    def test_chart_input_runs_as_its_compiled_chart(self):
        chart_input = load_chart_input(FRW_DUST_SPEC)
        config = RunConfig(points=3, seed=2)
        assert render_json(run_certify(chart_input, config)) == render_json(
            run_certify(compile_chart(chart_input), config))

    def test_missing_velocity_marks_not_evaluable(self, tmp_path):
        spec = {k: v for k, v in FRW_DUST_SPEC.items()
                if k != "velocity_field"}
        report = run_certify(spec, RunConfig(points=4, seed=1))
        rec = report.find("u-closed")
        assert rec.status == "skipped"
        assert rec.skipped_reason == "not evaluable: no velocity field declared"
        # eigen route still runs and the electric check still evaluates
        assert report.find("fluid-decompose").ok
        assert report.find("weyl-electric").max_residual is not None

    def test_signature_failure_record(self):
        # g_22 = t changes sign on the range: the points at t < 0 have two
        # negative eigenvalues, so the signature record fails the run.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["name"] = "sign-change"
        spec["metric"] = {"1,1": "-1", "2,2": "t", "3,3": "1", "4,4": "1"}
        spec["domain"]["ranges"]["t"] = [-1, 2]
        report = run_certify(spec, RunConfig(points=6, seed=0))
        rec = report.find("signature")
        assert (rec.status, rec.ok, rec.max_residual) == ("fail", False, 1.0)
        assert report.verdict == "fail"

    def test_check_selection(self, spec_file):
        report = run_certify(spec_file,
                             RunConfig(points=4, checks=("sanity", "ladder")))
        assert report.find("bianchi-first").status == "pass"
        assert report.find("u-closed").status == "skipped"
        assert report.find("u-closed").skipped_reason == "not selected"
        assert report.find("gamma-comoving").status == "pass"

    def test_riemannian_chart_runs_the_sanity_group_only(self):
        # The unit S^3: every group past sanity reads a time-like velocity
        # or the Lorentzian eigen-split, so each of its records is skipped.
        chart = compile_chart(grw._sphere(3))
        report = run_certify(chart, RunConfig(points=5))
        assert report.verdict == "pass"
        sanity = [rec for rec in report.checks if rec.group == "sanity"]
        others = [rec for rec in report.checks if rec.group != "sanity"]
        assert [rec.status for rec in sanity] == ["pass"] * 4
        assert len(others) == 35
        assert {(rec.status, rec.skipped_reason) for rec in others} == {
            ("skipped", "riemannian chart: fluid pipeline not applicable")}
        serial, threaded = (render_json(run_certify(chart, RunConfig(
            points=CHUNK_POINTS + 1, seed=3, workers=workers)))
            for workers in (1, 2))
        assert serial == threaded

    def test_unread_potentials_not_integrated(self, spec_file, monkeypatch):
        # No record of these groups reads sigma: no quadrature
        # runs, and each selected record is the one a full run reports.
        groups = ("sanity", "fluid", "hypotheses", "ladder")
        full = report_to_dict(run_certify(spec_file, RunConfig(points=4)))

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature ran for unselected groups")

        monkeypatch.setattr(classify, "_integrate_form", refuse)
        subset = report_to_dict(run_certify(
            spec_file, RunConfig(points=4, checks=groups)))
        assert [c for c in subset["checks"] if c["group"] in groups] \
            == [c for c in full["checks"] if c["group"] in groups]

    @pytest.mark.parametrize("groups, potentials",
                             [(("physics",), 1), (("conclusions",), 1)])
    def test_potentials_follow_selection(self, spec_file, monkeypatch,
                                         groups, potentials):
        # sigma feeds homothetic-triple (physics) and the conclusions;
        # soliton-form reads no potential. The chunk's points are
        # integrated in one call.
        targets = []
        integrate = classify._integrate_form

        def counted(*args, **kwargs):
            targets.append(len(args[3]))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(classify, "_integrate_form", counted)
        report = run_certify(spec_file, RunConfig(points=3, checks=groups))
        assert targets == [3 * potentials]
        if "physics" in groups:
            assert report.find("homothetic-triple").status == "pass"

    @pytest.mark.parametrize("groups, split, velocity", [
        (("sanity",), 0, 0), (("converse",), 1, 0), (("ladder",), 0, 1),
        (("hypotheses",), 0, 1), (("fluid",), 1, 1), (None, 1, 1)])
    def test_point_work_follows_selection(self, monkeypatch, groups, split,
                                          velocity):
        # No sanity record reads the fluid split or the velocity's jets.
        # Both run once per chunk.
        calls = {"split": 0, "velocity": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(certify, "fluid_decompose",
                            counted("split", certify.fluid_decompose))
        monkeypatch.setattr(classify.VelocityAnalysis, "at",
                            counted("velocity", classify.VelocityAnalysis.at))
        points = 12 if groups == ("sanity",) else 3
        run_certify(catalog_get("frw-dust").chart,
                    RunConfig(points=points, checks=groups))
        chunks = -(-points // CHUNK_POINTS)
        assert calls == {"split": split * chunks,
                         "velocity": velocity * chunks}

    def test_curls_once_per_chunk(self, monkeypatch):
        # u's and omega's closedness are formed on the chunk; sigma's
        # refusal reads omega's row of it instead of forming it again.
        calls = []
        curl = classify._curl_residual

        def counted(grad):
            calls.append(grad.shape)
            return curl(grad)

        monkeypatch.setattr(classify, "_curl_residual", counted)
        report = run_certify(catalog_get("frw-dust").chart,
                             RunConfig(points=CHUNK_POINTS + 3, seed=5))
        assert report.find("chen-vector").status == "pass"
        assert calls == [(CHUNK_POINTS, 4, 4)] * 2 + [(3, 4, 4)] * 2

    def test_unknown_group_rejected(self, spec_file):
        with pytest.raises(ValueError):
            run_certify(spec_file, RunConfig(checks=("nonsense",)))

    def test_empty_selection_rejected(self, spec_file):
        # A run that selects no group checks nothing and must not pass.
        with pytest.raises(ValueError, match="no check groups selected; "
                                             "valid groups: sanity, fluid"):
            run_certify(spec_file, RunConfig(checks=()))

    def test_config_validation(self):
        for label in ("points", "workers"):
            for value in (0, -1, 1.5, "3", None, True):
                with pytest.raises(ValueError, match=f"^{label} must be a "
                                   f"positive integer, not "):
                    RunConfig(**{label: value})
        for label in ("hypothesis_tol", "conclusion_tol", "cluster_tol"):
            for value in (0.0, -1.0, math.nan, math.inf, "1e-7", None, True):
                with pytest.raises(ValueError, match=f"^{label} must be a "
                                   f"positive finite number, not "):
                    RunConfig(**{label: value})
        # checks: a string is refused, any other iterable is stored as a
        # tuple (so the config hashes), and the group names are checked
        # when the config is made, not when it runs.
        with pytest.raises(ValueError, match="^checks must be a collection "
                           "of group names, not 'sanity'$"):
            RunConfig(checks="sanity")
        config = RunConfig(checks=["sanity", "fluid"])
        assert config.checks == ("sanity", "fluid")
        assert hash(config) == hash(RunConfig(checks=("sanity", "fluid")))
        for value, message in (
                (["sanity", "nonsense"],
                 r"unknown check groups: \['nonsense'\]"),
                ((), "no check groups selected")):
            with pytest.raises(ValueError, match=f"^{message}; valid groups: "
                               f"sanity, fluid"):
                RunConfig(checks=value)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative "
                                             "integer, not "):
            RunConfig(seed=seed)

    def test_numpy_integer_seed_samples_the_int_points(self):
        chart = catalog_get("frw-dust").chart
        seed = 2**62 + 7
        config = RunConfig(points=3, seed=np.int64(seed), checks=("sanity",))
        assert type(config.seed) is int
        want = run_certify(chart, RunConfig(points=3, seed=seed,
                                            checks=("sanity",)))
        assert render_json(run_certify(chart, config)) == render_json(want)

    def test_numpy_settings_give_the_python_report(self):
        # Stored as int and float, numpy settings give the report of the
        # Python numbers byte for byte, and one that serializes at all.
        chart = catalog_get("frw-dust").chart
        config = RunConfig(points=np.int64(3), workers=np.int64(2),
                           hypothesis_tol=np.float64(1e-7),
                           conclusion_tol=np.float64(1e-7),
                           cluster_tol=np.float64(1e-6))
        assert [type(config.points), type(config.workers)] == [int, int]
        assert [type(config.hypothesis_tol), type(config.conclusion_tol),
                type(config.cluster_tol)] == [float] * 3
        want = run_certify(chart, RunConfig(points=3, workers=2))
        assert render_json(run_certify(chart, config)) == render_json(want)

    @pytest.mark.parametrize("basepoint, message", [
        ((1.0, 0.0), "basepoint must have 4 entries"),
        ((3.0, 0.0, 0.0, 0.0), "basepoint[t] = 3.0 outside range"),
        ((1.0, 0.0, 0.0, float("nan")), "basepoint[z] = nan outside range"),
    ])
    def test_basepoint_override_validated(self, spec_file, basepoint, message):
        # The same check as the spec file's basepoint gets at compile time.
        with pytest.raises(ChartError) as err:
            run_certify(spec_file, RunConfig(points=2, basepoint=basepoint))
        assert str(err.value).startswith(message)


class TestKernelsEqualRecords:
    """A report's record is the max of its kernel over the sample points:
    the chunked stack gives each point the numbers of a stack of its own."""

    def test_accelerated_velocity(self, tmp_path):
        # The catalog's comoving velocities are geodesic to the last bit;
        # a rapidity that grows with t gives the velocity checks weight.
        spec = dict(FRW_DUST_SPEC, name="frw-accelerated",
                    velocity_field=["-cosh(t^2/4)", "sinh(t^2/4)", "0", "0"])
        path = tmp_path / "accelerated.json"
        path.write_text(json.dumps(spec))
        report = run_certify(str(path), RunConfig(points=10, seed=0))
        chart = compile_chart(load_chart_input(str(path)))
        analysis = VelocityAnalysis(chart)
        # Each point in a batch of its own.
        fps = [analysis.at(JetStack(chart, [p]))
               for p in sample_points(chart, 10, 0)]

        def record(check):
            return report.find(check).max_residual

        geodesic = record("geodesic")
        assert geodesic > 0.01
        assert max(geodesic_at(fp)[0] for fp in fps) == geodesic
        r1, r2 = zip(*(motion_at(fp) for fp in fps))
        assert (max(r[0] for r in r1), max(r[0] for r in r2)) \
            == (record("motion-energy"), record("motion-euler"))
        ladder = [ladder_residuals_at(fp) for fp in fps]
        for check in LADDER_RUNGS:
            assert max(rungs[check][0] for rungs in ladder) \
                == record(check), check


class TestReports:
    def test_json_is_stable(self, spec_file):
        config = RunConfig(points=5, seed=2)
        one = render_json(run_certify(spec_file, config))
        two = render_json(run_certify(spec_file, config))
        assert one == two

    def test_json_identical_across_worker_counts(self, spec_file):
        serial = render_json(run_certify(
            spec_file, RunConfig(points=10, seed=3, workers=1)))
        threaded = render_json(run_certify(
            spec_file, RunConfig(points=10, seed=3, workers=8)))
        assert serial == threaded

    def test_chunk_boundary_identical_across_worker_counts(self, spec_file,
                                                            tmp_path):
        # Two full chunks of points and one more: the stacks are built per
        # chunk, and the two workers map over the chunks.
        points = str(2 * CHUNK_POINTS + 1)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"report-{workers}.json"
            assert main(["certify", str(spec_file), "--points", points,
                         "--seed", "6", "--workers", workers, "--quiet",
                         "--json", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["environment"]["points"] == int(points)

    @pytest.mark.parametrize("name", ["frw-dust", "grw5-sphere",
                                      "dense-pullback", "godel", "frw-k+1",
                                      "grw-nonEinstein-fiber", "desitter",
                                      "dense-no-velocity", "sigma-slab"])
    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch,
                                                      name):
        # A point gets the same bits from any chunk it is in: one point,
        # three, ten (13 points end on a partial chunk) or the default,
        # and from any worker: 13 chunks over 3 threads, 5 over 2.
        # desitter takes the degenerate split, where B is not compared; the
        # dense chart without a velocity reads weyl-electric through the
        # split's u. On sigma-slab, sigma's path from x = 0.5 leaves ln's
        # domain at the 6 points across the excluded slab |x| < 0.1, so
        # chunks with sigma at every point, at some and at none are joined.
        from .test_downgrades import GODEL_SPEC
        no_velocity = dataclasses.replace(dense_pullback_input(),
                                          velocity_field=None)
        chart = {
            "dense-pullback": lambda: compile_chart(dense_pullback_input()),
            "dense-no-velocity": lambda: compile_chart(no_velocity),
            "godel": lambda: compile_chart(load_chart_input(GODEL_SPEC)),
            "sigma-slab": lambda: slab_chart(SIGMA_SLAB),
        }.get(name, lambda: catalog_get(name).chart)()
        reports = []
        for size, workers in ((1, 1), (3, 1), (10, 1), (CHUNK_POINTS, 1),
                              (1, 3), (3, 2)):
            monkeypatch.setattr(certify, "CHUNK_POINTS", size)
            reports.append(render_json(run_certify(
                chart, RunConfig(points=13, seed=5, workers=workers))))
        assert reports[1:] == reports[:1] * 5

    @pytest.mark.parametrize("g22", [SIGMA_SLAB, OVERFLOW_SLAB],
                             ids=["sigma-slab", "overflow-slab"])
    def test_failing_paths_cost_linear_in_the_chunk(self, monkeypatch, g22):
        # A full chunk of points, about half of them with a path across
        # the slab, where ln leaves its domain or exp overflows. A rung's
        # failing call refuses every target with a failing row at once,
        # each with its row's error from that call's walk, with no one-row
        # walk, and that call is walked once more without them: the report
        # is the one of 10-point chunks.
        chart = slab_chart(g22)
        walk, integrand = expr._walk, classify._omega_integrand
        one_row, rows, refused = [], [], []

        def counted_walk(tape, x, params, order):
            one_row.append(len(x) == 1)
            return walk(tape, x, params, order)

        def counted_integrand(chart, field):
            inner = integrand(chart, field)

            def counted(x):
                rows.append(len(x))
                return inner(x)
            return counted

        integrate = classify._integrate_form

        def counted_integrate(*args):
            result = integrate(*args)
            refused.extend(text for text in result[2].values()
                           if text.startswith("path from basepoint: "))
            return result

        monkeypatch.setattr(expr, "_walk", counted_walk)
        monkeypatch.setattr(classify, "_omega_integrand", counted_integrand)
        monkeypatch.setattr(classify, "_integrate_form", counted_integrate)
        reports = []
        for size in (10, CHUNK_POINTS):
            monkeypatch.setattr(certify, "CHUNK_POINTS", size)
            for counts in (one_row, rows, refused):
                counts.clear()
            reports.append(render_json(run_certify(
                chart, RunConfig(points=CHUNK_POINTS, seed=5))))
        assert reports[0] == reports[1]
        assert 0 < len(refused) < CHUNK_POINTS
        assert one_row.count(True) == 0
        # 7 legs of QUAD_ORDER rows per point on the first rung, twice.
        first_rung = 7 * classify.QUAD_ORDER * classify.QUAD_PANELS[0]
        assert sum(rows) <= 2 * first_rung * CHUNK_POINTS + len(refused)

    @pytest.mark.parametrize("name", ["frw-dust", "grw5-sphere", "sigma-slab",
                                      "overflow-slab"])
    def test_reports_do_not_depend_on_the_call_rows(self, monkeypatch, name):
        # A rung's rows go to sigma's integrand in calls of whole targets
        # of at most classify.CALL_ROWS rows. A cap below one target's
        # rows (a call a target), 997 rows and the default give the same
        # report, on the normal ladder and with every point forced to the
        # top rung, where the default cuts the chunk's rung in two.
        chart = {"sigma-slab": lambda: slab_chart(SIGMA_SLAB),
                 "overflow-slab": lambda: slab_chart(OVERFLOW_SLAB),
                 }.get(name, lambda: catalog_get(name).chart)()
        integrand, calls = classify._omega_integrand, []

        def counted_integrand(chart, field):
            inner = integrand(chart, field)

            def counted(x):
                calls.append(len(x))
                return inner(x)
            return counted

        monkeypatch.setattr(classify, "_omega_integrand", counted_integrand)
        top_rung = 7 * classify.QUAD_ORDER * classify.QUAD_PANELS[-1]
        for tol in (classify.REFINE_TOL, -1.0):
            monkeypatch.setattr(classify, "REFINE_TOL", tol)
            reports = []
            for cap in (1, 997, classify.CALL_ROWS):
                monkeypatch.setattr(classify, "CALL_ROWS", cap)
                calls.clear()
                reports.append(render_json(run_certify(
                    chart, RunConfig(points=CHUNK_POINTS, seed=5))))
                assert max(calls) <= max(cap, top_rung)
            assert reports[1:] == reports[:1] * 2
        if "slab" not in name:      # every point climbs to the top rung
            assert calls[-2:] == [8064, 6272]

    @staticmethod
    def _power_spec(tmp_path, power, t_range):
        """g = t^power diag(-1, 1, 1, 1) on t in ``t_range``, basepoint at
        its lower end: a conformally flat metric, so div C = 0."""
        spec = dict(FRW_DUST_SPEC, name=f"t{power}",
                    metric={f"{i},{i}": ("-" if i == 1 else "") + f"t^{power}"
                            for i in range(1, 5)},
                    velocity_field=[f"-t^{power // 2}", "0", "0", "0"],
                    basepoint=[t_range[0], 0, 0, 0])
        spec["domain"] = dict(spec["domain"], ranges=dict(
            spec["domain"]["ranges"], t=t_range))
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.mark.parametrize("power, t_lo, t_hi, point",
                             [(199, 1, 40, 3), (199, 34, 35, 0)])
    def test_nan_residual_fails_at_any_point(self, tmp_path, power, t_lo,
                                             t_hi, point):
        # At k = 199 the Ricci gradient overflows to NaN from about
        # t = 34.4 on (C is formed from values only): on t in [1, 40]
        # first at run point 3 (t = 34.43...), on [34, 35] already at
        # point 0. Either way the record fails and names the point, and
        # numpy prints no warning beside it.
        path = self._power_spec(tmp_path, power, [t_lo, t_hi])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_certify(path, RunConfig(points=10, seed=0))
        rec = report.find("div-weyl")
        assert rec.status == "fail" and math.isnan(rec.max_residual)
        assert rec.detail["error"] == f"point {point}: the residual is NaN"
        assert report.verdict == "fail"

    def test_nan_report_is_strict_json(self, tmp_path):
        # A NaN residual is written as null, never as a bare NaN token: a
        # strict parser reads the report, and each such record fails and
        # names its point.
        out = tmp_path / "report.json"
        path = self._power_spec(tmp_path, 199, [34, 35])
        assert main(["certify", path, "--points", "10", "--quiet",
                     "--json", str(out)]) == 1

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        nulls = [rec for rec in payload["checks"]
                 if rec["status"] == "fail" and rec["max_residual"] is None]
        assert [rec["name"] for rec in nulls] == [
            "ricci-symmetric", "bianchi-first", "weyl-tracefree",
            "fluid-form", "div-weyl"]
        for rec in nulls:
            assert rec["detail"]["error"].endswith(": the residual is NaN")

    def test_conformally_flat_power_keeps_div_weyl_finite(self, tmp_path):
        # div C is formed from the Ricci and R gradients, never from
        # derivatives of C itself, which overflow here: at k = 100 it
        # reads the round-off of a conformally flat metric.
        path = self._power_spec(tmp_path, 100, [1, 40])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run_certify(path, RunConfig(points=10, seed=0)).find(
                "div-weyl")
        assert math.isfinite(rec.max_residual)
        assert rec.max_residual <= 1e-12 and rec.status == "pass"

    def test_singular_metric_names_the_run_point(self, tmp_path, capsys):
        # The second chunk's first point is singular: the error names its
        # index in the run, not in the chunk.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec.update(name="singular", velocity_field=None, basepoint=None)
        spec["metric"]["2,2"] = "t^(4/3)*(x - 0.125)^2"
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(spec))
        from grwcert.chart import compile_chart, sample_points
        from grwcert.schema import load_chart_input
        chart = compile_chart(load_chart_input(str(path)))
        points = sample_points(chart, CHUNK_POINTS + 1, 0)
        x = float(points[CHUNK_POINTS].coords[1])
        spec["metric"]["2,2"] = f"t^(4/3)*(x - ({x!r}))^2"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points",
                     str(CHUNK_POINTS + 1), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: metric matrix is singular at point "
                              f"{CHUNK_POINTS}, coordinates (")
        assert f"{x!r}" in err and "np.float64" not in err

    @pytest.mark.parametrize("t_low, seed", [
        (-1, 0),          # bad points in both chunks, the first in the first
        (-0.02, 2),       # one bad point, in the second chunk
    ])
    def test_bad_sample_point_names_itself(self, tmp_path, capsys, t_low,
                                           seed):
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec.update(name="bad-domain", basepoint=None, velocity_field=None)
        spec["metric"] = {"1,1": "-1", "2,2": "1+sqrt(t)", "3,3": "1",
                          "4,4": "1"}
        spec["domain"]["ranges"]["t"] = [t_low, 3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        count = 2 * CHUNK_POINTS
        points = sample_points(compile_chart(load_chart_input(str(path))),
                               count, seed)
        bad = [i for i, p in enumerate(points) if p.coords[0] <= 0]
        index = bad[0]
        assert (index < CHUNK_POINTS <= bad[-1] if t_low == -1
                else bad == [index] and index >= CHUNK_POINTS)
        coords = tuple(float(c) for c in points[index].coords)
        json_path = tmp_path / "bad-report.json"
        # With a worker per chunk, the first bad point in run order is
        # named, whichever chunk fails first.
        for workers in ("1", "2"):
            assert main(["certify", str(path), "--points", str(count),
                         "--seed", str(seed), "--workers", workers, "--quiet",
                         "--json", str(json_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: sqrt at offset 2: argument {coords[0]!r} is not "
                f"positive at point {index}, coordinates {coords}\n")
            assert not json_path.exists()

        # The same points with a flat metric and the square root in the
        # velocity: the per-point walk names the point the same way.
        spec["metric"] = {"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1"}
        spec["velocity_field"] = ["-1 + 0*sqrt(t)", "0", "0", "0"]
        path.write_text(json.dumps(spec))
        for workers in ("1", "2"):
            assert main(["certify", str(path), "--points", str(count),
                         "--seed", str(seed), "--workers", workers, "--quiet",
                         "--json", str(json_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: sqrt at offset 7: argument {coords[0]!r} is not "
                f"positive at point {index}, coordinates {coords}\n")
            assert not json_path.exists()

    def test_non_finite_ricci_fails_the_split(self, tmp_path, capsys):
        # sin(1e155 x) is finite, but its second derivative overflows: R^i_j
        # is not finite at any point. The run still writes its report, in
        # which the eigen-split fails and names the point.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["metric"] = {"1,1": "-1", "2,2": "2 + sin(1e155*x)", "3,3": "1",
                          "4,4": "1"}
        path, json_path = tmp_path / "spike.json", tmp_path / "report.json"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points", "3", "--quiet",
                     "--json", str(json_path)]) == 1
        assert capsys.readouterr().err == ""
        records = {rec["name"]: rec
                   for rec in json.loads(json_path.read_text())["checks"]}
        split = records["fluid-decompose"]
        assert split["status"] == "fail"
        assert split["detail"]["error"] == "point 0: R^i_j is not finite"
        assert split["detail"]["branches"] == {"anomalous": 3}

    def test_overflow_on_the_path_is_a_point_error(self):
        # Sampled points keep x < 1, where exp(700*x) is finite; the
        # path starts at the basepoint's x = 1.05, where it overflows.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["metric"]["2,2"] = "1 + 0*exp(700*x)"
        spec["domain"]["ranges"]["x"] = [-1, 1.1]
        spec["domain"]["exclusions"] = [{"expr": "1 - x", "margin": 0}]
        spec["basepoint"] = [1, 1.05, 0, 0]
        report = run_certify(spec, RunConfig(points=3))
        error = report.find("chen-vector").detail["error"]
        head = ("point 0: path from basepoint: exp at offset 6: "
                "math range error at path row 0, coordinates (")
        assert error.startswith(head)
        # Row 0, the segment's first node, lies where exp(700*x) overflows.
        coords = ast.literal_eval(error[len(head) - 1:])
        assert coords[1] > math.log(sys.float_info.max) / 700
        # soliton-form reads u and its derivatives at the point only.
        soliton = report.find("soliton-form")
        assert soliton.max_residual is not None
        assert "error" not in soliton.detail

    def test_velocity_off_its_domain_on_the_path(self):
        # Sampled points keep x < 1, where ln(1 - x) is defined; sigma's
        # path starts at the basepoint's x = 1.05, where the velocity is
        # not. soliton-form reads no path.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["velocity_field"][0] = "-1 + 0*ln(1 - x)"
        spec["domain"]["ranges"]["x"] = [-1, 1.1]
        spec["domain"]["exclusions"] = [{"expr": "1 - x", "margin": 0}]
        spec["basepoint"] = [1, 1.05, 0, 0]
        report = run_certify(spec, RunConfig(points=3))
        assert report.find("chen-vector").detail["error"].startswith(
            "point 0: path from basepoint: ln at offset 7: argument ")
        soliton = report.find("soliton-form")
        assert soliton.status == "pass"
        assert soliton.max_residual < 1e-12
        assert "error" not in soliton.detail

    def test_overflow_at_a_sample_point_names_it(self, tmp_path, capsys):
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec.update(name="overflow", basepoint=None)
        spec["metric"]["2,2"] = "1 + 0*exp(700*t)"
        spec["domain"]["ranges"]["t"] = [0.5, 1.1]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(spec))
        points = sample_points(compile_chart(load_chart_input(str(path))),
                               10, 0)
        edge = math.log(sys.float_info.max) / 700
        index = next(i for i, p in enumerate(points) if p.coords[0] > edge)
        coords = tuple(float(c) for c in points[index].coords)
        assert main(["certify", str(path), "--points", "10", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: exp at offset 6: math range error at point {index}, "
            f"coordinates {coords}\n")

    def test_text_contains_divweyl_anchor(self, spec_file):
        text = render_text(run_certify(spec_file, RunConfig(points=4)))
        assert "∇_m C_{jkl}^m = 0" in text

    def test_skipped_reason_in_json(self, spec_file):
        report = run_certify(spec_file, RunConfig(points=4))
        payload = json.loads(render_json(report))
        skipped = [c for c in payload["checks"] if c["status"] == "skipped"]
        assert skipped and all(c["skipped_reason"] for c in skipped)

    def test_every_catalog_report_serializes(self):
        for name in catalog_names():
            report = run_certify(catalog_get(name).chart,
                                 RunConfig(points=3, seed=4))
            json.loads(render_json(report))


class TestCliCommands:
    def test_certify_exit_zero_and_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["certify", str(spec_file), "--points", "5",
                     "--json", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verdict PASS" in stdout
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "pass"
        assert payload["schema"] == 1
        assert payload["metric"] == "frw-dust-file"

    def test_certify_failure_exit_one(self, tmp_path):
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["name"] = "broken"
        spec["metric"]["2,2"] = "t^(4/3)+0.2*x^2"   # spoils the fluid form
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points", "4",
                     "--quiet"]) == 1

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nodim.json"
        spec = {k: v for k, v in FRW_DUST_SPEC.items() if k != "dimension"}
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["certify", str(path)]) == 2

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == catalog_names()

    def test_catalog_run_unknown_name_exit_two(self, capsys):
        # Refused like every other exit-2 error, with its "error: " prefix.
        assert main(["catalog", "run", "nope", "--points", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown catalog metric 'nope'; choose from "
            f"{', '.join(catalog_names())}\n")

    def test_catalog_run_positive(self, capsys):
        code = main(["catalog", "run", "frw-dust", "--points", "5",
                     "--quiet"])
        assert code == 0
        assert "match expectations" in capsys.readouterr().out

    def test_catalog_run_negative_control_matches(self, capsys):
        code = main(["catalog", "run", "kasner-negative", "--points", "4",
                     "--quiet"])
        assert code == 0

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_run_every_entry_matches(self, name):
        assert main(["catalog", "run", name, "--points", "10",
                     "--quiet"]) == 0

    @pytest.mark.parametrize("key, value, message", [
        ("scalars", {"w": 0.5}, "eos-slope: w = "),
        ("scalars", {"A": 1.0}, "fluid-decompose: A_min = "),
        ("branch", "homothetic",
         "ckv-branch: 0 homothetic and 4 proper points, expected every "
         "point homothetic"),
        ("ok", ("ckv-branch",), "ckv-branch: expected within tolerance, "
                                "got status informational ok=None"),
        ("not_ok", ("u-closed",), "u-closed: expected out of tolerance, "
                                  "got status pass ok=True"),
        ("informational", ("u-closed",),
         "u-closed: expected informational, got status pass"),
        ("verdict", "fail", "verdict 'pass', expected 'fail'"),
        ("fluid", "degenerate",
         "fluid branch 'nondegenerate', expected 'degenerate'"),
    ])
    def test_catalog_run_wrong_expectation(self, monkeypatch, capsys, key,
                                           value, message):
        monkeypatch.setitem(catalog_get("frw-dust").expected, key, value)
        assert main(["catalog", "run", "frw-dust", "--points", "4",
                     "--quiet"]) == 1
        assert message in capsys.readouterr().err

    def test_catalog_run_fluid_branch_is_the_split(self, capsys):
        # Every point splits nondegenerately: a bar of 1e-20 fails the
        # residuals, not the branch.
        assert main(["catalog", "run", "frw-dust", "--points", "4",
                     "--quiet", "--tol", "1e-20"]) == 1
        err = capsys.readouterr().err
        assert "verdict 'fail', expected 'pass'" in err
        assert "fluid branch" not in err

    @pytest.mark.parametrize("name", ["frw-dust", "grw5-sphere"])
    @pytest.mark.parametrize("checks", [
        "sanity,fluid,hypotheses,ladder", "conclusions", "converse",
        "physics"])
    def test_catalog_run_subset_matches(self, name, checks):
        # Only the expectations on the selected groups are compared.
        assert main(["catalog", "run", name, "--points", "4", "--quiet",
                     "--checks", checks]) == 0

    def test_catalog_run_subset_wrong_expectation(self, monkeypatch, capsys):
        argv = ["catalog", "run", "frw-dust", "--points", "4", "--quiet",
                "--checks", "sanity,fluid,hypotheses"]
        assert main(argv) == 0
        expected = catalog_get("frw-dust").expected
        monkeypatch.setitem(expected, "scalars", {"w": 0.5})   # physics
        assert main(argv) == 0
        monkeypatch.setitem(expected, "scalars", {"A": 1.0})   # fluid
        assert main(argv) == 1
        assert "fluid-decompose: A_min = " in capsys.readouterr().err

    def test_negative_seed_exit_two(self, capsys):
        assert main(["catalog", "run", "frw-dust", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, not -1\n")

    @pytest.mark.parametrize("checks", [",", " ", ""])
    def test_empty_checks_exit_two(self, capsys, checks):
        assert main(["catalog", "run", "kasner-negative", "--points", "2",
                     "--checks", checks]) == 2
        assert capsys.readouterr().err == (
            "error: no check groups selected; valid groups: sanity, fluid, "
            "hypotheses, conclusions, ladder, physics, converse\n")

    def test_numpy_random_never_imported(self, tmp_path):
        # Sampling draws numpy's stream without importing numpy.random,
        # whose import costs more than a small run's whole sampling.
        dense, spec = dense_pullback_input(), tmp_path / "dense.json"
        spec.write_text(json.dumps(dict(
            FRW_DUST_SPEC, name=dense.name, metric=dense.metric,
            velocity_field=dense.velocity_field, basepoint=dense.basepoint,
            domain={"ranges": dense.ranges, "exclusions": [
                {"expr": e, "margin": m} for e, m in dense.exclusions]})))
        runs = [["catalog", "run", "frw-dust", "--points", "2", "--quiet"],
                ["certify", str(spec), "--points", "3", "--quiet"]]
        script = ("import sys\n"
                  "from grwcert.cli import main\n"
                  f"for argv in {runs!r}:\n"
                  "    assert main(argv) == 0, argv\n"
                  "    assert 'numpy.random' not in sys.modules, argv\n")
        src = str(Path(grwcert.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_catalog_unknown_name(self, capsys):
        assert main(["catalog", "run", "schwarzschild"]) == 2

    def test_ladder_subcommand(self, spec_file, capsys):
        assert main(["ladder", str(spec_file), "--points", "4",
                     "--quiet"]) == 0

    def test_ladder_offers_no_checks(self, spec_file, capsys):
        # ladder runs its own four groups; a --checks it ignored would
        # claim a selection it never made.
        with pytest.raises(SystemExit) as exit_:
            main(["ladder", str(spec_file), "--points", "4",
                  "--checks", "physics"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --checks physics" in (
            capsys.readouterr().err)

    def test_kappa_is_not_an_option(self, capsys):
        # p and mu are in units with kappa = 1: a coupling would only
        # rescale them, and moves no verdict.
        with pytest.raises(SystemExit) as exit_:
            main(["catalog", "run", "frw-dust", "--points", "3",
                  "--kappa", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --kappa 1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("basepoint, message", [
        ("1,0", "basepoint must have 4 entries"),
        ("1,0,0,5", "basepoint[z] = 5.0 outside range [-1.0, 1.0]"),
        ("1,0,0,nan", "basepoint[z] = nan outside range [-1.0, 1.0]"),
        ("1,0,0,abc", "--basepoint: entry 4, 'abc', is not a number"),
        ("", "--basepoint: entry 1, '', is not a number"),
    ])
    def test_bad_basepoint_exit_two(self, capsys, basepoint, message):
        assert main(["catalog", "run", "frw-dust", "--points", "3",
                     "--basepoint", basepoint]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, offset", [
        ("t" + "+t" * 1500, 199), ("(" * 400 + "t" + ")" * 400, 100)],
        ids=["long-chain", "deep-parentheses"])
    def test_deep_expression_exit_two(self, tmp_path, capsys, text, offset):
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["metric"]["2,2"] = text
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points", "2", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: metric.2,2: syntax error at offset {offset}: nesting "
            f"deeper than 100 levels\n")

    @pytest.mark.parametrize("field, message", [
        ("metric", "metric.2,2: sqrt at offset 0: argument -1.5 is not "
                   "positive"),
        ("exclusion", "domain.exclusions[1].expr: ln at offset 0: "
                      "argument -3.5 is not positive")])
    def test_probe_point_domain_error_names_field(self, tmp_path, capsys,
                                                  field, message):
        # The probe point is the middle of the range box, t = 1.5.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        if field == "metric":
            spec["metric"]["2,2"] = "sqrt(-t)"
        else:
            spec["domain"]["exclusions"] = [{"expr": "t", "margin": 0},
                                            {"expr": "ln(t - 5)", "margin": 0}]
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points", "2", "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("metric, message", [
        ({"1,1": "-1", "2,2": "-1", "3,3": "1", "4,4": "1"},
         "signature: expected one negative eigenvalue, found 2"),
        (dict(FRW_DUST_SPEC["metric"], **{"2,2": "1e308*10"}),
         "metric: not finite at (1.5, 0.0, 0.0, 0.0)")],
        ids=["two-negative", "overflow"])
    def test_probe_point_metric_refused(self, tmp_path, capsys, metric,
                                        message):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(dict(FRW_DUST_SPEC, metric=metric)))
        assert main(["certify", str(path), "--points", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [[], ["catalog"]])
    def test_missing_command_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "the following arguments are required" in (
            capsys.readouterr().err)

    def test_sampling_domain_error_names_exclusion_and_candidate(
            self, tmp_path, capsys):
        # Defined at the probe point t = 1.5 and at the 5 first candidates;
        # the 30-point draw has a candidate below t = 1.2, where the
        # exclusion itself is undefined.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["domain"]["exclusions"] = [{"expr": "ln(t-1.2)+10", "margin": 0}]
        path = tmp_path / "exclusion.json"
        path.write_text(json.dumps(spec))
        assert main(["certify", str(path), "--points", "5", "--quiet"]) == 0
        assert main(["certify", str(path), "--points", "30", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: domain.exclusions[0].expr: ln at offset 0: argument "
            "-0.171680328854537 is not positive at sample candidate "
            "(1.028319671145463, -0.7514334470008721, 0.34124882938726064, "
            "0.2943790231485002)\n")

    def test_tol_flag_applies(self, spec_file):
        # an absurdly tight tolerance flips the verdict
        assert main(["certify", str(spec_file), "--points", "4",
                     "--tol", "1e-30", "--quiet"]) == 1

    @pytest.mark.parametrize("flag, label", [
        ("--tol", "hypothesis_tol"), ("--hypothesis-tol", "hypothesis_tol"),
        ("--conclusion-tol", "conclusion_tol"),
        ("--cluster-tol", "cluster_tol")])
    def test_infinite_tolerance_exit_two(self, capsys, flag, label):
        # An infinite bar passes every residual: on grw-nonEinstein-fiber
        # it would turn fiber-einstein, div-weyl and fluid-form into passes.
        assert main(["catalog", "run", "grw-nonEinstein-fiber", "--points",
                     "2", "--quiet", flag, "inf"]) == 2
        assert capsys.readouterr().err == (
            f"error: {label} must be a positive finite number, not inf\n")

    @pytest.mark.parametrize("flag", ["--hypothesis-tol", "--conclusion-tol"])
    def test_tol_with_a_per_kind_tol_exit_two(self, spec_file, capsys, flag):
        # --tol sets both tolerances: an explicit per-kind one beside it
        # would be dropped, so the pair is refused.
        assert main(["certify", str(spec_file), "--points", "2", "--quiet",
                     "--tol", "1e-5", flag, "1e-9"]) == 2
        assert capsys.readouterr().err == (
            f"error: --tol cannot be combined with {flag}: --tol sets both "
            f"tolerances\n")
