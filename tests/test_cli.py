import json
import math
import sys

import pytest

from grwcert import certify, classify
from grwcert.certify import CHUNK_POINTS, RunConfig, run_certify
from grwcert.chart import ChartError, compile_chart, sample_points
from grwcert.classify import (LADDER_NAMES, VelocityAnalysis, geodesic_at,
                              ladder_residuals_at)
from grwcert.cli import main
from grwcert.grw import catalog_get, catalog_names
from grwcert.physics import motion_at
from grwcert.report import render_json, render_text, report_to_dict
from grwcert.schema import SpecFileError, chart_input_to_dict, load_chart_input

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

    def test_round_trip_through_dict(self):
        spec = load_chart_input(dict(FRW_DUST_SPEC))
        again = load_chart_input(chart_input_to_dict(spec))
        assert again.metric == {k: str(v) for k, v in
                                FRW_DUST_SPEC["metric"].items()}


class TestRunCertify:
    def test_spec_file_pass(self, spec_file):
        report = run_certify(spec_file, RunConfig(points=6, seed=1))
        assert report.verdict == "pass"
        assert report.find("u-closed").ok
        assert report.find("div-weyl").ok
        # no declared warp, so the converse suite is skipped
        assert report.find("fiber-einstein").status == "skipped"

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

    def test_check_selection(self, spec_file):
        report = run_certify(spec_file,
                             RunConfig(points=4, checks=("sanity", "ladder")))
        assert report.find("bianchi-first").status == "pass"
        assert report.find("u-closed").status == "skipped"
        assert report.find("u-closed").skipped_reason == "not selected"
        assert report.find("gamma-comoving").status == "pass"

    def test_unread_potentials_not_integrated(self, spec_file, monkeypatch):
        # No record of these groups reads sigma or theta: no quadrature
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
                             [(("physics",), 1), (("conclusions",), 2)])
    def test_potentials_follow_selection(self, spec_file, monkeypatch,
                                         groups, potentials):
        # sigma feeds homothetic-triple (physics) and the conclusions;
        # theta feeds soliton-form (conclusions) only.
        calls = []
        integrate = classify._integrate_form

        def counted(*args, **kwargs):
            calls.append(args[0])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(classify, "_integrate_form", counted)
        report = run_certify(spec_file, RunConfig(points=3, checks=groups))
        assert len(calls) == 3 * potentials
        if "physics" in groups:
            assert report.find("homothetic-triple").status == "pass"

    @pytest.mark.parametrize("groups, split, velocity", [
        (("sanity",), 0, 0), (("converse",), 1, 0), (("ladder",), 0, 1),
        (("hypotheses",), 0, 1), (("fluid",), 1, 1), (None, 1, 1)])
    def test_point_work_follows_selection(self, monkeypatch, groups, split,
                                          velocity):
        # No sanity record reads the fluid split or the velocity's jets.
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
        assert calls == {"split": split * points,
                         "velocity": velocity * points}

    def test_unknown_group_rejected(self, spec_file):
        with pytest.raises(ValueError):
            run_certify(spec_file, RunConfig(checks=("nonsense",)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(points=0)
        with pytest.raises(ValueError):
            RunConfig(hypothesis_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        for kappa in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="kappa must be positive"):
                RunConfig(kappa=kappa)

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
    """A report's record is the max of its per-point kernel over the sample
    points: the chunked stack gives each point the numbers of its own
    one-point stack."""

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
        fps = [analysis.at(p) for p in sample_points(chart, 10, 0)]

        def record(check):
            return report.find(check).max_residual

        geodesic = record("geodesic")
        assert geodesic > 0.01
        assert max(geodesic_at(fp) for fp in fps) == geodesic
        motion = [motion_at(fp) for fp in fps]
        assert (max(r1 for r1, _ in motion), max(r2 for _, r2 in motion)) \
            == (record("motion-energy"), record("motion-euler"))
        ladder = [ladder_residuals_at(fp) for fp in fps]
        for check in LADDER_NAMES:
            assert max(rungs[check] for rungs in ladder) == record(check), \
                check


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
        # chunk, the point work fans out within each.
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
        (-1, 0),          # the first bad point is in the first chunk
        (-0.3, 2),        # ... in the second
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
        points = sample_points(compile_chart(load_chart_input(str(path))),
                               20, seed)
        index = next(i for i, p in enumerate(points) if p.coords[0] <= 0)
        assert (index < CHUNK_POINTS) == (t_low == -1)
        coords = tuple(float(c) for c in points[index].coords)
        json_path = tmp_path / "bad-report.json"
        assert main(["certify", str(path), "--points", "20", "--seed",
                     str(seed), "--quiet", "--json", str(json_path)]) == 2
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
            assert main(["certify", str(path), "--points", "20", "--seed",
                         str(seed), "--workers", workers, "--quiet",
                         "--json", str(json_path)]) == 2
            assert capsys.readouterr().err == (
                f"error: sqrt at offset 7: argument {coords[0]!r} is not "
                f"positive at point {index}, coordinates {coords}\n")
            assert not json_path.exists()

    def test_overflow_on_the_path_is_a_point_error(self):
        # Sampled points keep x < 1, where exp(700*x) is finite; the
        # path starts at the basepoint's x = 1.05, where it overflows.
        spec = json.loads(json.dumps(FRW_DUST_SPEC))
        spec["metric"]["2,2"] = "1 + 0*exp(700*x)"
        spec["domain"]["ranges"]["x"] = [-1, 1.1]
        spec["domain"]["exclusions"] = [{"expr": "1 - x", "margin": 0}]
        spec["basepoint"] = [1, 1.05, 0, 0]
        report = run_certify(spec, RunConfig(points=3))
        assert report.find("chen-vector").detail["error"] == (
            "point 0: path from basepoint: exp at offset 6: "
            "math range error")
        # theta integrates u alone, which has no exp.
        soliton = report.find("soliton-form")
        assert soliton.max_residual is not None
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

    def test_emit_report_both_formats(self, spec_file, tmp_path):
        from grwcert.report import emit_report
        report = run_certify(spec_file, RunConfig(points=4))
        json_path = emit_report(report, "json", tmp_path / "r.json")
        text_path = emit_report(report, "text", tmp_path / "r.txt")
        assert json.loads(json_path.read_text())["metric"] == "frw-dust-file"
        assert "verdict" in text_path.read_text()
        with pytest.raises(ValueError):
            emit_report(report, "yaml", tmp_path / "r.yaml")


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

    def test_catalog_run_positive(self, capsys):
        code = main(["catalog", "run", "frw-dust", "--points", "5",
                     "--quiet"])
        assert code == 0
        assert "match expectations" in capsys.readouterr().out

    def test_catalog_run_negative_control_matches(self, capsys):
        code = main(["catalog", "run", "kasner-negative", "--points", "4",
                     "--quiet"])
        assert code == 0

    def test_catalog_unknown_name(self, capsys):
        assert main(["catalog", "run", "schwarzschild"]) == 2

    def test_ladder_subcommand(self, spec_file, capsys):
        assert main(["ladder", str(spec_file), "--points", "4",
                     "--quiet"]) == 0

    def test_kappa_zero_exit_two(self, capsys):
        assert main(["catalog", "run", "frw-dust", "--points", "3",
                     "--kappa", "0"]) == 2
        assert capsys.readouterr().err == "error: kappa must be positive\n"

    @pytest.mark.parametrize("basepoint, message", [
        ("1,0", "basepoint must have 4 entries"),
        ("1,0,0,5", "basepoint[z] = 5.0 outside range [-1.0, 1.0]"),
        ("1,0,0,nan", "basepoint[z] = nan outside range [-1.0, 1.0]"),
        ("1,0,0,abc", "--basepoint: entry 4, 'abc', is not a number"),
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
