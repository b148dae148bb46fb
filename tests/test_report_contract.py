"""The report contract: catalog reports against committed golden files,
and the outcome rule that every report's records keep.

``tests/golden/<name>.json`` is ``grwcert catalog run <name> --json`` at
seed 0 with 10 points. A change may move a float in its last bits (so may
another BLAS build) but nothing else: the verdict, every record's status,
ok and required fields and every non-float detail must match exactly, and
every float x within 1e-12 (1 + |x|).
"""

import json
import math
from pathlib import Path

import pytest

from grwcert.certify import CHECKS, RunConfig, run_certify
from grwcert.grw import catalog_get, catalog_names
from grwcert.report import render_json, report_to_dict

from .test_downgrades import GODEL_SPEC

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12

# frw-dust with sqrt(t - 0.2) in g_22: the sampled points avoid t <= 0.5,
# but sigma's path from the basepoint at t = 0.1 leaves sqrt's domain, so
# no point carries a potential.
BAD_PATH_SPEC = {
    "schema": 1, "name": "frw-dust-sqrt", "dimension": 4,
    "signature": "lorentzian", "coordinates": ["t", "x", "y", "z"],
    "metric": {"1,1": "-1", "2,2": "t^(4/3)*sqrt(t-0.2)",
               "3,3": "t^(4/3)", "4,4": "t^(4/3)"},
    "velocity_field": ["-1", "0", "0", "0"],
    "domain": {"ranges": {"t": [0.1, 2], "x": [-1, 1], "y": [-1, 1],
                          "z": [-1, 1]},
               "exclusions": [{"expr": "t - 0.5", "margin": 0}]},
    "basepoint": [0.1, 0, 0, 0],
}
# The unit S^2: a Riemannian chart, certified by the sanity group only.
S2_SPEC = {
    "schema": 1, "name": "s2", "dimension": 2, "signature": "riemannian",
    "coordinates": ["theta", "phi"],
    "metric": {"1,1": "1", "2,2": "sin(theta)^2"},
    "domain": {"ranges": {"theta": [0.3, 2.84], "phi": [0, 6.2]}},
}


def assert_matches(got, want, path="report"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert (got == want or (math.isnan(got) and math.isnan(want))
                or abs(got - want) <= FLOAT_RTOL * (1.0 + abs(want))), \
            (path, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key, value in want.items():
            assert_matches(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (mine, value) in enumerate(zip(got, want)):
            assert_matches(mine, value, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_every_catalog_entry_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == \
        sorted(catalog_names())


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    env = want["environment"]
    report = run_certify(catalog_get(name).chart,
                         RunConfig(points=env["points"], seed=env["seed"]))
    assert_matches(json.loads(render_json(report)), want)


def test_comparison_rule():
    # A last-bit move passes; a status, a detail or a larger move does not.
    base = {"verdict": "pass", "checks": [{"status": "pass", "ok": True,
                                           "max_residual": 1.0,
                                           "detail": {"w": "undefined"}}]}
    moved = json.loads(json.dumps(base))
    moved["checks"][0]["max_residual"] = 1.0 + 1e-15
    assert_matches(moved, base)
    for key, value in (("status", "fail"), ("ok", False),
                       ("max_residual", 1.0 + 1e-11),
                       ("detail", {"w": 0.0})):
        broken = json.loads(json.dumps(base))
        broken["checks"][0][key] = value
        with pytest.raises(AssertionError):
            assert_matches(broken, base)


@pytest.mark.parametrize("name", [*catalog_names(), "godel", "bad-path", "s2"])
def test_outcome_rule(name):
    # required and the verdict follow from the statuses, ok from the
    # status, and a row without a bar is informational by the table.
    specs = {"godel": GODEL_SPEC, "bad-path": BAD_PATH_SPEC, "s2": S2_SPEC}
    source = specs[name] if name in specs else catalog_get(name).chart
    report = run_certify(source, RunConfig(points=4, seed=0))
    oks = {"pass": (True,), "fail": (False,), "degenerate": (False,),
           "informational": (True, False, None), "skipped": (None,)}
    for row, rec, data in zip(CHECKS, report.checks,
                              report_to_dict(report)["checks"]):
        assert rec.name == row.name
        assert rec.required == (rec.status in ("pass", "fail", "degenerate"))
        assert data["required"] is rec.required, rec.name
        assert rec.ok in oks[rec.status], (rec.name, rec.status, rec.ok)
        if row.tol is None:
            assert rec.status in ("informational", "skipped"), rec.name
    failed = any(rec.status in ("fail", "degenerate") for rec in report.checks)
    assert report.verdict == ("fail" if failed else "pass")


def test_ckv_branch_without_a_potential_is_skipped():
    # Every point's sigma path is refused: ckv-branch has no point to
    # count, as ckv-gradient and homothetic-triple have none to check.
    report = run_certify(BAD_PATH_SPEC, RunConfig(points=3))
    for name in ("ckv-gradient", "potential-path-independence", "ckv-branch"):
        rec = report.find(name)
        assert (rec.status, rec.skipped_reason) == (
            "skipped", "potential reconstruction unavailable"), name
        assert rec.detail == {}, name
    assert report.find("homothetic-triple").status == "skipped"


def test_find_of_an_unknown_record_raises_key_error():
    report = run_certify(S2_SPEC, RunConfig(points=1))
    assert report.find("signature").name == "signature"
    with pytest.raises(KeyError, match="no-such-check"):
        report.find("no-such-check")
