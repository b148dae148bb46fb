"""The report contract: catalog reports against committed golden files.

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

from grwcert.certify import RunConfig, run_certify
from grwcert.grw import catalog_get, catalog_names
from grwcert.report import render_json

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12


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
