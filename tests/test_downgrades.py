"""The downgrade rules: which records rest on which hypotheses, and what a
report says when a hypothesis is not established."""

import pytest

from grwcert.certify import CHECKS, RunConfig, _SCOPE, run_certify
from grwcert.grw import catalog_get
from grwcert.report import INFORMATIONAL, PASS, SKIPPED

from .test_cli import FRW_DUST_SPEC

FORWARD_GROUPS = ("conclusions", "ladder", "physics")

# Gödel's rotating dust: R_ab = u_a u_b, so A = 0 and B = 1, and u is not
# closed (it rotates), so the forward theorem's hypotheses fail.
GODEL_SPEC = {
    "schema": 1,
    "name": "godel",
    "dimension": 4,
    "signature": "lorentzian",
    "coordinates": ["t", "x", "y", "z"],
    "parameters": {},
    "metric": {"1,1": "-1", "1,4": "-exp(x)", "2,2": "1", "3,3": "1",
               "4,4": "-0.5*exp(2*x)"},
    "velocity_field": ["-1", "0", "0", "-exp(x)"],
    "domain": {"ranges": {"t": [-1, 1], "x": [-0.5, 0.5], "y": [-1, 1],
                          "z": [-1, 1]}, "exclusions": []},
    "basepoint": [0, 0, 0, 0],
}


def downgraded(report):
    """Record name -> downgrade reason, for the records that carry one."""
    return {rec.name: rec.detail["downgraded"] for rec in report.checks
            if "downgraded" in rec.detail}


def evaluated_forward(report):
    """The forward conclusions that carry a bar and were evaluated."""
    return [rec for rec in report.checks if rec.group in FORWARD_GROUPS
            and rec.status != SKIPPED and rec.tolerance is not None]


def test_no_velocity_u_closed_not_evaluable():
    # Only the electric Weyl records run without a velocity field (on the
    # eigen-split's velocity); closedness cannot be evaluated.
    spec = {k: v for k, v in FRW_DUST_SPEC.items() if k != "velocity_field"}
    report = run_certify(spec, RunConfig(points=4, seed=1))
    reason = "hypothesis not established: u-closed not evaluable"
    assert downgraded(report) == {"weyl-electric": reason,
                                  "weyl-zero-n4": reason}
    for name in ("weyl-electric", "weyl-zero-n4"):
        assert report.find(name).status == INFORMATIONAL
        assert report.find(name).required is False


def test_no_velocity_einstein_chart_weyl_norm():
    # de Sitter with no velocity field: the eigen-split is degenerate, so
    # there is no u, yet C = 0 is still measured; the record stays
    # downgraded for the degenerate split.
    spec = {"schema": 1, "name": "desitter-no-velocity", "dimension": 4,
            "signature": "lorentzian", "coordinates": ["t", "x", "y", "z"],
            "parameters": {},
            "metric": {"1,1": "-1", "2,2": "exp(2*t)", "3,3": "exp(2*t)",
                       "4,4": "exp(2*t)"},
            "domain": {"ranges": {"t": [0, 1], "x": [-1, 1], "y": [-1, 1],
                                  "z": [-1, 1]}, "exclusions": []}}
    rec = run_certify(spec, RunConfig(points=4, seed=0)).find("weyl-zero-n4")
    assert rec.max_residual < 1e-12
    assert rec.ok is True
    assert rec.status == INFORMATIONAL
    assert rec.detail["downgraded"] \
        == "hypothesis not established: fluid-decompose degenerate"


class TestGodel:
    """A negative control: a perfect fluid whose velocity is not closed."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_certify(GODEL_SPEC, RunConfig(points=6, seed=0))

    def test_fluid_scalars(self, report):
        rec = report.find("fluid-decompose")
        assert rec.ok
        assert rec.detail["A_min"] == pytest.approx(0.0, abs=1e-12)
        assert rec.detail["A_max"] == pytest.approx(0.0, abs=1e-12)
        assert rec.detail["B_min"] == pytest.approx(1.0, abs=1e-12)
        assert rec.detail["B_max"] == pytest.approx(1.0, abs=1e-12)
        assert report.find("fluid-form").ok
        assert report.find("u-unit").ok

    def test_hypotheses_fail(self, report):
        assert report.find("u-closed").ok is False
        assert report.find("u-closed").max_residual > 0.1
        assert report.find("div-weyl").ok is False
        assert report.verdict == "fail"

    def test_every_conclusion_downgraded(self, report):
        records = evaluated_forward(report)
        assert len(records) >= 20
        for rec in records:
            assert rec.status == INFORMATIONAL, rec.name
            assert rec.required is False, rec.name
            assert rec.detail["downgraded"] \
                == "hypothesis not established: u-closed failed", rec.name

    def test_unselected_hypotheses_downgrade_nothing(self, report):
        alone = run_certify(GODEL_SPEC, RunConfig(points=6, seed=0,
                                                  checks=("conclusions",)))
        assert downgraded(alone) == {}
        assert report.find("u-closed").ok is False
        assert alone.find("u-closed").skipped_reason == "not selected"
        # Without their hypotheses the conclusions are required, and
        # torse-forming fails as it does in the full run.
        assert alone.find("torse-forming").required is True
        assert alone.find("torse-forming").ok is False
        assert alone.verdict == "fail"


class TestConverseHypotheses:
    """grw-ricci-A/B rest on fiber-einstein and div-weyl. At a hypothesis
    bar below rounding, div-weyl fails on frw-dust while its flat fiber's
    Ricci tensor is exactly zero."""

    CONFIG = RunConfig(points=5, seed=0, hypothesis_tol=1e-30)

    def test_div_weyl_downgrades_the_converse(self):
        report = run_certify(catalog_get("frw-dust").chart, self.CONFIG)
        assert report.find("fiber-einstein").ok is True
        assert report.find("div-weyl").ok is False
        for name in ("grw-ricci-A", "grw-ricci-B"):
            assert report.find(name).detail["downgraded"] \
                == "hypothesis not established: div-weyl failed"

    def test_converse_alone_downgrades_nothing(self):
        config = RunConfig(points=5, seed=0, hypothesis_tol=1e-30,
                           checks=("converse",))
        report = run_certify(catalog_get("frw-dust").chart, config)
        assert report.find("div-weyl").skipped_reason == "not selected"
        assert downgraded(report) == {}
        for name in ("grw-ricci-A", "grw-ricci-B"):
            assert report.find(name).status == PASS


def test_requires_names_records_or_the_scope():
    names = [row.name for row in CHECKS]
    for row in CHECKS:
        for required in row.requires:
            assert required == _SCOPE or \
                names.index(required) < names.index(row.name), row.name


class TestScope:
    """The theorem assumes n ≥ 4. At n = 3, -dt² + e^{2t}dx² + e^{-2t}dy²
    with u = -dt (A = 0, B = -2) meets every hypothesis record, since C ≡ 0,
    and is not torse-forming."""

    SPEC = {
        "schema": 1,
        "name": "n3-kasner-like",
        "dimension": 3,
        "signature": "lorentzian",
        "coordinates": ["t", "x", "y"],
        "parameters": {},
        "metric": {"1,1": "-1", "2,2": "exp(2*t)", "3,3": "exp(-2*t)"},
        "velocity_field": ["-1", "0", "0"],
        "domain": {"ranges": {"t": [0, 1], "x": [-1, 1], "y": [-1, 1]},
                   "exclusions": []},
        "basepoint": [0, 0, 0],
    }

    def test_forward_conclusions_downgraded(self):
        report = run_certify(self.SPEC, RunConfig(points=6, seed=0))
        for name in ("fluid-decompose", "fluid-form", "u-unit", "u-closed",
                     "div-weyl"):
            assert report.find(name).ok is True, name
        for name in ("torse-forming", "chen-vector", "ckv-gradient",
                     "soliton-form", "ricci-curl", "torse-source",
                     "homothetic-triple"):
            assert report.find(name).ok is False, name
        records = evaluated_forward(report)
        assert {rec.name for rec in records} >= {"torse-forming",
                                                 "geodesic"}
        for rec in records:
            assert rec.status == INFORMATIONAL, rec.name
            assert rec.detail["downgraded"] \
                == "hypothesis not established: the theorem needs n ≥ 4"
        # C ≡ 0 at n = 3: weyl-zero-n4 holds and gets no n > 4 note.
        weyl_zero = report.find("weyl-zero-n4")
        assert weyl_zero.ok is True and "note" not in weyl_zero.detail
        assert report.verdict == "pass"

    def test_four_dimensions_are_in_scope(self):
        report = run_certify(catalog_get("frw-dust").chart,
                             RunConfig(points=3, seed=0))
        assert downgraded(report) == {}
