"""Spec-file rules: ``load_chart_input`` reads the JSON, ``compile_chart``
checks every value, and each rejection exits 2 naming its field."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grwcert.chart import ChartError, ChartInput, ChartPoint, compile_chart
from grwcert.cli import main
from grwcert.schema import load_chart_input

from .test_cli import FRW_DUST_SPEC

DELETE = object()
ROOT = ()


def rule(name, where, value, path):
    """A spec with ``value`` at ``where`` is refused; the error names
    ``path``."""
    return pytest.param(where, value, path, id=name)


# One bad input per rule a spec file must keep.
Z = ("domain", "ranges", "z")
EXCLUSIONS = ("domain", "exclusions")
MARGIN = "domain.exclusions[0].margin"
REJECTED = [
    rule("not-json", ROOT, "{not json", "(file)"),
    rule("root-list", ROOT, [1, 2], "(root)"),
    rule("schema-version", ("schema",), 2, "schema"),
    rule("name-missing", ("name",), DELETE, "name"),
    rule("name-number", ("name",), 5, "name"),
    rule("dimension-missing", ("dimension",), DELETE, "dimension"),
    rule("dimension-string", ("dimension",), "4", "dimension"),
    rule("dimension-bool", ("dimension",), True, "dimension"),
    rule("dimension-one", ("dimension",), 1, "dimension"),
    rule("signature-missing", ("signature",), DELETE, "signature"),
    rule("signature-number", ("signature",), 1, "signature"),
    rule("signature-unknown", ("signature",), "euclidean", "signature"),
    rule("coordinates-missing", ("coordinates",), DELETE, "coordinates"),
    rule("coordinates-string", ("coordinates",), "txyz", "coordinates"),
    rule("coordinates-count", ("coordinates",), ["t", "x", "y"],
         "coordinates"),
    rule("coordinate-not-identifier", ("coordinates", 1), "2x",
         "coordinates[1]"),
    rule("coordinate-number", ("coordinates", 2), 7, "coordinates[2]"),
    rule("coordinate-repeated", ("coordinates", 3), "x", "coordinates[3]"),
    rule("coordinate-function", ("coordinates", 3), "exp", "coordinates[3]"),
    rule("parameters-list", ("parameters",), [], "parameters"),
    rule("parameter-not-identifier", ("parameters",), {"1a": 1.0},
         "parameters.1a"),
    rule("parameter-string", ("parameters",), {"a": "1"}, "parameters.a"),
    rule("parameter-bool", ("parameters",), {"a": True}, "parameters.a"),
    rule("parameter-function", ("parameters",), {"sin": 1.0},
         "parameters.sin"),
    rule("parameter-coordinate", ("parameters",), {"t": 5}, "parameters.t"),
    rule("parameter-nan", ("parameters",), {"a": math.nan}, "parameters.a"),
    rule("parameter-inf", ("parameters",), {"a": -math.inf}, "parameters.a"),
    rule("metric-missing", ("metric",), DELETE, "metric"),
    rule("metric-list", ("metric",), ["-1"], "metric"),
    rule("metric-empty", ("metric",), {}, "metric"),
    rule("metric-key-one-index", ("metric", "1"), "1", "metric.1"),
    rule("metric-key-not-integers", ("metric", "a,b"), "1", "metric.a,b"),
    rule("metric-key-out-of-range", ("metric", "1,5"), "1", "metric.1,5"),
    rule("metric-key-lower-triangle", ("metric", "2,1"), "0", "metric.2,1"),
    rule("metric-value-number", ("metric", "2,2"), 1, "metric.2,2"),
    rule("metric-value-syntax", ("metric", "2,2"), "t^", "metric.2,2"),
    rule("metric-component-twice", ("metric", "1, 1"), "-2", "metric.1, 1"),
    rule("domain-missing", ("domain",), DELETE, "domain"),
    rule("domain-list", ("domain",), [], "domain"),
    rule("ranges-missing", ("domain", "ranges"), DELETE, "domain.ranges"),
    rule("ranges-list", ("domain", "ranges"), [[1, 2]], "domain.ranges"),
    rule("range-missing", Z, DELETE, "domain.ranges.z"),
    rule("range-string", Z, "[-1, 1]", "domain.ranges.z"),
    rule("range-three-entries", Z, [-1, 0, 1], "domain.ranges.z"),
    rule("range-string-entry", Z, [-1, "1"], "domain.ranges.z"),
    rule("range-reversed", Z, [1, -1], "domain.ranges.z"),
    rule("range-inf", Z, [-1, math.inf], "domain.ranges.z"),
    rule("range-too-wide", Z, [-1e308, 1e308], "domain.ranges.z"),
    rule("range-huge-integer", Z, [-1, 10 ** 400], "domain.ranges.z"),
    rule("exclusions-object", EXCLUSIONS, {}, "domain.exclusions"),
    rule("exclusion-string", EXCLUSIONS, ["t"], "domain.exclusions[0]"),
    rule("exclusion-no-expr", EXCLUSIONS, [{"margin": 1}],
         "domain.exclusions[0]"),
    rule("exclusion-expr-number", EXCLUSIONS, [{"expr": 5}],
         "domain.exclusions[0].expr"),
    rule("margin-string", EXCLUSIONS, [{"expr": "t", "margin": "1"}], MARGIN),
    rule("margin-bool", EXCLUSIONS, [{"expr": "t", "margin": False}], MARGIN),
    rule("margin-nan", EXCLUSIONS, [{"expr": "t", "margin": math.nan}],
         MARGIN),
    rule("velocity-string", ("velocity_field",), "-1000", "velocity_field"),
    rule("velocity-count", ("velocity_field",), ["-1", "0"],
         "velocity_field"),
    rule("velocity-component-number", ("velocity_field", 3), 0,
         "velocity_field[3]"),
    rule("velocity-component-unknown", ("velocity_field", 1), "u",
         "velocity_field[1]"),
    rule("basepoint-number", ("basepoint",), 1, "basepoint"),
    rule("basepoint-count", ("basepoint",), [1, 0, 0], "basepoint"),
    rule("basepoint-string-entry", ("basepoint", 2), "0", "basepoint"),
    rule("basepoint-null-entry", ("basepoint", 2), None, "basepoint"),
    rule("basepoint-outside-range", ("basepoint", 0), 3, "basepoint"),
]


def mutated(where, value):
    spec = copy.deepcopy(FRW_DUST_SPEC)
    if where == ROOT:
        return value
    *parents, last = where
    target = spec
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return spec


def write(path, spec):
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


class TestRules:
    @pytest.mark.parametrize("where, value, path", REJECTED)
    def test_rejected_with_path(self, tmp_path, capsys, where, value, path):
        spec_path = write(tmp_path / "bad.json", mutated(where, value))
        with pytest.raises(ChartError) as err:
            compile_chart(load_chart_input(spec_path))
        assert err.value.path == path
        assert str(err.value).startswith(path)
        assert main(["certify", spec_path, "--points", "2"]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_duplicate_metric_component(self):
        # Both keys name g_11: the second is refused, not silently kept.
        spec = load_chart_input(mutated(("metric", "1, 1"), "-2"))
        with pytest.raises(ChartError) as err:
            compile_chart(spec)
        assert str(err.value) == "metric.1, 1: component 1,1 given twice"

    def test_parameter_shadowing_a_coordinate(self):
        # The parser resolves t to the coordinate, so the parameter would
        # never be read.
        spec = load_chart_input(dict(FRW_DUST_SPEC, parameters={"t": 5}))
        with pytest.raises(ChartError) as err:
            compile_chart(spec)
        assert str(err.value) == "parameters.t: 't' already names a coordinate"

    def test_non_finite_parameter(self):
        spec = load_chart_input(dict(FRW_DUST_SPEC,
                                     parameters={"H": math.nan}))
        with pytest.raises(ChartError) as err:
            compile_chart(spec)
        assert str(err.value) == \
            "parameters.H: expected a finite number, got nan"

    def test_non_finite_exclusion_margin(self):
        # A NaN margin would switch its exclusion off: nothing is <= NaN.
        spec = load_chart_input(mutated(
            ("domain", "exclusions"), [{"expr": "t", "margin": math.nan}]))
        with pytest.raises(ChartError) as err:
            compile_chart(spec)
        assert str(err.value) == ("domain.exclusions[0].margin: expected a "
                                  "finite number, got nan")

    def test_rules_hold_for_charts_built_in_code(self):
        fields = dict(name="code", dimension=2, signature="riemannian",
                      coordinates=["x", "y"], metric={"1,1": "1", "2,2": "1"},
                      ranges={"x": (0, 1), "y": (0, 1)})
        assert compile_chart(ChartInput(**fields)).n == 2
        for change, path in [({"coordinates": ["x", "x y"]}, "coordinates[1]"),
                             ({"parameters": {"y": 1.0}}, "parameters.y"),
                             ({"metric": {"1,1": 1, "2,2": "1"}},
                              "metric.1,1"),
                             ({"exclusions": [("x", math.inf)]},
                              "domain.exclusions[0].margin")]:
            with pytest.raises(ChartError) as err:
                compile_chart(ChartInput(**(fields | change)))
            assert err.value.path == path


class TestReading:
    def test_missing_file_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["certify", path]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_long_json_text_is_not_a_file_name(self):
        text = json.dumps(dict(FRW_DUST_SPEC, name="n" * 300))
        assert load_chart_input(text).name == "n" * 300


class TestExpressionOverflow:
    def test_overflowing_literal_names_field(self, tmp_path, capsys):
        for text in ("t^1e400", "1e400*t^(4/3)"):
            path = write(tmp_path / "inf.json",
                         mutated(("metric", "2,2"), text))
            assert main(["certify", path, "--points", "2"]) == 2
            offset = text.index("1e400")
            assert capsys.readouterr().err == (
                f"error: metric.2,2: syntax error at offset {offset}: "
                f"literal '1e400' is not finite\n")

    def test_pow_overflow_reads_plainly(self, tmp_path, capsys):
        # math.pow's OverflowError carries an errno tuple; the detail is
        # the one exp's overflow gives. It fails at the probe point, so the
        # message names the component.
        path = write(tmp_path / "pow.json",
                     mutated(("metric", "2,2"), "t^(4/3) + 0*(2^2000)"))
        assert main(["certify", path, "--points", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: metric.2,2: pow at offset 14: math range error\n")


# A bounded fuzz over spec files: one or two fields of FRW_DUST_SPEC take
# a JSON value of the wrong type or a bad expression. Whatever the spec,
# the CLI passes, fails or refuses it; it never raises.
FIELDS = [
    ("schema",), ("name",), ("dimension",), ("signature",), ("coordinates",),
    ("coordinates", 0), ("coordinates", 3), ("parameters",),
    ("parameters", "a"), ("metric",), ("metric", "1,1"), ("metric", "2,2"),
    ("metric", "2,3"), ("velocity_field",), ("velocity_field", 0),
    ("velocity_field", 2), ("domain",), ("domain", "ranges"),
    ("domain", "ranges", "t"), ("domain", "ranges", "t", 0),
    ("domain", "ranges", "x", 1), ("domain", "exclusions"),
    ("basepoint",), ("basepoint", 0), ("basepoint", 3),
    ("domain", "exclusions", "new"),
]
BAD_EXPRESSIONS = ["", "t^", "((t", "t^x", "1/0", "sqrt(-t)", "ln(t - 5)",
                   "exp(1000*t)", "t^1e400", "t^(10^400)", "1e400*t",
                   "t^(4/3) + 0*(2^2000)", "t^(0^-1)", "foo(t)", "-1", "0",
                   "t", "a*t^2"]
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "",
                     [], {}, 0, -3, 2.5, 1e308, -1e308, 10 ** 400]),
    st.sampled_from(BAD_EXPRESSIONS),
    st.lists(st.sampled_from(["-1", "0", "t", 1, 0.5, math.nan]),
             max_size=6),
    st.dictionaries(st.sampled_from(["expr", "margin", "a", "1,1"]),
                    st.sampled_from(["t", 0.5, math.nan, "ln(t)"]),
                    max_size=2),
)


def _set(spec, where, value):
    """Set ``spec[where]`` when its parents are still containers there."""
    target = spec
    for key in where[:-1]:
        if isinstance(target, dict) and key in target:
            target = target[key]
        elif isinstance(target, list) and isinstance(key, int) \
                and key < len(target):
            target = target[key]
        else:
            return
    last = where[-1]
    if isinstance(target, dict):
        target[last] = value
    elif isinstance(target, list):
        if last == "new":
            target.append(value)
        elif isinstance(last, int) and last < len(target):
            target[last] = value


class TestSpecFuzz:
    @settings(max_examples=60, deadline=None)
    @given(changes=st.lists(st.tuples(st.sampled_from(FIELDS), VALUES),
                            min_size=1, max_size=2))
    def test_cli_never_raises(self, changes):
        spec = copy.deepcopy(FRW_DUST_SPEC)
        for where, value in changes:
            _set(spec, where, copy.deepcopy(value))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp) / "fuzz.json", spec)
            assert main(["certify", path, "--points", "2", "--quiet"]) \
                in (0, 1, 2)


class TestReadmeExample:
    def test_example_spec_certifies(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Chart spec files (schema 1)", 1)[1]
        text = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        chart = compile_chart(load_chart_input(text))
        assert chart.name == "frw-dust" and chart.n == 4
        assert chart.metric_values(ChartPoint((1.5, 0, 0, 0)))[1, 1] \
            == 1.5 ** (4 / 3)
        path = write(tmp_path / "example.json", text)
        assert main(["certify", path, "--points", "3", "--quiet"]) == 0
