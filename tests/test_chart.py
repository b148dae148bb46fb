import sys
from pathlib import Path

import numpy as np
import pytest

from grwcert.chart import (_PCG64, ChartError, ChartInput, ChartPoint,
                           NonInvertibleError, SamplingExhaustedError,
                           SignatureError, compile_chart, sample_points)
from grwcert.grw import catalog_get
from grwcert.schema import load_chart_input

from .oracles import eval_value
from .test_classify import dense_pullback_chart

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, through sys.path)


def minkowski_input(**overrides):
    spec = dict(
        name="minkowski", dimension=4, signature="lorentzian",
        coordinates=["t", "x", "y", "z"],
        metric={"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1"},
        ranges={"t": (-1, 1), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})
    spec.update(overrides)
    return ChartInput(**spec)


class TestCompile:
    def test_minkowski_compiles(self):
        chart = compile_chart(minkowski_input())
        assert chart.n == 4
        g = chart.metric_values(ChartPoint((0, 0, 0, 0)))
        np.testing.assert_allclose(g, np.diag([-1.0, 1, 1, 1]))

    def test_round_sphere_compiles_riemannian(self):
        chart = compile_chart(ChartInput(
            name="s3", dimension=3, signature="riemannian",
            coordinates=["chi", "theta", "phi"],
            metric={"1,1": "1", "2,2": "sin(chi)^2",
                    "3,3": "sin(chi)^2*sin(theta)^2"},
            ranges={"chi": (0.3, 2.8), "theta": (0.3, 2.8), "phi": (0, 6.2)}))
        assert chart.signature == "riemannian"

    def test_degenerate_metric_rejected(self):
        with pytest.raises(NonInvertibleError):
            compile_chart(minkowski_input(
                metric={"1,1": "0", "2,2": "1", "3,3": "1", "4,4": "1"}))

    @pytest.mark.parametrize("metric, path, message", [
        # 3,3 comes first in the spec, 2,2 first in the upper triangle.
        ({"3,3": "ln(t - 1)", "2,2": "1/(t - t)"}, "metric.2,2",
         "div at offset 1: division by zero"),
        # One failing subtree in both: its first occurrence names it.
        ({"2,2": "2 + sqrt(t - 1)", "3,3": "sqrt(t - 1)"}, "metric.2,2",
         "sqrt at offset 4: argument -1.0 is not positive"),
        ({"2,2": "ln(t - 1)", "1,3": "0*ln(t - 1)"}, "metric.1,3",
         "ln at offset 2: argument -1.0 is not positive"),
    ])
    def test_probe_point_names_the_first_failing_component(self, metric,
                                                           path, message):
        # Two components fail at the probe point t = 0: the first of the
        # upper triangle, row by row, is named.
        with pytest.raises(ChartError) as err:
            compile_chart(minkowski_input(
                metric={"1,1": "-1", "2,2": "1", "3,3": "1", "4,4": "1",
                        **metric}))
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")

    def test_wrong_signature_rejected(self):
        with pytest.raises(SignatureError):
            compile_chart(minkowski_input(signature="riemannian"))

    def test_lower_triangle_key_rejected(self):
        with pytest.raises(ChartError) as err:
            compile_chart(minkowski_input(
                metric={"1,1": "-1", "2,1": "0", "2,2": "1",
                        "3,3": "1", "4,4": "1"}))
        assert "lower-triangle" in str(err.value)

    def test_unknown_symbol_in_metric(self):
        with pytest.raises(ChartError) as err:
            compile_chart(minkowski_input(
                metric={"1,1": "-a", "2,2": "1", "3,3": "1", "4,4": "1"}))
        assert "metric.1,1" in str(err.value)

    def test_basepoint_out_of_range(self):
        with pytest.raises(ChartError):
            compile_chart(minkowski_input(basepoint=[5, 0, 0, 0]))

    def test_basepoint_length_and_nan(self):
        with pytest.raises(ChartError, match="must have 4 entries"):
            compile_chart(minkowski_input(basepoint=[0, 0, 0]))
        with pytest.raises(ChartError, match=r"basepoint\[y\] = nan outside"):
            compile_chart(minkowski_input(basepoint=[0, 0, float("nan"), 0]))

    def test_missing_range(self):
        with pytest.raises(ChartError) as err:
            compile_chart(minkowski_input(
                ranges={"t": (-1, 1), "x": (-1, 1), "y": (-1, 1)}))
        assert "z" in str(err.value)


def per_candidate_points(chart, count, seed):
    """One draw per candidate, each tested as it comes: the ranges, then
    the exclusions in order up to the first that rejects it."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in chart.ranges])
    highs = np.array([hi for _, hi in chart.ranges])
    points = []
    while len(points) < count:
        p = ChartPoint(tuple(rng.uniform(lows, highs)))
        if all(lo <= x <= hi for x, (lo, hi) in zip(p.coords, chart.ranges)) \
                and all(not eval_value(e.expr, p.coords, chart.params) <= e.margin
                        for e in chart.exclusions):
            points.append(p)
    return points


class TestStream:
    """The pure-Python generator draws numpy's ``default_rng(seed)`` stream
    bit for bit; numpy.random is imported here as the oracle only."""

    SEEDS = [0, 1, 31, 2**32 - 1, 2**32, 2**64 + 3,
             0xB7E151628AED2A6ABF7158809CF4F3C762E7160F38B4DA56A7]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_uniform_matches_numpy_bytes(self, seed, n):
        lows = np.linspace(-2.5, 0.75, n)
        highs = lows + np.linspace(0.125, 3.0, n)
        mine, rng = _PCG64(seed), np.random.default_rng(seed)
        for m in (3, 5):       # two successive blocks of one generator
            assert mine.uniform(lows, highs, (m, n)).tobytes() == \
                rng.uniform(lows, highs, (m, n)).tobytes()

    @pytest.mark.parametrize("seed, doubles", [
        (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
             "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"]),
        (31, ["0x1.ce6c891d18cabp-1", "0x1.1535cd37e4a58p-4",
              "0x1.58702c5b25215p-1", "0x1.e3e2c26850a5ap-2"]),
    ])
    def test_first_doubles_pinned(self, seed, doubles):
        # numpy 2.4.6's default_rng(seed).random(4): the sample points stay
        # these even if a later numpy changes its stream.
        draws = _PCG64(seed).uniform(0.0, 1.0, (4,))
        assert [float(d).hex() for d in draws] == doubles

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            _PCG64(-1)


class TestSampling:
    @pytest.mark.parametrize("name", ["frw-dust", "minkowski-excluded",
                                      "dense-pullback", "guarded-log"])
    def test_blocks_draw_the_per_candidate_points(self, name):
        chart = {
            "frw-dust": lambda: catalog_get("frw-dust").chart,
            "minkowski-excluded": lambda: compile_chart(
                minkowski_input(exclusions=[("t", 0.5)])),
            "dense-pullback": dense_pullback_chart,
            # ln(t) is undefined where the first exclusion already rejects.
            "guarded-log": lambda: compile_chart(minkowski_input(
                exclusions=[("t", 0.0), ("ln(t) + 3", 0.0)])),
        }[name]()
        for count, seed in ((1, 0), (7, 3), (40, 11)):
            got = sample_points(chart, count, seed)
            want = per_candidate_points(chart, count, seed)
            assert np.array([p.coords for p in got]).tobytes() == \
                np.array([p.coords for p in want]).tobytes()

    @pytest.mark.parametrize("seed", [1, 31, 101, 7])
    def test_blocks_sized_by_the_acceptance(self, monkeypatch, seed):
        # After a first block of the points asked for, each block is sized
        # by the acceptance so far: the per-candidate points in at most 3
        # blocks on the dense pull-back (about half its candidates fall
        # outside the mapped time range) and at 5 % acceptance.
        blocks = []
        uniform = _PCG64.uniform

        def counted(rng, lows, highs, size):
            blocks.append(size[0])
            return uniform(rng, lows, highs, size)

        monkeypatch.setattr(_PCG64, "uniform", counted)
        dense = compile_chart(load_chart_input(workloads.dense_spec(seed)))
        five_percent = compile_chart(minkowski_input(
            exclusions=[("t - 0.9", 0.0)]))
        for chart in (dense, five_percent):
            blocks.clear()
            got = sample_points(chart, 20, seed)
            assert len(blocks) <= 3, blocks
            want = per_candidate_points(chart, 20, seed)
            assert np.array([p.coords for p in got]).tobytes() == \
                np.array([p.coords for p in want]).tobytes()

    def test_seeded_runs_identical(self):
        chart = compile_chart(minkowski_input(ranges={
            "t": (1, 2), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}))
        first = sample_points(chart, 5, seed=7)
        second = sample_points(chart, 5, seed=7)
        assert first == second
        assert all(1 <= p.coords[0] <= 2 for p in first)

    def test_different_seed_differs(self):
        chart = compile_chart(minkowski_input())
        assert sample_points(chart, 5, 1) != sample_points(chart, 5, 2)

    def test_exclusion_exhaustion(self):
        spec = minkowski_input(
            ranges={"t": (-1, -0.5), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
            exclusions=[("t", 0.0)])
        # compile probes inside the box; the probe also hits the exclusion
        with pytest.raises((SamplingExhaustedError, ChartError)):
            chart = compile_chart(spec)
            sample_points(chart, 3, seed=0)

    def test_exclusion_respected(self):
        chart = compile_chart(minkowski_input(exclusions=[("t", 0.5)]))
        points = sample_points(chart, 50, seed=3)
        assert all(p.coords[0] > 0.5 for p in points)

    def test_distinct_points(self):
        chart = compile_chart(minkowski_input())
        points = sample_points(chart, 100, seed=11)
        assert len({p.coords for p in points}) == 100

    def test_count_validation(self):
        chart = compile_chart(minkowski_input())
        with pytest.raises(ValueError):
            sample_points(chart, 0, seed=1)
