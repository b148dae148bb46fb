"""Metric charts: compiled symbolic metrics with a sampling domain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, FUNCTIONS, ParseError, eval_batch, parse

LORENTZIAN = "lorentzian"
RIEMANNIAN = "riemannian"

# Eigenvalues below this (relative) threshold mean the metric is singular.
_SINGULAR_TOL = 1e-10


class ChartError(ValueError):
    pass


class SignatureError(ChartError):
    pass


class NonInvertibleError(ChartError):
    pass


class SamplingExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChartPoint:
    """A point in chart coordinates (x1 = t, x2..xn spatial)."""

    coords: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class Exclusion:
    """An expression that must stay above ``margin`` at sampled points."""

    source: str
    expr: Expr
    margin: float = 0.0


@dataclass(frozen=True)
class VectorField:
    """Covariant field: one closed-form expression per component."""

    components: tuple[Expr, ...]


@dataclass
class ChartInput:
    """Raw textual description of a chart, ready to compile."""

    name: str
    dimension: int
    signature: str
    coordinates: Sequence[str]
    metric: Mapping
    ranges: Mapping[str, Sequence[float]]
    parameters: Mapping[str, float] = field(default_factory=dict)
    exclusions: Sequence = ()  # entries: (expr_text, margin) or {"expr":, "margin":}
    velocity_field: Sequence[str] | None = None
    basepoint: Sequence[float] | None = None


class MetricChart:
    """Compiled chart: symmetric Expr grid, parameters, sampling domain.

    Immutable after compile_chart; safe to share across worker threads.
    """

    def __init__(self, *, name, n, signature, coordinates, metric, params,
                 ranges, exclusions, velocity, basepoint):
        self.name = name
        self.n = n
        self.signature = signature
        self.coordinates = tuple(coordinates)
        self.metric = metric              # n x n tuple grid of Expr (symmetric)
        self.params = dict(params)
        self.ranges = tuple(ranges)       # per-coordinate (lo, hi)
        self.exclusions = tuple(exclusions)
        self.velocity = velocity
        self.basepoint = basepoint
        self.grw = None                   # set by grw.build_grw for warped products

    def metric_values(self, point: ChartPoint) -> np.ndarray:
        iu, ju = np.triu_indices(self.n)
        g = np.empty((self.n, self.n))
        g[iu, ju] = g[ju, iu] = eval_batch(
            [self.metric[i][j] for i, j in zip(iu, ju)], [point.coords],
            self.params)[0]
        return g

    def in_domain(self, point: ChartPoint) -> bool:
        """Inside every range and above every exclusion margin; the
        exclusions are evaluated in order, up to the first one that fails."""
        for x, (lo, hi) in zip(point.coords, self.ranges):
            if not (lo <= x <= hi):
                return False
        for exc in self.exclusions:
            if eval_batch((exc.expr,), [point.coords],
                          self.params)[0, 0] <= exc.margin:
                return False
        return True


def _parse_metric_key(key, n: int):
    if isinstance(key, str):
        parts = key.split(",")
        if len(parts) != 2:
            raise ChartError(f"metric key {key!r}: expected 'i,j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ChartError(f"metric key {key!r}: indices must be integers") from None
    else:
        i, j = key
    if not (1 <= i <= n and 1 <= j <= n):
        raise ChartError(f"metric key {key!r}: index out of range 1..{n}")
    if i > j:
        raise ChartError(f"metric key {key!r}: lower-triangle key, use '{j},{i}'")
    return i - 1, j - 1


def compile_chart(spec: ChartInput) -> MetricChart:
    """Compile and validate a chart description.

    Parses every expression, checks the coordinate/parameter declarations,
    and validates invertibility and the declared signature at a probe point.
    """
    n = spec.dimension
    if not isinstance(n, int) or n < 2:
        raise ChartError(f"dimension must be an integer >= 2, got {n!r}")
    if spec.signature not in (LORENTZIAN, RIEMANNIAN):
        raise ChartError(f"signature must be '{LORENTZIAN}' or '{RIEMANNIAN}'")
    coords = list(spec.coordinates)
    if len(coords) != n:
        raise ChartError(f"expected {n} coordinate names, got {len(coords)}")
    if len(set(coords)) != n:
        raise ChartError("coordinate names must be unique")
    for name in list(coords) + list(spec.parameters):
        if name in FUNCTIONS:
            raise ChartError(f"name {name!r} shadows a built-in function")
    params = {k: float(v) for k, v in spec.parameters.items()}
    pnames = tuple(params)

    grid = [[None] * n for _ in range(n)]
    for key, text in spec.metric.items():
        i, j = _parse_metric_key(key, n)
        try:
            e = parse(str(text), coords, pnames)
        except ParseError as err:
            raise ChartError(f"metric[{key}]: {err}") from None
        grid[i][j] = grid[j][i] = e
    zero = parse("0", coords, pnames)
    for i in range(n):
        for j in range(n):
            if grid[i][j] is None:
                grid[i][j] = zero
    metric = tuple(tuple(row) for row in grid)

    ranges = []
    for name in coords:
        if name not in spec.ranges:
            raise ChartError(f"domain.ranges missing coordinate {name!r}")
        lo, hi = (float(v) for v in spec.ranges[name])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ChartError(f"domain.ranges[{name}]: need finite lo < hi")
        ranges.append((lo, hi))

    exclusions = []
    for k, entry in enumerate(spec.exclusions):
        if isinstance(entry, Mapping):
            text, margin = entry["expr"], float(entry.get("margin", 0.0))
        else:
            text, margin = entry[0], float(entry[1]) if len(entry) > 1 else 0.0
        try:
            e = parse(str(text), coords, pnames)
        except ParseError as err:
            raise ChartError(f"exclusions[{k}]: {err}") from None
        exclusions.append(Exclusion(str(text), e, margin))

    velocity = None
    if spec.velocity_field is not None:
        if len(spec.velocity_field) != n:
            raise ChartError(f"velocity_field must have {n} components")
        comps = []
        for k, text in enumerate(spec.velocity_field):
            try:
                comps.append(parse(str(text), coords, pnames))
            except ParseError as err:
                raise ChartError(f"velocity_field[{k}]: {err}") from None
        velocity = VectorField(tuple(comps))

    basepoint = None
    if spec.basepoint is not None:
        basepoint = validate_basepoint(spec.basepoint, coords, ranges)

    chart = MetricChart(name=spec.name, n=n, signature=spec.signature,
                        coordinates=coords, metric=metric, params=params,
                        ranges=ranges, exclusions=exclusions,
                        velocity=velocity, basepoint=basepoint)
    probe = _probe_point(chart)
    validate_signature(chart, probe)
    return chart


def validate_basepoint(values, coordinates, ranges) -> tuple[float, ...]:
    """One entry per coordinate, each inside its range (NaN is not)."""
    if len(values) != len(coordinates):
        raise ChartError(f"basepoint must have {len(coordinates)} entries")
    basepoint = tuple(float(v) for v in values)
    for x, (lo, hi), name in zip(basepoint, ranges, coordinates):
        if not (lo <= x <= hi):
            raise ChartError(
                f"basepoint[{name}] = {x} outside range [{lo}, {hi}]")
    return basepoint


def _probe_point(chart: MetricChart) -> ChartPoint:
    mid = ChartPoint(tuple((lo + hi) / 2.0 for lo, hi in chart.ranges))
    if chart.in_domain(mid):
        return mid
    try:
        point = sample_points(chart, 1, seed=0)[0]
    except SamplingExhaustedError:
        raise ChartError("no probe point found inside the domain") from None
    return ChartPoint(tuple(float(x) for x in point.coords))


def validate_signature(chart: MetricChart, point: ChartPoint) -> None:
    """Check invertibility and eigenvalue signs of g at one point."""
    g = chart.metric_values(point)
    eigs = np.linalg.eigvalsh(g)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.abs(eigs)) < _SINGULAR_TOL * scale:
        raise NonInvertibleError(
            f"{chart.name}: metric not invertible at {point.coords}")
    negatives = int(np.sum(eigs < 0))
    if chart.signature == LORENTZIAN and negatives != 1:
        raise SignatureError(
            f"{chart.name}: expected one negative eigenvalue, found {negatives}")
    if chart.signature == RIEMANNIAN and negatives != 0:
        raise SignatureError(
            f"{chart.name}: expected positive-definite metric, "
            f"found {negatives} negative eigenvalue(s)")


def sample_points(chart: MetricChart, count: int, seed: int) -> list[ChartPoint]:
    """Seeded rejection sampling inside the domain box minus exclusions.

    Deterministic: the same seed yields the same list regardless of how the
    caller later parallelizes work over the points.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in chart.ranges])
    highs = np.array([hi for _, hi in chart.ranges])
    trees = [exc.expr for exc in chart.exclusions]
    margins = np.array([exc.margin for exc in chart.exclusions])
    points: list[ChartPoint] = []
    attempts = 0
    limit = 1000 * count
    while len(points) < count:
        if attempts >= limit:
            raise SamplingExhaustedError(
                f"{chart.name}: rejection sampling failed "
                f"({attempts} attempts for {count} points)")
        # The candidates still missing, drawn as one block: the same stream
        # as one draw per candidate, and every one of them is tested.
        block = rng.uniform(lows, highs, (min(count - len(points),
                                              limit - attempts), chart.n))
        attempts += len(block)
        candidates = [ChartPoint(tuple(row)) for row in block]
        try:
            keep = np.all((lows <= block) & (block <= highs), axis=1)
            if trees:
                keep &= ~np.any(eval_batch(trees, block, chart.params)
                                <= margins, axis=1)
        except (ArithmeticError, ValueError):
            # An exclusion may be undefined where an earlier one already
            # rejects the candidate: test them in order, one by one.
            keep = [chart.in_domain(p) for p in candidates]
        points += [p for p, ok in zip(candidates, keep) if ok]
    return points
