"""Metric charts: compiled symbolic metrics with a sampling domain."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .expr import (EvalDomainError, Expr, FUNCTIONS, ParseError,
                   eval_jet3_batch, parse)
from .jets import jet_tables

LORENTZIAN = "lorentzian"
RIEMANNIAN = "riemannian"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Eigenvalues below this (relative) threshold mean the metric is singular.
_SINGULAR_TOL = 1e-10


class ChartError(ValueError):
    """A chart description that does not compile. ``path`` names the field
    at fault as a spec file spells it: ``dimension``, ``metric.2,1``,
    ``domain.ranges.z``, ``velocity_field[3]``."""

    def __init__(self, path: str, message: str):
        super().__init__(message)
        self.path = path

    @classmethod
    def at(cls, path: str, detail: str) -> "ChartError":
        """The error whose message is ``path: detail``."""
        return cls(path, f"{path}: {detail}")


class SignatureError(ChartError):
    pass


class NonInvertibleError(ChartError):
    pass


class SamplingExhaustedError(RuntimeError):
    pass


class ChartPoint(tuple):
    """A point in chart coordinates (x1 = t, x2..xn spatial), as floats."""

    __slots__ = ()
    coords = property(tuple)     # the coordinates as a plain tuple


@dataclass(frozen=True)
class Exclusion:
    """An expression that must stay above ``margin`` at sampled points."""

    source: str
    expr: Expr
    margin: float


@dataclass
class ChartInput:
    """Raw textual description of a chart, ready to compile."""

    name: str
    dimension: int
    signature: str
    coordinates: Sequence[str]
    metric: Mapping[str, str]            # "i,j" -> expression
    ranges: Mapping[str, Sequence[float]]
    parameters: Mapping[str, float] = field(default_factory=dict)
    exclusions: Sequence[tuple[str, float]] = ()     # (expression, margin)
    velocity_field: Sequence[str] | None = None
    basepoint: Sequence[float] | None = None


class MetricChart:
    """Compiled chart: symmetric Expr grid, parameters, sampling domain.

    Immutable once compiled (and, for a warped product, once build_grw
    has set ``grw``); safe to share across worker threads.
    """

    def __init__(self, *, name, n, signature, coordinates, metric, params,
                 ranges, exclusions, velocity, basepoint):
        self.name = name
        self.n = n
        self.signature = signature
        self.coordinates = tuple(coordinates)
        self.metric = metric              # n x n tuple grid of Expr (symmetric)
        # The unordered pairs (i <= j), in packed order.
        self.upper = tuple(metric[i][j] for i, j in jet_tables(n).tuples[2])
        self.params = dict(params)
        self.ranges = tuple(ranges)       # per-coordinate (lo, hi)
        self.exclusions = tuple(exclusions)
        self.velocity = velocity          # covariant u_j: n Expr, or None
        self.basepoint = basepoint
        self.grw = None                   # set by grw.build_grw for warped products

    def symmetric(self, level: np.ndarray) -> np.ndarray:
        """The symmetric metric from a level of ``upper``'s trees on axis 1
        (a point axis comes first): (i, j) and (j, i) read one tree."""
        return np.take(level, jet_tables(self.n).pos[2], axis=1)

    def metric_values(self, point) -> np.ndarray:
        return self.symmetric(eval_jet3_batch(
            self.upper, [point], self.params, order=0)[0])[0]


def _parse_metric_key(key, n: int) -> tuple[int, int]:
    """The 0-based (i, j) of an upper-triangle metric key ``"i,j"``."""
    path = f"metric.{key}"
    parts = str(key).split(",")
    if len(parts) != 2:
        raise ChartError.at(path, "keys must look like 'i,j'")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise ChartError.at(path, "indices must be integers") from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise ChartError.at(path, f"index out of range 1..{n}")
    if i > j:
        raise ChartError.at(path, f"lower-triangle key; use '{j},{i}'")
    return i - 1, j - 1


def _entries(path: str, value, count: int, what: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ChartError.at(path, f"expected {count} {what}")
    return list(value)


def _mapping(path: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        raise ChartError.at(path, f"expected a mapping, got "
                                  f"{type(value).__name__}")
    return value


def _real(path: str, value) -> float:
    """A real number (not a bool) as a float; a huge integer is infinite."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ChartError.at(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(path: str, value) -> float:
    x = _real(path, value)
    if not math.isfinite(x):
        raise ChartError.at(path, f"expected a finite number, got {x}")
    return x


def _declare(path: str, name, taken) -> str:
    """A coordinate or parameter name: an identifier that is neither a
    function nor one of the coordinates in ``taken``."""
    if not isinstance(name, str) or not _IDENT.fullmatch(name):
        raise ChartError.at(path, f"{name!r} is not a valid identifier")
    if name in FUNCTIONS:
        raise ChartError.at(path, f"{name!r} shadows a built-in function")
    if name in taken:
        raise ChartError.at(path, f"{name!r} already names a coordinate")
    return name


def _expr(path: str, text, coords, pnames) -> Expr:
    if not isinstance(text, str):
        raise ChartError.at(path, "expected an expression string")
    try:
        return parse(text, coords, pnames)
    except ParseError as err:
        raise ChartError.at(path, str(err)) from None


def compile_chart(spec: ChartInput) -> MetricChart:
    """Validate and compile a chart description.

    Every rule on the description's values is checked here, for spec files
    and for charts built in code alike; a ``ChartError`` names the field at
    fault. Parses every expression and validates invertibility and the
    declared signature at a probe point.
    """
    if not isinstance(spec.name, str):
        raise ChartError.at("name", "expected a string")
    n = spec.dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ChartError.at("dimension", "must be an integer >= 2")
    if spec.signature not in (LORENTZIAN, RIEMANNIAN):
        raise ChartError.at("signature",
                            f"must be '{LORENTZIAN}' or '{RIEMANNIAN}'")
    coords = _entries("coordinates", spec.coordinates, n, "names")
    for k, name in enumerate(coords):
        _declare(f"coordinates[{k}]", name, coords[:k])
    params = {_declare(f"parameters.{name}", name, coords):
              _finite(f"parameters.{name}", value)
              for name, value in _mapping("parameters",
                                          spec.parameters).items()}
    pnames = tuple(params)

    grid = [[None] * n for _ in range(n)]
    for key, text in _mapping("metric", spec.metric).items():
        i, j = _parse_metric_key(key, n)
        if grid[i][j] is not None:
            raise ChartError.at(f"metric.{key}",
                                f"component {i + 1},{j + 1} given twice")
        grid[i][j] = grid[j][i] = _expr(f"metric.{key}", text, coords, pnames)
    zero = parse("0", coords, pnames)
    metric = tuple(tuple(zero if e is None else e for e in row)
                   for row in grid)

    given = _mapping("domain.ranges", spec.ranges)
    for name in given:
        if name not in coords:
            raise ChartError.at(f"domain.ranges.{name}", "not a coordinate")
    ranges = []
    for name in coords:
        path = f"domain.ranges.{name}"
        if name not in given:
            raise ChartError.at(path, "missing range")
        lo, hi = (_real(path, v)
                  for v in _entries(path, given[name], 2, "numbers"))
        if not (lo < hi and math.isfinite(hi - lo)):     # sampled uniformly
            raise ChartError.at(path, "expected [lo, hi] with finite lo < hi")
        ranges.append((lo, hi))

    exclusions = []
    for k, entry in enumerate(spec.exclusions):
        path = f"domain.exclusions[{k}]"
        text, margin = _entries(path, entry, 2, "values (expression, margin)")
        exclusions.append(Exclusion(
            text, _expr(f"{path}.expr", text, coords, pnames),
            _finite(f"{path}.margin", margin)))

    velocity = None
    if spec.velocity_field is not None:
        velocity = tuple(
            _expr(f"velocity_field[{k}]", text, coords, pnames)
            for k, text in enumerate(_entries(
                "velocity_field", spec.velocity_field, n,
                "expression strings")))

    basepoint = (None if spec.basepoint is None else
                 validate_basepoint(spec.basepoint, coords, ranges))

    chart = MetricChart(name=spec.name, n=n, signature=spec.signature,
                        coordinates=coords, metric=metric, params=params,
                        ranges=ranges, exclusions=exclusions,
                        velocity=velocity, basepoint=basepoint)
    try:
        validate_signature(chart, _probe_point(chart))
    except EvalDomainError as err:
        # The metric's walk at the probe point: its first tree that reaches
        # the failing node is the first component that fails alone.
        i, j = jet_tables(n).tuples[2][err.tree] + 1
        raise ChartError.at(f"metric.{i},{j}", str(err)) from None
    return chart


def validate_basepoint(values, coordinates, ranges) -> tuple[float, ...]:
    """One number per coordinate, each inside its range (NaN is not)."""
    if (not isinstance(values, (list, tuple))
            or len(values) != len(coordinates)):
        raise ChartError("basepoint",
                         f"basepoint must have {len(coordinates)} entries")
    basepoint = tuple(_real("basepoint", v) for v in values)
    for x, (lo, hi), name in zip(basepoint, ranges, coordinates):
        if not (lo <= x <= hi):
            raise ChartError(
                "basepoint",
                f"basepoint[{name}] = {x} outside range [{lo}, {hi}]")
    return basepoint


def _probe_point(chart: MetricChart) -> ChartPoint:
    mid = [(lo + hi) / 2.0 for lo, hi in chart.ranges]
    keep, undefined = _inside(chart, np.array([mid]), 1)
    if undefined:
        raise undefined[1]
    if keep[0]:
        return ChartPoint(mid)
    try:
        return sample_points(chart, 1, seed=0)[0]
    except SamplingExhaustedError:
        raise ChartError.at("domain", "no probe point found inside the "
                                      "domain") from None


def validate_signature(chart: MetricChart, point) -> None:
    """Check invertibility and eigenvalue signs of g at one point."""
    g, where = chart.metric_values(point), tuple(point)
    if not np.all(np.isfinite(g)):
        raise NonInvertibleError.at("metric", f"not finite at {where}")
    eigs = np.linalg.eigvalsh(g)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.abs(eigs)) < _SINGULAR_TOL * scale:
        raise NonInvertibleError.at("metric", f"not invertible at {where}")
    negatives = int(np.sum(eigs < 0))
    if chart.signature == LORENTZIAN and negatives != 1:
        raise SignatureError.at("signature", f"expected one negative "
                                             f"eigenvalue, found {negatives}")
    if chart.signature == RIEMANNIAN and negatives != 0:
        raise SignatureError.at(
            "signature", f"expected a positive-definite metric, found "
                         f"{negatives} negative eigenvalue(s)")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PCG64:
    """numpy's ``default_rng(seed)`` stream, in pure Python.

    SeedSequence hashes the seed's 32-bit words into a pool of four and
    draws PCG64's 128-bit state and increment from it; each double is the
    top 53 bits of one XSL-RR output (O'Neill 2014). Importing numpy.random
    costs more than the few hundred draws a run takes.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {seed}")
        words = [seed >> k & _M32
                 for k in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5

        def hashmix(value):
            nonlocal mult
            value ^= mult
            mult = mult * 0x931E8875 & _M32
            value = value * mult & _M32
            return value ^ value >> 16

        def mix(x, y):
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        mult, out = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ mult
            mult = mult * 0x58F38DED & _M32
            value = value * mult & _M32
            out.append(value ^ value >> 16)
        # Two 128-bit numbers, each the high then the low little-endian
        # uint64 of the eight words.
        state, seq = (out[i] << 64 | out[i + 1] << 96 | out[i + 2]
                      | out[i + 3] << 32 for i in (0, 4))
        self._inc = (seq << 1 | 1) & _M128
        self._state = ((self._inc + state) * _PCG_MULT + self._inc) & _M128

    def uniform(self, lows, highs, size) -> np.ndarray:
        """``default_rng(seed).uniform(lows, highs, size)``, continuing the
        stream: ``low + (high - low) * d`` in row-major order."""
        state, inc, draws = self._state, self._inc, []
        for _ in range(math.prod(size)):
            state = (state * _PCG_MULT + inc) & _M128
            word, rot = (state >> 64 ^ state) & _M64, state >> 122
            draws.append((((word >> rot | word << 64 - rot) & _M64) >> 11)
                         * 2.0 ** -53)
        self._state = state
        return lows + (highs - lows) * np.reshape(draws, size)


def _inside(chart: MetricChart, rows: np.ndarray, wanted: int):
    """The mask of ``rows`` (N, n) in the domain: inside every range, then
    above each exclusion's margin in order, each exclusion walked over the
    rows still in. Where an exclusion is undefined at a row, the rows from
    it on are out, and a row-by-row test that reaches the row raises a
    ChartError naming the exclusion: it does if fewer than ``wanted`` rows
    before it are in. Returns the mask and that (row, ChartError), or
    None."""
    lows, highs = np.array(chart.ranges).T
    keep = np.all((lows <= rows) & (rows <= highs), axis=1)
    undefined = None
    for k, exc in enumerate(chart.exclusions):
        while True:
            kept = np.flatnonzero(keep)
            try:
                values = eval_jet3_batch((exc.expr,), rows[kept], chart.params,
                                         order=0)[0][:, 0]
                break
            except EvalDomainError as err:
                row = int(kept[err.index])
                keep[row:] = False
                undefined = row, ChartError.at(f"domain.exclusions[{k}].expr",
                                               str(err))
        keep[kept] = ~(values <= exc.margin)
    return keep, None if np.count_nonzero(keep) >= wanted else undefined


def sample_points(chart: MetricChart, count: int, seed: int) -> list[ChartPoint]:
    """Seeded rejection sampling inside the domain box minus exclusions.

    Deterministic: the same seed yields the same list regardless of how the
    caller later parallelizes work over the points.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _PCG64(seed)
    lows, highs = np.array(chart.ranges).T
    points: list[ChartPoint] = []
    attempts = 0
    limit = 1000 * count
    while len(points) < count:
        if attempts >= limit:
            raise SamplingExhaustedError(
                f"{chart.name}: rejection sampling failed "
                f"({attempts} attempts for {count} points)")
        # A block of twice the candidates the acceptance so far needs: the
        # same stream as one draw per candidate; the first accepted are kept.
        missing = count - len(points)
        size = (-(-2 * missing * attempts // max(len(points), 1)) if attempts
                else missing)
        block = rng.uniform(lows, highs, (min(size, limit - attempts),
                                          chart.n))
        attempts += len(block)
        keep, undefined = _inside(chart, block, missing)
        if undefined:
            row, err = undefined
            raise ChartError(err.path, f"{err} at sample candidate "
                                       f"{tuple(block[row].tolist())}")
        points += map(ChartPoint, block[keep][:missing].tolist())
    return points
