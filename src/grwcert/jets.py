"""Order-3 derivative jets over chart coordinates.

A jet carries a scalar value together with all partial derivatives up to
total order 3 at a point. Arithmetic follows exact Leibniz and chain rules,
so everything consumed downstream (metric through the Weyl divergence) is
obtained by calculus, never by divided differences.

Second and third derivative levels use packed symmetric storage: reading
entry (i, j) or (j, i) resolves to the same slot, likewise every
permutation of a third-order triple. Jets are immutable after
construction and safe to share between threads.

``Jet3`` is the scalar jet that expression trees evaluate to. ``TensorJet``
holds the jets of every component of an array-valued field in four arrays,
one per derivative level, with the packed derivative axis last; its
products are one einsum per Leibniz term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

MAX_ORDER = 3


class JetDomainError(ArithmeticError):
    """A function left its domain during jet evaluation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op
        self.detail = detail


@dataclass(frozen=True)
class JetTables:
    """Packed-index bookkeeping for one chart dimension."""

    n: int
    pair_pos: np.ndarray    # (n, n) -> packed slot of the unordered pair
    i2: np.ndarray          # packed pair slot -> smaller index
    j2: np.ndarray          # packed pair slot -> larger index
    triple_pos: np.ndarray  # (n, n, n) -> packed slot of the unordered triple
    i3: np.ndarray
    j3: np.ndarray
    k3: np.ndarray
    p_ij: np.ndarray        # packed triple slot -> pair slot of (i, j), etc.
    p_ik: np.ndarray
    p_jk: np.ndarray


@lru_cache(maxsize=None)
def jet_tables(n: int) -> JetTables:
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pair_pos = np.empty((n, n), dtype=np.intp)
    for slot, (i, j) in enumerate(pairs):
        pair_pos[i, j] = pair_pos[j, i] = slot
    triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
    triple_pos = np.empty((n, n, n), dtype=np.intp)
    for slot, t in enumerate(triples):
        for perm in permutations(t):
            triple_pos[perm] = slot
    i2 = np.array([p[0] for p in pairs], dtype=np.intp)
    j2 = np.array([p[1] for p in pairs], dtype=np.intp)
    i3 = np.array([t[0] for t in triples], dtype=np.intp)
    j3 = np.array([t[1] for t in triples], dtype=np.intp)
    k3 = np.array([t[2] for t in triples], dtype=np.intp)
    return JetTables(
        n=n,
        pair_pos=pair_pos,
        i2=i2,
        j2=j2,
        triple_pos=triple_pos,
        i3=i3,
        j3=j3,
        k3=k3,
        p_ij=pair_pos[i3, j3],
        p_ik=pair_pos[i3, k3],
        p_jk=pair_pos[j3, k3],
    )


def pair_count(n: int) -> int:
    return n * (n + 1) // 2


def triple_count(n: int) -> int:
    return n * (n + 1) * (n + 2) // 6


class Jet3:
    """Value plus packed first/second/third partials in ``n`` variables.

    ``order`` records how many derivative levels are trustworthy; taking a
    coordinate derivative of an order-k jet yields an order-(k-1) jet.
    Arithmetic propagates the minimum order of its operands and never reads
    levels beyond it.
    """

    __slots__ = ("n", "order", "value", "grad", "hess", "third")

    def __init__(self, n: int, order: int, value: float,
                 grad: np.ndarray, hess: np.ndarray, third: np.ndarray):
        self.n = n
        self.order = order
        self.value = float(value)
        self.grad = grad
        self.hess = hess
        self.third = third

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, n: int, order: int = MAX_ORDER) -> "Jet3":
        return cls(n, order, 0.0,
                   np.zeros(n), np.zeros(pair_count(n)), np.zeros(triple_count(n)))

    @classmethod
    def constant(cls, n: int, value: float) -> "Jet3":
        out = cls.empty(n)
        out.value = float(value)
        return out

    @classmethod
    def coordinate(cls, n: int, index: int, value: float) -> "Jet3":
        out = cls.empty(n)
        out.value = float(value)
        out.grad = np.zeros(n)
        out.grad[index] = 1.0
        return out

    # -- structure ----------------------------------------------------

    def truncated(self, order: int) -> "Jet3":
        """View of this jet with a (possibly) lower declared order.

        Shares storage; jets are immutable so this is safe. Used to cap the
        work done by downstream products whose high levels would be unused.
        """
        if order >= self.order:
            return self
        return Jet3(self.n, order, self.value, self.grad, self.hess, self.third)

    def deriv(self, i: int) -> "Jet3":
        """Coordinate derivative: an order-(k-1) jet of the i-th partial."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        t = jet_tables(self.n)
        out = Jet3.empty(self.n, self.order - 1)
        out.value = float(self.grad[i])
        if out.order >= 1:
            out.grad = self.hess[t.pair_pos[i]]
        if out.order >= 2:
            out.hess = self.third[t.triple_pos[i][t.i2, t.j2]]
        return out

    def third_tensor(self) -> np.ndarray:
        t = jet_tables(self.n)
        return self.third[t.triple_pos]

    def d2(self, i: int, j: int) -> float:
        return float(self.hess[jet_tables(self.n).pair_pos[i, j]])

    def d3(self, i: int, j: int, k: int) -> float:
        return float(self.third[jet_tables(self.n).triple_pos[i, j, k]])

    def __repr__(self) -> str:
        return f"Jet3(n={self.n}, order={self.order}, value={self.value!r})"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet3):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet3.constant(self.n, float(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        out = Jet3.empty(self.n, order)
        out.value = self.value + o.value
        if order >= 1:
            out.grad = self.grad + o.grad
        if order >= 2:
            out.hess = self.hess + o.hess
        if order >= 3:
            out.third = self.third + o.third
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Jet3.empty(self.n, self.order)
        out.value = -self.value
        out.grad = -self.grad
        out.hess = -self.hess
        out.third = -self.third
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = float(other)
            out = Jet3.empty(self.n, self.order)
            out.value = self.value * c
            out.grad = self.grad * c
            out.hess = self.hess * c
            out.third = self.third * c
            return out
        if not isinstance(other, Jet3):
            return NotImplemented
        a, b = self, other
        order = min(a.order, b.order)
        t = jet_tables(a.n)
        out = Jet3.empty(a.n, order)
        out.value = a.value * b.value
        if order >= 1:
            out.grad = a.grad * b.value + a.value * b.grad
        if order >= 2:
            out.hess = (a.hess * b.value + a.value * b.hess
                        + a.grad[t.i2] * b.grad[t.j2] + a.grad[t.j2] * b.grad[t.i2])
        if order >= 3:
            out.third = (a.third * b.value + a.value * b.third
                         + a.hess[t.p_ij] * b.grad[t.k3]
                         + a.hess[t.p_ik] * b.grad[t.j3]
                         + a.hess[t.p_jk] * b.grad[t.i3]
                         + a.grad[t.i3] * b.hess[t.p_jk]
                         + a.grad[t.j3] * b.hess[t.p_ik]
                         + a.grad[t.k3] * b.hess[t.p_ij])
        return out

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet3":
        v = self.value
        if v == 0.0:
            raise JetDomainError("div", "division by zero")
        return self._compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("div", "division by zero")
            return self * (1.0 / float(other))
        if not isinstance(other, Jet3):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float, np.floating, np.integer)):
            return NotImplemented
        e = float(exponent)
        v = self.value
        return self._compose(_pow_term(v, e, 0), _pow_term(v, e, 1),
                             _pow_term(v, e, 2), _pow_term(v, e, 3))

    # -- chain rule ----------------------------------------------------

    def _compose(self, c0: float, c1: float, c2: float, c3: float) -> "Jet3":
        """phi(self) for a scalar function with derivatives c0..c3 at value."""
        t = jet_tables(self.n)
        out = Jet3.empty(self.n, self.order)
        out.value = c0
        if self.order >= 1:
            out.grad = c1 * self.grad
        if self.order >= 2:
            out.hess = c1 * self.hess + c2 * self.grad[t.i2] * self.grad[t.j2]
        if self.order >= 3:
            out.third = (c1 * self.third
                         + c2 * (self.hess[t.p_ij] * self.grad[t.k3]
                                 + self.hess[t.p_ik] * self.grad[t.j3]
                                 + self.hess[t.p_jk] * self.grad[t.i3])
                         + c3 * self.grad[t.i3] * self.grad[t.j3] * self.grad[t.k3])
        return out

    def exp(self) -> "Jet3":
        c = math.exp(self.value)
        return self._compose(c, c, c, c)

    def ln(self) -> "Jet3":
        v = self.value
        if v <= 0.0:
            raise JetDomainError("ln", f"argument {v!r} is not positive")
        return self._compose(math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def sqrt(self) -> "Jet3":
        v = self.value
        if v <= 0.0:
            raise JetDomainError("sqrt", f"argument {v!r} is not positive")
        r = math.sqrt(v)
        return self._compose(r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))

    def sin(self) -> "Jet3":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s, -c)

    def cos(self) -> "Jet3":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(c, -s, -c, s)

    def tan(self) -> "Jet3":
        v = math.tan(self.value)
        s = 1.0 + v * v
        return self._compose(v, s, 2.0 * v * s, s * (2.0 + 6.0 * v * v))

    def sinh(self) -> "Jet3":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(s, c, s, c)

    def cosh(self) -> "Jet3":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(c, s, c, s)

    def tanh(self) -> "Jet3":
        v = math.tanh(self.value)
        s = 1.0 - v * v
        return self._compose(v, s, -2.0 * v * s, s * (6.0 * v * v - 2.0))


def _pow_term(v: float, e: float, m: int) -> float:
    """m-th derivative of x**e at v: e(e-1)...(e-m+1) v**(e-m)."""
    coeff = 1.0
    for i in range(m):
        coeff *= e - i
    if coeff == 0.0:
        return 0.0
    p = e - m
    if float(e).is_integer():
        if v == 0.0:
            if p < 0:
                raise JetDomainError("pow", f"0.0 raised to negative power {p}")
            return coeff if p == 0 else 0.0
        return coeff * v ** p
    if v <= 0.0:
        raise JetDomainError(
            "pow", f"base {v!r} not positive for non-integer exponent {e!r}")
    return coeff * v ** p


class TensorJet:
    """Jets of every component of an array-valued field, at one point or at
    each point of a batch.

    ``levels[0]`` is the value, of the field's shape S; ``levels[1..3]``
    (``grad``, ``hess``, ``third``) have shapes S + (n,), S + (pairs,) and
    S + (triples,) over the packed slots of ``jet_tables(n)``. A batched
    jet (``batch`` 1) puts a point axis in front of every level. Only
    levels up to ``order`` are stored. Index specs (``map``, ``contract``)
    name the value axes only; the point axis and the derivative axis ride
    along.
    """

    __slots__ = ("n", "order", "levels", "batch")

    def __init__(self, n: int, levels, batch: int = 0):
        self.n = n
        self.order = len(levels) - 1
        self.levels = tuple(levels)
        self.batch = batch

    @classmethod
    def from_jets(cls, jets, shape) -> "TensorJet":
        """Stack scalar ``Jet3``s, listed in C order of ``shape``."""
        shape = tuple(shape)
        order = min(j.order for j in jets)
        levels = [np.array([j.value for j in jets]).reshape(shape)]
        for name in ("grad", "hess", "third")[:order]:
            levels.append(np.array([getattr(j, name) for j in jets])
                          .reshape(shape + (-1,)))
        return cls(jets[0].n, levels)

    @property
    def value(self) -> np.ndarray:
        return self.levels[0]

    @property
    def grad(self) -> np.ndarray:
        return self.levels[1]

    @property
    def hess(self) -> np.ndarray:
        return self.levels[2]

    def _like(self, levels) -> "TensorJet":
        return TensorJet(self.n, levels, self.batch)

    def at(self, i: int) -> "TensorJet":
        """The jet at point ``i`` of a batch: views, no copies."""
        return TensorJet(self.n, [level[i, ...] for level in self.levels])

    def truncated(self, order: int) -> "TensorJet":
        if order >= self.order:
            return self
        return self._like(self.levels[:order + 1])

    def deriv(self) -> "TensorJet":
        """New axis a, right after the point axis, holding d_a of every
        component, order - 1."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        t, a = jet_tables(self.n), self.batch
        levels = [np.moveaxis(self.levels[1], -1, a)]
        if self.order >= 2:
            levels.append(np.moveaxis(self.levels[2][..., t.pair_pos], -2, a))
        if self.order >= 3:
            levels.append(np.moveaxis(
                self.levels[3][..., t.triple_pos[:, t.i2, t.j2]], -2, a))
        return self._like(levels)

    def map(self, spec: str) -> "TensorJet":
        """A linear index map (axis permutation, trace) on every level."""
        src, dst = spec.split("->")
        return self._like([np.einsum(f"...{src}->...{dst}", self.levels[0])] + [
            np.einsum(f"...{src}Z->...{dst}Z", level) for level in self.levels[1:]])

    def as_jet3(self) -> Jet3:
        """A shape-() jet as a scalar ``Jet3`` with a Python float value."""
        zeros = (np.zeros(self.n), np.zeros(pair_count(self.n)),
                 np.zeros(triple_count(self.n)))
        return Jet3(self.n, self.order, float(self.levels[0]),
                    *self.levels[1:], *zeros[self.order:])

    def __add__(self, other: "TensorJet") -> "TensorJet":
        return self._like([a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "TensorJet") -> "TensorJet":
        return self._like([a - b for a, b in zip(self.levels, other.levels)])

    def __mul__(self, c: float) -> "TensorJet":
        return self._like([a * c for a in self.levels])

    __rmul__ = __mul__


def contract(spec: str, a: TensorJet, b: TensorJet) -> TensorJet:
    """Leibniz product of two tensor jets under an einsum ``spec`` on their
    value axes, at the lower of the two orders: the terms of
    ``Jet3.__mul__``, one einsum each."""
    order = min(a.order, b.order)
    return TensorJet(a.n, [leibniz_level(spec, a.n, a.levels, b.levels, k)
                           for k in range(order + 1)], max(a.batch, b.batch))


def leibniz_level(spec: str, n: int, a, b, k: int) -> np.ndarray:
    """Level k of the product of the level sequences ``a`` and ``b``,
    summed term by term in ``Jet3.__mul__``'s order."""
    src, out = spec.split("->")
    sa, sb = src.split(",")
    if k == 0:
        return np.einsum(f"...{sa},...{sb}->...{out}", a[0], b[0])
    t = jet_tables(n)
    cross = ()    # products of lower levels, as (a level, slots, b level, slots)
    if k == 2:
        cross = ((a[1], t.i2, b[1], t.j2), (a[1], t.j2, b[1], t.i2))
    elif k == 3:
        cross = ((a[2], t.p_ij, b[1], t.k3), (a[2], t.p_ik, b[1], t.j3),
                 (a[2], t.p_jk, b[1], t.i3), (a[1], t.i3, b[2], t.p_jk),
                 (a[1], t.j3, b[2], t.p_ik), (a[1], t.k3, b[2], t.p_ij))
    level = np.einsum(f"...{sa}Z,...{sb}->...{out}Z", a[k], b[0])
    level += np.einsum(f"...{sa},...{sb}Z->...{out}Z", a[0], b[k])
    for x, i, y, j in cross:
        level += np.einsum(f"...{sa}Z,...{sb}Z->...{out}Z",
                           x[..., i], y[..., j])
    return level
