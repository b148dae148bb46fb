"""Order-3 derivative jets over chart coordinates.

A jet carries a value together with all partial derivatives up to total
order 3 at a point. Arithmetic follows exact Leibniz and chain rules, so
everything consumed downstream (metric through the Weyl divergence) is
obtained by calculus, never by divided differences.

Second and third derivative levels use packed symmetric storage: reading
entry (i, j) or (j, i) resolves to the same slot, likewise every
permutation of a third-order triple. Jets are immutable after
construction and safe to share between threads.

``TensorJet`` is the one jet type: it holds the jets of every component of
an array-valued field (a scalar is shape ()), optionally at each point of a
batch, in one array per derivative level with the packed derivative axis
last. Expression trees evaluate to it (``expr.eval_jet3``), and its
products are one einsum per Leibniz term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

MAX_ORDER = 3


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
        """The jet at point ``i`` of a batch, or component ``i`` of a point
        jet's first value axis: views, no copies."""
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

    def __add__(self, other: "TensorJet") -> "TensorJet":
        return self._like([a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "TensorJet") -> "TensorJet":
        return self._like([a - b for a, b in zip(self.levels, other.levels)])

    def __mul__(self, c: float) -> "TensorJet":
        return self._like([a * c for a in self.levels])

    __rmul__ = __mul__


def contract(spec: str, a: TensorJet, b: TensorJet) -> TensorJet:
    """Leibniz product of two tensor jets under an einsum ``spec`` on their
    value axes, at the lower of the two orders, one einsum per term."""
    order = min(a.order, b.order)
    return TensorJet(a.n, [leibniz_level(spec, a.n, a.levels, b.levels, k)
                           for k in range(order + 1)], max(a.batch, b.batch))


def leibniz_level(spec: str, n: int, a, b, k: int) -> np.ndarray:
    """Level k of the product of the level sequences ``a`` and ``b``,
    summed term by term in a fixed order: a_k b_0, a_0 b_k, then the cross
    terms of lower levels (the order of ``expr``'s product table)."""
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
