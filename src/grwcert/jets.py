"""Order-3 derivative jets over chart coordinates.

A jet carries a value together with all partial derivatives up to total
order 3 at a point. Arithmetic follows exact Leibniz and chain rules, so
everything consumed downstream (metric through the Weyl divergence) is
obtained by calculus, never by divided differences.

Level k of a jet is packed symmetric storage over the sorted k-tuples of
coordinate indices: every ordering of a tuple reads the same slot. One
enumeration of those tuples, ``jet_tables(n)``, fixes the layout and the
term order of the product rule, the chain rule and the derivative, for
every consumer (``TensorJet`` here, the tape walker in ``expr``). Jets are
immutable after construction and safe to share between threads.

``TensorJet`` is the one jet type: it holds the jets of every component of
an array-valued field (a scalar is shape ()), optionally at each point of a
batch, in one array per derivative level with the packed derivative axis
last. Expression trees evaluate to it (``expr.eval_jet3``), and its
products are one einsum per Leibniz term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import (accumulate, combinations, combinations_with_replacement,
                       groupby, permutations, product)

import numpy as np

MAX_ORDER = 3


@dataclass(frozen=True)
class JetTables:
    """The packed layout of jets in ``n`` coordinates, per level k =
    0..MAX_ORDER, and the terms of the rules that act on it.

    ``tuples[k]``: level k's slots as sorted index tuples, (slots, k), in
    ``combinations_with_replacement`` order. ``pos[k]``: any ordering of
    a k-tuple, (n,) * k, to its slot. A flat jet holds level k at
    ``offsets[k]:offsets[k + 1]``. ``lifts[k - 2]`` (k >= 2): the level-k
    slot of (a,) + each (k-1)-tuple, from which ``deriv`` reads d_a's
    level k - 1 (its level 0 is level 1 as it stands).

    A factor (j, s) reads level j at slots ``s``: for each k-tuple, the
    j-tuple at some of its positions. ``leibniz[k]``: level k's product
    terms as (a factor, b factor), a_k b_0, a_0 b_k, then a at each other
    subset of the positions, larger first in ``combinations`` order, and
    b at the rest. ``chain[k]``: level k's chain-rule terms past c_1 f_k
    as (slots, groups). ``slots`` holds the flat-jet slots of each block
    they read, once; ``groups`` are (m, partitions) in ascending m, the
    partitions of the positions into m >= 2 blocks, sorted, each as rows
    of ``slots``, larger blocks first.
    """

    n: int
    tuples: tuple
    pos: tuple
    offsets: tuple
    lifts: tuple
    leibniz: tuple
    chain: tuple


@lru_cache(maxsize=None)
def _splits(k: int) -> tuple:
    """``JetTables.leibniz[k]`` as (a's positions, b's positions)."""
    sizes = dict.fromkeys((k, 0, *range(k - 1, 0, -1)))    # k = 0: once
    return tuple((part, tuple(p for p in range(k) if p not in part))
                 for size in sizes for part in combinations(range(k), size))


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple:
    """``JetTables.chain[k]``'s blocks as positions, and its groups."""
    found = set()
    for labels in product(range(k), repeat=k):     # block of each position
        blocks = (tuple(p for p in range(k) if labels[p] == label)
                  for label in set(labels))
        found.add(tuple(sorted(blocks, key=lambda block: (-len(block), block))))
    ordered = sorted((p for p in found if len(p) >= 2),
                     key=lambda p: (len(p), p))
    blocks = list(dict.fromkeys(block for p in ordered for block in p))
    return tuple(blocks), tuple(
        (m, tuple(tuple(map(blocks.index, p)) for p in group))
        for m, group in groupby(ordered, len))


@lru_cache(maxsize=None)
def jet_tables(n: int) -> JetTables:
    orders = range(MAX_ORDER + 1)
    tuples, pos = [], []
    for k in orders:
        level = list(combinations_with_replacement(range(n), k))
        slots = np.empty((n,) * k, dtype=np.intp)
        for slot, index in enumerate(level):
            for perm in permutations(index):
                slots[perm] = slot
        tuples.append(np.array(level, dtype=np.intp).reshape(len(level), k))
        pos.append(slots)
    # Level k's factors: the subtuple at each subset of the k positions.
    factors = [{part: (len(part), pos[len(part)][tuple(t.T[p] for p in part)])
                for size in range(k + 1)
                for part in combinations(range(k), size)}
               for k, t in zip(orders, tuples)]
    offsets = (0, *accumulate(map(len, tuples)))

    def chain(k, f):
        blocks, groups = _partitions(k)
        slots = [offsets[j] + s for j, s in map(f.get, blocks)]
        shape = len(slots), len(tuples[k])
        return np.array(slots, dtype=np.intp).reshape(shape), groups

    return JetTables(
        n=n,
        tuples=tuple(tuples),
        pos=tuple(pos),
        offsets=offsets,
        lifts=tuple(pos[k][(slice(None), *tuples[k - 1].T)]
                    for k in orders[2:]),
        leibniz=tuple(tuple((f[a], f[b]) for a, b in _splits(k))
                      for k, f in zip(orders, factors)),
        chain=tuple(map(chain, orders, factors)),
    )


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
        lifts, a = jet_tables(self.n).lifts, self.batch
        return self._like([np.moveaxis(self.levels[1], -1, a)] + [
            np.moveaxis(level[..., lift], -2, a)
            for level, lift in zip(self.levels[2:], lifts)])

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
    summed term by term in ``jet_tables(n).leibniz[k]``'s order: a_k b_0,
    a_0 b_k, then the cross terms of lower levels."""
    src, out = spec.split("->")
    sa, sb = src.split(",")
    if not k:
        return np.einsum(f"...{sa},...{sb}->...{out}", a[0], b[0])
    level = np.einsum(f"...{sa}Z,...{sb}->...{out}Z", a[k], b[0])
    level += np.einsum(f"...{sa},...{sb}Z->...{out}Z", a[0], b[k])
    for (i, si), (j, sj) in jet_tables(n).leibniz[k][2:]:
        level += np.einsum(f"...{sa}Z,...{sb}Z->...{out}Z",
                           a[i][..., si], b[j][..., sj])
    return level
