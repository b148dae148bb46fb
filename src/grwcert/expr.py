"""Metric-component expressions: parsing and evaluation.

Grammar (documented in the README): identifiers ``[a-zA-Z_][a-zA-Z0-9_]*``,
decimal literals (optional fraction and exponent), binary operators
``+ - * / ^``, unary minus, parentheses, and single-argument calls
``name(arg)`` for exp, ln, sqrt, sin, cos, tan, sinh, cosh, tanh.
Precedence: ``^`` > unary minus > ``* /`` > ``+ -``; binary operators
associate left. Exponents must fold to constants at parse time.

Trees are immutable; evaluation is pure. One tape walker evaluates them:
values (``eval_batch``), values and gradients, or order-3 jets
(``eval_jet3_batch``, and ``eval_jet3`` at one point) of several trees at
the rows of a coordinate array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, repeat
from typing import Mapping, Sequence

import numpy as np

from .jets import (MAX_ORDER, TensorJet, jet_tables, pair_count,
                   triple_count)

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")

# Parentheses, calls and unary minus open at most this many levels at once,
# and no tree is deeper: the parser and the tree walkers recurse.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error, reported with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class UnknownSymbolError(ParseError):
    """An identifier that is neither a declared coordinate nor a parameter."""

    def __init__(self, symbol: str, offset: int):
        ValueError.__init__(
            self, f"unknown identifier {symbol!r} at offset {offset}")
        self.symbol = symbol
        self.offset = offset


class EvalDomainError(ValueError):
    """Evaluation left a function's domain; names the offending node, and
    the failing row: ``index`` among the walked rows and its ``coords``."""

    def __init__(self, op: str, offset: int, detail: str):
        super().__init__(f"{op} at offset {offset}: {detail}")
        self.op = op
        self.offset = offset
        self.detail = detail
        self.index = None
        self.coords = None


class Expr:
    __slots__ = ()


def _hashed_once(cls):
    """Cache each node's hash. The batched walk memoizes on nodes, and a
    frozen dataclass's own hash rehashes the whole subtree on every call."""
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_hashed_once
@dataclass(frozen=True)
class Const(Expr):
    value: float
    offset: int = 0
    # The sign takes part in == and the hash: 0.0 and -0.0 are different
    # trees, so that the tape never evaluates one in place of the other.
    negative: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "negative",
                           math.copysign(1.0, self.value) < 0.0)


@_hashed_once
@dataclass(frozen=True)
class Coord(Expr):
    name: str
    index: int
    offset: int = 0


@_hashed_once
@dataclass(frozen=True)
class Param(Expr):
    name: str
    offset: int = 0


@_hashed_once
@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a FUNCTIONS entry
    arg: Expr
    offset: int = 0


@_hashed_once
@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr
    offset: int = 0


@_hashed_once
@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: float
    offset: int = 0


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str], params: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}
        self.params = set(params)
        self.level = 0
        self.depths: dict[Expr, int] = {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", offset)
        return self.advance()

    def nested(self, offset: int, parse):
        """``parse()`` one level deeper."""
        self.level += 1
        if self.level > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)
        node = parse()
        self.level -= 1
        return node

    def built(self, node: Expr) -> Expr:
        """A new inner node, at most ``MAX_NESTING`` levels deep."""
        depth = 1 + max(self.depths.get(kid, 1) for kid in _children(node))
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             node.offset)
        self.depths[node] = depth
        return node

    def parse(self) -> Expr:
        node = self.expression()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = self.built(Binary(text, node, self.term(), offset))
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = self.built(Binary(text, node, self.unary(), offset))
            else:
                return node

    def unary(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return self.built(Unary("neg", self.nested(offset, self.unary),
                                    offset))
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                exponent_node = self.exponent_atom()
                try:
                    folded = _fold_constant(exponent_node)
                except ArithmeticError:      # 10^400, 0^-1
                    folded = math.inf
                if folded is None:
                    raise ParseError(
                        "exponent must be a constant expression",
                        _node_offset(exponent_node))
                if isinstance(folded, complex) or not math.isfinite(folded):
                    raise ParseError("exponent is not a finite real number",
                                     _node_offset(exponent_node))
                node = self.built(Power(node, folded, offset))
            else:
                return node

    def exponent_atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return self.built(Unary(
                "neg", self.nested(offset, self.exponent_atom), offset))
        return self.atom()

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ParseError(f"literal {text!r} is not finite", offset)
            return Const(float(text), offset)
        if kind == "op" and text == "(":
            node = self.nested(offset, self.expression)
            self.expect_op(")")
            return node
        if kind == "ident":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                self.advance()
                arg = self.nested(offset, self.expression)
                self.expect_op(")")
                if text not in FUNCTIONS:
                    raise UnknownSymbolError(text, offset)
                return self.built(Unary(text, arg, offset))
            if text in self.coords:
                return Coord(text, self.coords[text], offset)
            if text in self.params:
                return Param(text, offset)
            raise UnknownSymbolError(text, offset)
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {text!r}", offset)


def _node_offset(node: Expr) -> int:
    return getattr(node, "offset", 0)


def _fold_constant(node: Expr):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Unary) and node.op == "neg":
        inner = _fold_constant(node.arg)
        return None if inner is None else -inner
    if isinstance(node, Binary):
        left = _fold_constant(node.left)
        right = _fold_constant(node.right)
        if left is None or right is None:
            return None
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0:
                raise ParseError("division by zero in constant exponent",
                                 node.offset)
            return left / right
    if isinstance(node, Power):
        base = _fold_constant(node.base)
        return None if base is None else base ** node.exponent
    return None


def parse(text: str, coords: Sequence[str], params: Sequence[str] = ()) -> Expr:
    """Parse an expression over the declared coordinate and parameter names."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, coords, params).parse()


def depth(node: Expr) -> int:
    if isinstance(node, (Const, Coord, Param)):
        return 1
    if isinstance(node, Unary):
        return 1 + depth(node.arg)
    if isinstance(node, Power):
        return 1 + depth(node.base)
    return 1 + max(depth(node.left), depth(node.right))


# ---------------------------------------------------------------------------
# The tape walker: evaluation over the rows of an (N, n) coordinate array.
#
# The trees of a call become one tape of their distinct subtrees (equal
# subtrees, i.e. the same text at the same offset, appear once), and each
# step is a few numpy operations over all rows. A step's result is a flat
# jet: derivative levels 0..order in jet_tables' packed slots, one row of
# the array per slot and one column per coordinate row. Every row is
# bit-identical to the per-node scalar evaluators kept in tests/oracles.py:
# products sum their Leibniz terms in one fixed order, ``/`` is
# ``a * reciprocal(b)`` at orders 1 and 3 and plain ``/`` at order 0, and
# function and power coefficients go through ``math`` row by row, because
# numpy's vectorized exp, log, pow, tan, ... may differ from the C library
# in the last bit.
# ---------------------------------------------------------------------------

def _libm(fn, values, *args) -> np.ndarray:
    """``fn(v, *args)`` for each entry, through Python's math semantics."""
    return np.fromiter(map(fn, values.tolist(), *(repeat(a) for a in args)),
                       dtype=float, count=len(values))


def _ratio(num: float, den: np.ndarray) -> np.ndarray:
    """``num / den``, failing where Python's float division would."""
    if np.any(den == 0.0):
        raise ZeroDivisionError("float division by zero")
    return num / den


# Derivatives c0, c1, c2, c3 of each function at the argument v, each
# formed by a fixed formula; generators, so that a walk of order k forms
# only c0..ck.

def _exp(v):
    c = _libm(math.exp, v)
    yield from (c, c, c, c)


def _ln(v):
    yield _libm(math.log, v)
    yield 1.0 / v
    yield _ratio(-1.0, _libm(pow, v, 2.0))
    yield _ratio(2.0, _libm(pow, v, 3.0))


def _sqrt(v):
    r = _libm(math.sqrt, v)
    yield r
    yield 0.5 / r
    yield _ratio(-0.25, v * r)
    yield _ratio(0.375, v * v * r)


def _sin(v):
    s = _libm(math.sin, v)
    yield s
    c = _libm(math.cos, v)
    yield from (c, -s, -c)


def _cos(v):
    c = _libm(math.cos, v)
    yield c
    s = _libm(math.sin, v)
    yield from (-s, -c, s)


def _tan(v):
    t = _libm(math.tan, v)
    yield t
    s = 1.0 + t * t
    yield from (s, 2.0 * t * s, s * (2.0 + 6.0 * t * t))


def _sinh(v):
    s = _libm(math.sinh, v)
    yield s
    c = _libm(math.cosh, v)
    yield from (c, s, c)


def _cosh(v):
    c = _libm(math.cosh, v)
    yield c
    s = _libm(math.sinh, v)
    yield from (s, c, s)


def _tanh(v):
    t = _libm(math.tanh, v)
    yield t
    s = 1.0 - t * t
    yield from (s, -2.0 * t * s, s * (6.0 * t * t - 2.0))


def _reciprocal(v):
    yield 1.0 / v
    yield _ratio(-1.0, _libm(pow, v, 2.0))
    yield _ratio(2.0, _libm(pow, v, 3.0))
    yield _ratio(-6.0, _libm(pow, v, 4.0))


def _power(v, e: float):
    """The m-th derivative e(e-1)...(e-m+1) v^(e-m) of v^e for m = 0, 1,
    ...; integer powers of zero are pinned to unsigned values, not pow's
    signed zeros."""
    integer = float(e).is_integer()
    coeff = 1.0
    for m in range(MAX_ORDER + 1):
        if m:
            coeff *= e - (m - 1)
        if coeff == 0.0:
            yield np.zeros(len(v))
            continue
        c = coeff * _libm(pow, v, e - m)
        yield np.where(v == 0.0, coeff if e == m else 0.0, c) if integer else c


_FUNCTIONS = {"exp": _exp, "ln": _ln, "sqrt": _sqrt, "sin": _sin,
              "cos": _cos, "tan": _tan, "sinh": _sinh, "cosh": _cosh,
              "tanh": _tanh}
_POSITIVE_ARGUMENT = ("ln", "sqrt")


@lru_cache(maxsize=None)
def _slots(n: int, order: int) -> int:
    """Length of a flat jet of the given order: value, then the packed
    gradient, Hessian and third-derivative slots."""
    return (1, 1 + n, 1 + n + pair_count(n), 1 + n + pair_count(n)
            + triple_count(n))[order]


@lru_cache(maxsize=None)
def _product_terms(n: int, order: int):
    """The Leibniz product as a table. Row r of the two (terms, slots)
    index arrays holds term r of every output slot, as an (a slot, b slot)
    product, in ``leibniz_level``'s order. Slots with fewer terms are
    padded with the slot past the end, which holds -0.0 in a and 1.0 in
    b: adding -0.0
    leaves every float as it is, signed zeros included."""
    t = jet_tables(n)
    g = 1 + np.arange(n)                        # the slots of each level
    h = 1 + n + np.arange(pair_count(n))
    c = 1 + n + pair_count(n) + np.arange(triple_count(n))
    levels = [(1, [(0, 0)]),
              (n, [(g, 0), (0, g)]),
              (len(h), [(h, 0), (0, h),
                        (g[t.i2], g[t.j2]), (g[t.j2], g[t.i2])]),
              (len(c), [(c, 0), (0, c),
                        (h[t.p_ij], g[t.k3]), (h[t.p_ik], g[t.j3]),
                        (h[t.p_jk], g[t.i3]), (g[t.i3], h[t.p_jk]),
                        (g[t.j3], h[t.p_ik]), (g[t.k3], h[t.p_ij])])][:order + 1]
    pad = _slots(n, order)
    ia, ib = np.full((2, len(levels[-1][1]), pad), pad, dtype=np.intp)
    start = 0
    for size, terms in levels:
        for r, (sa, sb) in enumerate(terms):
            ia[r, start:start + size] = sa
            ib[r, start:start + size] = sb
        start += size
    return ia, ib


def _mul(a, b, terms):
    """The Leibniz product of flat jets: one gather per operand, one
    product, and a left-to-right running sum over the terms of each slot."""
    ia, ib = terms
    rows = a.shape[1]
    a = np.concatenate((a, np.full((1, rows), -0.0)))
    b = np.concatenate((b, np.ones((1, rows))))
    return np.add.accumulate(a[ia] * b[ib])[-1]


def _compose(f, coefficients, n: int, order: int):
    """The chain rule on a flat jet: phi(f) from phi's derivatives."""
    c = list(islice(coefficients, order + 1))
    if not order:
        return c[0][None]
    out = c[1] * f           # c1 times every derivative level
    out[0] = c[0]
    t, g, hess = jet_tables(n), f[1:1 + n], 1 + n
    third = hess + pair_count(n)
    if order > 1:
        out[hess:third] += c[2] * g[t.i2] * g[t.j2]
    if order > 2:
        h = f[hess:third]
        gi, gj, gk = g[t.i3], g[t.j3], g[t.k3]
        out[third:] += c[2] * (h[t.p_ij] * gk + h[t.p_ik] * gj + h[t.p_jk] * gi)
        out[third:] += c[3] * gi * gj * gk
    return out


def _flag(bad: np.ndarray, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mark ``mask`` rows as out of domain; they carry NaN from here on."""
    bad |= mask
    return np.where(mask, np.nan, values)


def _children(node: Expr) -> tuple:
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    return ()


@lru_cache(maxsize=256)
def _tape(nodes: tuple):
    """The distinct subtrees of ``nodes`` in post-order, equal subtrees
    once, as (node, child steps) steps; for each step, the earlier steps
    whose last use it is; and the steps of the roots."""
    steps, index = [], {}

    def visit(node):
        step = index.get(node)
        if step is None:
            kids = tuple(visit(child) for child in _children(node))
            step = index[node] = len(steps)
            steps.append((node, kids))
        return step

    roots = tuple(visit(node) for node in nodes)
    last = {kid: i for i, (_, kids) in enumerate(steps) for kid in kids}
    frees = [[] for _ in steps]
    for kid, i in last.items():
        if kid not in roots:
            frees[i].append(kid)
    return steps, frees, roots


def _evaluate(node: Expr, args, cols, params, order: int, bad) -> np.ndarray:
    """The flat jet of one node from its children's flat jets ``args``."""
    n, rows = cols.shape
    if isinstance(node, (Const, Param, Coord)):
        flat = np.zeros((_slots(n, order), rows))
        if isinstance(node, Coord):
            flat[0] = cols[node.index]
            if order:
                flat[1 + node.index] = 1.0
        elif isinstance(node, Const):
            flat[0] = node.value
        else:
            try:
                flat[0] = float(params[node.name])
            except KeyError:
                bad[:] = True
                flat[0] = np.nan
        return flat
    if isinstance(node, Unary):
        if node.op == "neg":
            return -args[0]
        v = args[0][0]
        if node.op in _POSITIVE_ARGUMENT:
            v = _flag(bad, v, v <= 0.0)
        return _compose(args[0], _FUNCTIONS[node.op](v), n, order)
    if isinstance(node, Binary):
        a, b = args
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return _mul(a, b, _product_terms(n, order))
        v = _flag(bad, b[0], b[0] == 0.0)
        if not order:
            return (a[0] / v)[None]
        return _mul(a, _compose(b, _reciprocal(v), n, order),
                    _product_terms(n, order))
    if isinstance(node, Power):
        v, e = args[0][0], node.exponent
        v = _flag(bad, v, (v == 0.0) & (e < 0) if float(e).is_integer()
                  else v <= 0.0)
        if not order:
            return _libm(pow, v, e)[None]
        return _compose(args[0], _power(v, e), n, order)
    raise TypeError(f"not an expression node: {node!r}")


def _domain_error(node: Expr, args) -> EvalDomainError:
    """The error of the step that flagged a one-row walk."""
    if isinstance(node, Param):
        return EvalDomainError("parameter", node.offset,
                               f"{node.name!r} is unbound")
    if isinstance(node, Binary):
        return EvalDomainError("div", node.offset, "division by zero")
    v = args[0][0].item()
    if isinstance(node, Unary):
        return EvalDomainError(node.op, node.offset,
                               f"argument {v!r} is not positive")
    e = float(node.exponent)
    if e.is_integer():
        return EvalDomainError("pow", node.offset,
                               f"0.0 raised to negative power {e}")
    return EvalDomainError(
        "pow", node.offset,
        f"base {v!r} not positive for non-integer exponent {e!r}")


def _walk(tape, x, params, order: int, bad, one_row: bool = False) -> list:
    """The roots' flat jets (slots, N) over the rows of ``x``. Each
    distinct subtree is evaluated once and kept until its last use. Rows
    out of a domain are flagged in ``bad``; a one-row walk raises at the
    step that flags it instead, and turns a math call's own error into
    the ``EvalDomainError`` of its node."""
    steps, frees, roots = tape
    cols = np.ascontiguousarray(x.T)            # (n, N)
    jets = [None] * len(steps)
    with np.errstate(all="ignore"):
        for i, (node, kids) in enumerate(steps):
            args = [jets[k] for k in kids]
            try:
                jets[i] = _evaluate(node, args, cols, params, order, bad)
            except (ArithmeticError, ValueError) as err:
                # A math call overflowed or left its domain.
                if not one_row:
                    raise
                op = ("pow" if isinstance(node, Power) else
                      "div" if isinstance(node, Binary) else node.op)
                # pow's OverflowError carries an errno tuple, exp's a text.
                detail = ("math range error" if isinstance(err, OverflowError)
                          else str(err))
                raise EvalDomainError(op, node.offset, detail) from None
            if one_row and bad[0]:
                raise _domain_error(node, args)
            for k in frees[i]:
                jets[k] = None
    return [jets[r] for r in roots]


def _eval_levels(nodes: Sequence[Expr], x, params, order: int) -> list:
    """Levels 0..order of several trees at every row of ``x`` (N, n):
    level k has shape (N, K) + the packed shape of level k.

    A failure raises what a one-row walk raises first, rows in order (and
    within a row, the trees in order): the rows up to the first flagged
    one are walked again one at a time. A domain error names its row by
    ``index`` and ``coords``.
    """
    nodes, x = tuple(nodes), np.asarray(x, dtype=float)
    tape = _tape(nodes)
    bad = np.zeros(len(x), dtype=bool)
    try:
        jets = _walk(tape, x, params, order, bad)
        failed = bool(bad.any())
    except (ArithmeticError, ValueError):   # a math call overflowed or left its domain
        failed = True
    if failed:
        last = int(np.argmax(bad)) if bad.any() else len(x) - 1
        for index in range(last + 1):
            try:
                _walk(tape, x[index:index + 1], params, order,
                      np.zeros(1, dtype=bool), one_row=True)
            except EvalDomainError as err:
                err.index, err.coords = index, tuple(x[index].tolist())
                raise
        raise RuntimeError("batched evaluation flagged a row that a "
                           "one-row walk evaluates")
    flat = np.stack(jets)
    bounds = [_slots(x.shape[1], k) for k in range(order + 1)]
    return [np.ascontiguousarray(flat[:, 0].T)] + [
        np.ascontiguousarray(flat[:, lo:hi].transpose(2, 0, 1))
        for lo, hi in zip(bounds, bounds[1:])]


def eval_batch(nodes: Sequence[Expr], x, params: Mapping[str, float], *,
               grad: bool = False):
    """Evaluate several trees at every row of ``x`` (shape (N, n)).

    Returns values of shape (N, K) and, with ``grad``, gradients of shape
    (N, K, n). A failure raises what a one-row walk raises first.
    """
    if grad:
        return tuple(_eval_levels(nodes, x, params, 1))
    return _eval_levels(nodes, x, params, 0)[0]


def eval_jet3_batch(nodes: Sequence[Expr], x, params: Mapping[str, float]):
    """Order-3 jets of several trees at every row of ``x`` (shape (N, n)):
    value, gradient, packed Hessian and packed third level, of shapes
    (N, K), (N, K, n), (N, K, pairs) and (N, K, triples).
    A failure raises what a one-row walk raises first, rows in order.
    """
    return _eval_levels(nodes, x, params, MAX_ORDER)


def eval_jet3(nodes: Sequence[Expr], point,
              params: Mapping[str, float]) -> TensorJet:
    """Order-3 jets of several trees at one point (a ChartPoint or a
    sequence): the one-row ``eval_jet3_batch``, as a ``TensorJet`` of
    value shape (K,)."""
    coords = getattr(point, "coords", point)
    levels = eval_jet3_batch(nodes, [coords], params)
    return TensorJet(len(coords), [level[0] for level in levels])
