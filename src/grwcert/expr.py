"""Metric-component expressions: parsing and evaluation.

Grammar (documented in the README): identifiers ``[a-zA-Z_][a-zA-Z0-9_]*``,
decimal literals (optional fraction and exponent), binary operators
``+ - * / ^``, unary minus, parentheses, and single-argument calls
``name(arg)`` for exp, ln, sqrt, sin, cos, tan, sinh, cosh, tanh.
Precedence: ``^`` > unary minus > ``* /`` > ``+ -``; binary operators
associate left. Exponents must be constant: the tape walker folds them
at parse time.

Trees are immutable; evaluation is pure. One tape walker evaluates them:
``eval_jet3_batch`` gives the values (order 0), values and gradients
(order 1), or jets up to order 3 of several trees at the rows of a
coordinate array, and ``eval_jet3`` the order-3 jets at one point, as a
``TensorJet`` over a batch of one.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import islice, repeat
from operator import add, mul
from typing import Mapping, Sequence

import numpy as np

from .jets import MAX_ORDER, TensorJet, jet_tables

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


class RowError(ValueError):
    """A failure at one row of a walk: ``index`` among the walked rows,
    their ``coords``, and ``place``, which the rows' owner sets ("point",
    "path row"). Until then the error reads as its bare message. ``rows``
    holds every failing row of the walk, ``index`` the first of them, and
    ``at(row)`` is each one's own error."""

    def __init__(self, message: str, index=None, coords=None, rows=None):
        super().__init__(message)
        self.index, self.coords, self.place = index, coords, None
        self.rows = rows

    def at(self, row: int) -> "RowError":
        """Failing row ``row``'s own error: this one, named by ``row``,
        whose ``coords`` and ``place`` the owner sets (every row of a
        singular batch reads the same message). Until then it reads as its
        bare message."""
        error = copy.copy(self)
        error.index, error.coords, error.place = row, None, None
        return error

    def __str__(self) -> str:
        message = super().__str__()
        if self.place is None:
            return message
        coords = tuple(float(c) for c in self.coords)
        return f"{message} at {self.place} {self.index}, coordinates {coords}"


class EvalDomainError(RowError):
    """Evaluation left a function's domain, or a math call failed: ``op``
    and ``offset`` name the node, ``detail`` what failed there, and
    ``tree`` the first of the walked trees that reaches that node. Each
    flagged row's own error, as a walk of that row alone raises it, is
    ``at(row)``."""

    def __init__(self, op: str, offset: int, detail: str):
        super().__init__(f"{op} at offset {offset}: {detail}")
        self.op = op
        self.offset = offset
        self.detail = detail
        self.tree = None
        self.errors = {}        # flagged row -> its own error

    def at(self, row: int) -> "EvalDomainError":
        error = copy.copy(self.errors[row])
        error.place = self.place
        return error

    def __reduce__(self):
        # Rebuilt from its constructor's arguments, not from the message.
        return type(self), (self.op, self.offset, self.detail), self.__dict__


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
                node = self.built(Power(node, self.exponent(), offset))
            else:
                return node

    def exponent(self) -> float:
        """The exponent after a ``^``, folded by the walker on one row at
        order 0: numbers, unary minus, ``+ - * /`` and powers only."""
        root = self.exponent_atom()
        if not all(isinstance(node, (Const, Binary, Power))
                   or isinstance(node, Unary) and node.op == "neg"
                   for node, _, _ in _tape((root,))[0]):
            raise ParseError("exponent must be a constant expression",
                             root.offset)
        try:
            value = eval_jet3_batch((root,), np.zeros((1, 1)), {},
                                    order=0)[0].item()
        except EvalDomainError as err:
            if err.op == "div":
                raise ParseError("division by zero in constant exponent",
                                 err.offset) from None
            value = math.nan       # 10^400, 0^-1, (-8)^(1/3)
        if not math.isfinite(value):
            raise ParseError("exponent is not a finite real number",
                             root.offset)
        return value

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


def parse(text: str, coords: Sequence[str], params: Sequence[str] = ()) -> Expr:
    """Parse an expression over the declared coordinate and parameter names."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, coords, params).parse()


# ---------------------------------------------------------------------------
# The tape walker: evaluation over the rows of an (N, n) coordinate array.
#
# The trees of a call become one tape of their distinct subtrees (equal
# subtrees appear once, at whatever text offset; the first occurrence
# names their errors), and each step is a few numpy operations over all
# rows. A step's result is a flat jet: derivative levels 0..order in
# jet_tables' packed slots, one row of the array per slot and one column
# per coordinate row. Every row is bit-identical to the per-node scalar
# evaluators kept in tests/oracles.py: products sum their Leibniz terms in
# one fixed order, ``-`` is ``a + -b``, ``/`` is ``a * reciprocal(b)`` at
# orders 1 to 3 and plain ``/`` at order 0, and function and power
# coefficients go through ``math`` row by row, because numpy's vectorized
# exp, log, pow, tan, ... may differ from the C library in the last bit.
# ---------------------------------------------------------------------------

def _flag(bad: dict, values: np.ndarray, mask, detail: str) -> np.ndarray:
    """Flag the ``mask`` rows in ``bad``, each with ``detail`` formatted
    with its value unless an earlier failure of the step flagged it; they
    carry NaN from here on."""
    if not np.any(mask):
        return values
    rows = np.flatnonzero(mask)
    for row, v in zip(rows.tolist(), values[rows].tolist()):
        bad.setdefault(row, detail.format(v))
    return np.where(mask, np.nan, values)


def _libm(fn, values, bad, *args) -> np.ndarray:
    """``fn(v, *args)`` for each entry, through Python's math semantics.
    An entry whose call fails (overflows, leaves the domain) is NaN and
    flags its row in ``bad`` with the call's message."""
    try:
        return np.fromiter(map(fn, values.tolist(),
                               *(repeat(a) for a in args)),
                           dtype=float, count=len(values))
    except (ArithmeticError, ValueError):
        pass
    out = np.empty(len(values))
    for row, v in enumerate(values.tolist()):
        try:
            out[row] = fn(v, *args)
        except (ArithmeticError, ValueError) as err:
            # pow's OverflowError carries an errno tuple, exp's a text.
            out[row] = math.nan
            bad.setdefault(row, "math range error"
                           if isinstance(err, OverflowError) else str(err))
    return out


def _ratio(num: float, den: np.ndarray, bad) -> np.ndarray:
    """``num / den``, failing where Python's float division would: a zero
    ``den`` flags its row in ``bad``."""
    return num / _flag(bad, den, den == 0.0, "float division by zero")


# Derivatives c0, c1, c2, c3 of each function at the argument v;
# generators, so that a walk of order k forms only c0..ck. exp, sin, cos,
# sinh and cosh cycle through f and f' with signs; 1/v is a falling
# factorial, as v^e is, and ln is log, then 1/v's; sqrt, tan and tanh
# keep fixed formulas.

def _cyclic(f, df, signs: str):
    """The derivatives of a function whose derivatives cycle: the m-th is
    ``f`` at even m and ``df`` at odd m, with the sign ``signs[m % 4]``."""
    def coefficients(v, bad):
        c = _libm(f, v, bad)
        yield c
        dc = c if df is f else _libm(df, v, bad)   # exp: one call
        for m in range(1, MAX_ORDER + 1):
            cm = dc if m % 2 else c
            yield -cm if signs[m % 4] == "-" else cm
    return coefficients


def _reciprocal(v, bad):
    """The m-th derivative (-1)^m m! / v^(m+1) of 1/v for m = 0, 1, ..."""
    yield 1.0 / v
    coeff = 1.0
    for m in range(1, MAX_ORDER + 1):
        coeff *= -m
        yield _ratio(coeff, _libm(pow, v, bad, m + 1.0), bad)


def _ln(v, bad):
    yield _libm(math.log, v, bad)
    yield from _reciprocal(v, bad)


def _sqrt(v, bad):
    r = _libm(math.sqrt, v, bad)
    yield r
    yield 0.5 / r
    yield _ratio(-0.25, v * r, bad)
    yield _ratio(0.375, v * v * r, bad)


def _tan(v, bad):
    t = _libm(math.tan, v, bad)
    yield t
    s = 1.0 + t * t
    yield from (s, 2.0 * t * s, s * (2.0 + 6.0 * t * t))


def _tanh(v, bad):
    t = _libm(math.tanh, v, bad)
    yield t
    s = 1.0 - t * t
    yield from (s, -2.0 * t * s, s * (6.0 * t * t - 2.0))


def _power(v, e: float, bad):
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
        c = coeff * _libm(pow, v, bad, e - m)
        yield np.where(v == 0.0, coeff if e == m else 0.0, c) if integer else c


_FUNCTIONS = {"exp": _cyclic(math.exp, math.exp, "++++"),
              "sin": _cyclic(math.sin, math.cos, "++--"),
              "cos": _cyclic(math.cos, math.sin, "+--+"),
              "sinh": _cyclic(math.sinh, math.cosh, "++++"),
              "cosh": _cyclic(math.cosh, math.sinh, "++++"),
              "ln": _ln, "sqrt": _sqrt, "tan": _tan, "tanh": _tanh}
_POSITIVE_ARGUMENT = ("ln", "sqrt")


@lru_cache(maxsize=None)
def _product_terms(n: int, order: int):
    """The Leibniz product as a table. Row r of the two (terms, slots)
    index arrays holds term r of every output slot, as an (a slot, b slot)
    product of flat-jet slots, in ``jet_tables(n).leibniz``'s order. Slots
    with fewer terms are padded with the slot past the end, which holds
    -0.0 in a and 1.0 in b: adding -0.0 leaves every float as it is,
    signed zeros included."""
    t = jet_tables(n)
    pad, terms = t.offsets[order + 1], t.leibniz[:order + 1]
    ia, ib = np.full((2, max(map(len, terms)), pad), pad, dtype=np.intp)
    for k, level in enumerate(terms):
        lo, hi = t.offsets[k], t.offsets[k + 1]
        for r, ((i, si), (j, sj)) in enumerate(level):
            ia[r, lo:hi] = t.offsets[i] + si
            ib[r, lo:hi] = t.offsets[j] + sj
    return ia, ib


def _mul(a, b, terms):
    """The Leibniz product of flat jets: one gather per operand, one
    product, and a left-to-right sum over the terms of each slot, started
    at -0.0 (a sum of -0.0 terms stays -0.0)."""
    ia, ib = terms
    rows = a.shape[1]
    a = np.concatenate((a, np.full((1, rows), -0.0)))
    b = np.concatenate((b, np.ones((1, rows))))
    return np.add.reduce(a[ia] * b[ib], axis=0, initial=-0.0)


def _compose(f, coefficients, n: int, order: int):
    """The chain rule on a flat jet: phi(f) from phi's derivatives c_m.
    Level k is c_1 f_k plus, for each group of ``jet_tables(n).chain[k]``
    in order, c_m times its partitions' products of blocks: c_m folded
    into a lone partition's product from the left, else c_m times the sum
    of the products in order."""
    c = list(islice(coefficients, order + 1))
    if not order:
        return c[0][None]
    t = jet_tables(n)
    out = c[1] * f           # c1 times every derivative level
    out[0] = c[0]
    # Levels 0 and 1 have no partition into two or more blocks.
    for k, (slots, groups) in enumerate(t.chain[2:order + 1], 2):
        blocks, level = f[slots], out[t.offsets[k]:t.offsets[k + 1]]
        for m, partitions in groups:
            products = [[blocks[b] for b in p] for p in partitions]
            if len(products) == 1:
                level += reduce(mul, products[0], c[m])
            else:
                level += c[m] * reduce(add, (reduce(mul, p) for p in products))
    return out


def _children(node: Expr) -> tuple:
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    return ()


def _label(node: Expr):
    """What a node adds to its children's steps: its value, with the sign
    (0.0 == -0.0), index, name, operator or exponent."""
    if isinstance(node, Const):
        return node.value, node.negative
    if isinstance(node, Coord):
        return node.index
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Power):
        return node.exponent, math.copysign(1.0, node.exponent) < 0.0
    return node.op


@lru_cache(maxsize=256)
def _tape(nodes: tuple):
    """The distinct subtrees of ``nodes`` in post-order, as (node, child
    steps, tree) steps, ``tree`` the index of the first root that reaches
    the step; for each step, the earlier steps whose last use it is; and
    the steps of the roots. Equal subtrees are one step at any text
    offset: a step is keyed on its node's class, label and child steps,
    and keeps the first occurrence in walk order, whose offset its domain
    errors name."""
    steps, index = [], {}

    def visit(node, tree):
        kids = tuple(visit(child, tree) for child in _children(node))
        key = (type(node), _label(node), kids)
        step = index.get(key)
        if step is None:
            step = index[key] = len(steps)
            steps.append((node, kids, tree))
        return step

    roots = tuple(visit(node, tree) for tree, node in enumerate(nodes))
    last = {kid: i for i, (_, kids, _) in enumerate(steps) for kid in kids}
    frees = [[] for _ in steps]
    for kid, i in last.items():
        if kid not in roots:
            frees[i].append(kid)
    return steps, frees, roots


def _evaluate(node: Expr, args, cols, params, order: int, bad) -> np.ndarray:
    """The flat jet of one node from its children's flat jets ``args``.
    Each row that fails here maps to its failure's detail in ``bad``."""
    n, rows = cols.shape
    if isinstance(node, (Const, Param, Coord)):
        flat = np.zeros((jet_tables(n).offsets[order + 1], rows))
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
                flat[0] = _flag(bad, flat[0], np.ones(rows, dtype=bool),
                                f"{node.name!r} is unbound")
        return flat
    if isinstance(node, Unary):
        if node.op == "neg":
            return -args[0]
        v = args[0][0]
        if node.op in _POSITIVE_ARGUMENT:
            v = _flag(bad, v, v <= 0.0, "argument {!r} is not positive")
        return _compose(args[0], _FUNCTIONS[node.op](v, bad), n, order)
    if isinstance(node, Binary):
        a, b = args
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a + -b
        if node.op == "*":
            return _mul(a, b, _product_terms(n, order))
        v = _flag(bad, b[0], b[0] == 0.0, "division by zero")
        if not order:
            return (a[0] / v)[None]
        return _mul(a, _compose(b, _reciprocal(v, bad), n, order),
                    _product_terms(n, order))
    if isinstance(node, Power):
        v, e = args[0][0], float(node.exponent)
        if e.is_integer():
            v = _flag(bad, v, (v == 0.0) & (e < 0),
                      f"0.0 raised to negative power {e}")
        else:
            v = _flag(bad, v, v <= 0.0, f"base {{!r}} not positive for "
                                        f"non-integer exponent {e!r}")
        if not order:
            return _libm(pow, v, bad, e)[None]
        return _compose(args[0], _power(v, e, bad), n, order)
    raise TypeError(f"not an expression node: {node!r}")


def _walk(tape, x, params, order: int):
    """The roots' flat jets (slots, N) over the rows of ``x``, and the
    failing rows. Each distinct subtree is evaluated once and kept until
    its last use. A row that leaves a domain, or whose math call fails,
    maps to the step that failed it first and that failure's detail, and
    carries NaN from there on."""
    steps, frees, roots = tape
    cols = np.ascontiguousarray(x.T)            # (n, N)
    jets, failed = [None] * len(steps), {}
    with np.errstate(all="ignore"):
        for i, (node, kids, _) in enumerate(steps):
            bad = {}
            jets[i] = _evaluate(node, [jets[k] for k in kids], cols, params,
                                order, bad)
            for row, detail in bad.items():
                failed.setdefault(row, (i, detail))
            for k in frees[i]:
                jets[k] = None
    return [jets[r] for r in roots], failed


# The op a failing node names, by class; a function names itself.
_OPS = {Param: "parameter", Binary: "div", Power: "pow"}


def eval_jet3_batch(nodes: Sequence[Expr], x, params: Mapping[str, float],
                    *, order: int = MAX_ORDER) -> list:
    """Jets to ``order`` (3 by default) of several trees at every row of
    ``x`` (N, n): levels 0..order of shapes (N, K), (N, K, n),
    (N, K, pairs) and (N, K, triples), the same bytes at any order from 1
    up (order 0, the values alone, divides with plain ``/``).

    One walk flags every failing row: a row fails at the first step (the
    trees' distinct subtrees in post-order, tree by tree) that leaves a
    domain or whose math call fails there, as a walk of that row alone
    would. The first flagged row's ``EvalDomainError`` is raised. It names
    the node by ``op`` and ``offset``, the row by ``index`` and
    ``coords``, the first tree that reaches the node by ``tree``, and
    every flagged row by ``rows``, each with its own error as ``at(row)``.
    """
    nodes, x = tuple(nodes), np.asarray(x, dtype=float)
    tape = _tape(nodes)
    jets, failed = _walk(tape, x, params, order)
    if failed:
        errors = {}
        for row in sorted(failed):
            step, detail = failed[row]
            node, _, tree = tape[0][step]
            error = errors[row] = EvalDomainError(
                _OPS.get(type(node)) or node.op, node.offset, detail)
            error.index, error.coords, error.tree = (
                row, tuple(x[row].tolist()), tree)
        first = copy.copy(next(iter(errors.values())))
        first.rows, first.errors = np.array(list(errors)), errors
        raise first
    flat = np.stack(jets)
    bounds = jet_tables(x.shape[1]).offsets[1:order + 2]
    return [np.ascontiguousarray(flat[:, 0].T)] + [
        np.ascontiguousarray(flat[:, lo:hi].transpose(2, 0, 1))
        for lo, hi in zip(bounds, bounds[1:])]


def eval_jet3(nodes: Sequence[Expr], point,
              params: Mapping[str, float]) -> TensorJet:
    """Order-3 jets of several trees at one point, a coordinate sequence:
    the one-row ``eval_jet3_batch``, a ``TensorJet`` of value shape (1, K)."""
    return TensorJet(len(point), eval_jet3_batch(nodes, [point], params))
