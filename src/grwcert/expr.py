"""Metric-component expressions: parsing and jet evaluation.

Grammar (documented in the README): identifiers ``[a-zA-Z_][a-zA-Z0-9_]*``,
decimal literals (optional fraction and exponent), binary operators
``+ - * / ^``, unary minus, parentheses, and single-argument calls
``name(arg)`` for exp, ln, sqrt, sin, cos, tan, sinh, cosh, tanh.
Precedence: ``^`` > unary minus > ``* /`` > ``+ -``; binary operators
associate left. Exponents must fold to constants at parse time.

Trees are immutable; evaluation is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .jets import Jet3, JetDomainError

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")


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
    """Evaluation left a function's domain; names the offending node."""

    def __init__(self, op: str, offset: int, detail: str):
        super().__init__(f"{op} at offset {offset}: {detail}")
        self.op = op
        self.offset = offset


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Coord(Expr):
    name: str
    index: int
    offset: int = 0


@dataclass(frozen=True)
class Param(Expr):
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a FUNCTIONS entry
    arg: Expr
    offset: int = 0


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr
    offset: int = 0


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
                node = Binary(text, node, self.term(), offset)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary(), offset)
            else:
                return node

    def unary(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary(), offset)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                exponent_node = self.exponent_atom()
                folded = _fold_constant(exponent_node)
                if folded is None:
                    raise ParseError(
                        "exponent must be a constant expression",
                        _node_offset(exponent_node))
                node = Power(node, folded, offset)
            else:
                return node

    def exponent_atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.exponent_atom(), offset)
        return self.atom()

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text), offset)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        if kind == "ident":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                self.advance()
                arg = self.expression()
                self.expect_op(")")
                if text not in FUNCTIONS:
                    raise UnknownSymbolError(text, offset)
                return Unary(text, arg, offset)
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


def eval_jet3(node: Expr, point, params: Mapping[str, float]) -> Jet3:
    """Evaluate to an order-3 jet at ``point`` (a ChartPoint or a sequence)."""
    coords = getattr(point, "coords", point)
    n = len(coords)
    return _eval_jet(node, coords, params, n)


def _eval_jet(node: Expr, coords, params, n: int) -> Jet3:
    if isinstance(node, Const):
        return Jet3.constant(n, node.value)
    if isinstance(node, Coord):
        return Jet3.coordinate(n, node.index, float(coords[node.index]))
    if isinstance(node, Param):
        try:
            return Jet3.constant(n, float(params[node.name]))
        except KeyError:
            raise EvalDomainError(
                "parameter", node.offset, f"{node.name!r} is unbound") from None
    if isinstance(node, Unary):
        arg = _eval_jet(node.arg, coords, params, n)
        if node.op == "neg":
            return -arg
        try:
            return getattr(arg, node.op)()
        except JetDomainError as err:
            raise EvalDomainError(node.op, node.offset, err.detail) from None
    if isinstance(node, Binary):
        left = _eval_jet(node.left, coords, params, n)
        right = _eval_jet(node.right, coords, params, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except JetDomainError as err:
            raise EvalDomainError("div", node.offset, err.detail) from None
    if isinstance(node, Power):
        base = _eval_jet(node.base, coords, params, n)
        try:
            return base ** node.exponent
        except JetDomainError as err:
            raise EvalDomainError("pow", node.offset, err.detail) from None
    raise TypeError(f"not an expression node: {node!r}")


_VALUE_FN = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}


def eval_value(node: Expr, coords, params: Mapping[str, float]) -> float:
    """Fast value-only evaluation (used by sampling and quadrature)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return float(coords[node.index])
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalDomainError(
                "parameter", node.offset, f"{node.name!r} is unbound") from None
    if isinstance(node, Unary):
        arg = eval_value(node.arg, coords, params)
        if node.op == "neg":
            return -arg
        if node.op == "ln":
            if arg <= 0.0:
                raise EvalDomainError("ln", node.offset,
                                      f"argument {arg!r} is not positive")
            return math.log(arg)
        if node.op == "sqrt":
            if arg <= 0.0:
                raise EvalDomainError("sqrt", node.offset,
                                      f"argument {arg!r} is not positive")
            return math.sqrt(arg)
        return _VALUE_FN[node.op](arg)
    if isinstance(node, Binary):
        left = eval_value(node.left, coords, params)
        right = eval_value(node.right, coords, params)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise EvalDomainError("div", node.offset, "division by zero")
        return left / right
    if isinstance(node, Power):
        base = eval_value(node.base, coords, params)
        e = node.exponent
        if float(e).is_integer():
            if base == 0.0 and e < 0:
                raise EvalDomainError("pow", node.offset,
                                      f"0.0 raised to negative power {e}")
            return base ** e
        if base <= 0.0:
            raise EvalDomainError(
                "pow", node.offset,
                f"base {base!r} not positive for non-integer exponent {e!r}")
        return base ** e
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Batched evaluation over the rows of an (N, n) coordinate array.
#
# One walk per tree, one numpy operation per node. The arithmetic is the
# scalar paths' own, so every row is bit-identical to them: eval_jet3's at
# value-and-gradient level (``/`` as ``a * reciprocal(b)``), eval_value's
# in value mode (plain ``/``). Functions and powers go through ``math``
# row by row, because numpy's vectorized exp, log, pow, tan, ... may
# differ from the C library in the last bit.
# ---------------------------------------------------------------------------

# name -> (value function, first derivative from (argument, value)),
# formed as Jet3 forms them.
_FIRST = {
    "exp": (math.exp, lambda v, c: c),
    "ln": (math.log, lambda v, c: 1.0 / v),
    "sqrt": (math.sqrt, lambda v, r: 0.5 / r),
    "sin": (math.sin, lambda v, s: _libm(math.cos, v)),
    "cos": (math.cos, lambda v, c: -_libm(math.sin, v)),
    "tan": (math.tan, lambda v, t: 1.0 + t * t),
    "sinh": (math.sinh, lambda v, s: _libm(math.cosh, v)),
    "cosh": (math.cosh, lambda v, c: _libm(math.sinh, v)),
    "tanh": (math.tanh, lambda v, t: 1.0 - t * t),
}
_POSITIVE_ARGUMENT = ("ln", "sqrt")


def _libm(fn, values, *args) -> np.ndarray:
    """``fn(v, *args)`` for each entry, through Python's math semantics."""
    return np.fromiter(map(fn, values.tolist(), *(repeat(a) for a in args)),
                       dtype=float, count=len(values))


def _flag(bad: np.ndarray, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mark ``mask`` rows as out of domain; they carry NaN from here on."""
    bad |= mask
    return np.where(mask, np.nan, values)


def _walk_batch(node: Expr, x: np.ndarray, params, grad: bool, bad):
    """(values (N,), gradients (N, n) or None) of one tree."""
    rows, n = x.shape
    if isinstance(node, (Const, Param)):
        if isinstance(node, Const):
            value = node.value
        else:
            try:
                value = float(params[node.name])
            except KeyError:
                bad[:] = True
                value = np.nan
        return np.full(rows, value), (np.zeros((rows, n)) if grad else None)
    if isinstance(node, Coord):
        d = None
        if grad:
            d = np.zeros((rows, n))
            d[:, node.index] = 1.0
        return x[:, node.index], d
    if isinstance(node, Unary):
        v, d = _walk_batch(node.arg, x, params, grad, bad)
        if node.op == "neg":
            return -v, (None if d is None else -d)
        value_fn, first = _FIRST[node.op]
        if node.op in _POSITIVE_ARGUMENT:
            v = _flag(bad, v, v <= 0.0)
        c0 = _libm(value_fn, v)
        return c0, (None if d is None else first(v, c0)[:, None] * d)
    if isinstance(node, Binary):
        a, da = _walk_batch(node.left, x, params, grad, bad)
        b, db = _walk_batch(node.right, x, params, grad, bad)
        if node.op == "+":
            return a + b, (None if da is None else da + db)
        if node.op == "-":
            return a - b, (None if da is None else da - db)
        if node.op == "*":
            return a * b, (None if da is None
                           else da * b[:, None] + a[:, None] * db)
        b = _flag(bad, b, b == 0.0)
        if da is None:
            return a / b, None
        r0 = 1.0 / b
        r1 = -1.0 / _libm(pow, b, 2.0)
        return a * r0, da * r0[:, None] + a[:, None] * (r1[:, None] * db)
    if isinstance(node, Power):
        v, d = _walk_batch(node.base, x, params, grad, bad)
        e = node.exponent
        integer = float(e).is_integer()
        v = _flag(bad, v, (v == 0.0) & (e < 0) if integer else v <= 0.0)
        value = _libm(pow, v, e)
        if d is None:
            return value, None
        c1 = np.zeros(rows) if e == 0.0 else e * _libm(pow, v, e - 1.0)
        if integer:
            # Jet3 pins powers of zero to unsigned values, not pow's signed zeros.
            value = np.where(v == 0.0, float(e == 0.0), value)
            c1 = np.where(v == 0.0, e if e == 1.0 else 0.0, c1)
        return value, c1[:, None] * d
    raise TypeError(f"not an expression node: {node!r}")


def eval_batch(nodes: Sequence[Expr], x, params: Mapping[str, float], *,
               grad: bool = False):
    """Evaluate several trees at every row of ``x`` (shape (N, n)).

    Returns values of shape (N, K) and, with ``grad``, gradients of shape
    (N, K, n), bit-identical to eval_jet3 (``grad``) or eval_value rows.
    A failure raises what the per-row path raises first, taking rows in
    order and the trees of a row in order: the rows up to the first
    flagged one are re-evaluated on the scalar path.
    """
    x = np.asarray(x, dtype=float)
    bad = np.zeros(len(x), dtype=bool)
    walked = {}    # equal trees, such as a sparse metric's zeros, walk once
    try:
        with np.errstate(all="ignore"):
            for node in nodes:
                if node not in walked:
                    walked[node] = _walk_batch(node, x, params, grad, bad)
        failed = bool(bad.any())
    except (ArithmeticError, ValueError):   # a math call overflowed or left its domain
        failed = True
    if failed:
        last = int(np.argmax(bad)) if bad.any() else len(x) - 1
        scalar = eval_jet3 if grad else eval_value
        for row in x[:last + 1].tolist():
            for node in nodes:
                scalar(node, row, params)
        raise RuntimeError("batched evaluation flagged a row that the "
                           "per-row path evaluates")
    parts = [walked[node] for node in nodes]
    values = np.stack([v for v, _ in parts], axis=1)
    if not grad:
        return values
    return values, np.stack([d for _, d in parts], axis=1)


def eval_grad_batch(node: Expr, x, params: Mapping[str, float]):
    """Value (N,) and gradient (N, n) of one tree at every row of ``x``."""
    values, grads = eval_batch((node,), x, params, grad=True)
    return values[:, 0], grads[:, 0]
