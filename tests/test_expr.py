import copy
import dataclasses
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grwcert import expr
from grwcert.chart import ChartPoint, compile_chart
from grwcert.curvature import SingularMetricError
from grwcert.expr import (FUNCTIONS, Binary, Const, Coord, EvalDomainError,
                          Param, ParseError, Power, RowError, Unary,
                          UnknownSymbolError, eval_jet3_batch, parse)
from grwcert.jets import TensorJet
from grwcert.schema import load_chart_input

from .oracles import FoldingParser, eval_jet3, eval_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import dense_spec  # noqa: E402  (perfbench/workloads.py)


def depth(node) -> int:
    """Levels of a tree: 1 for a leaf."""
    kids = [getattr(node, name) for name in ("arg", "base", "left", "right")
            if hasattr(node, name)]
    return 1 + max(map(depth, kids), default=0)


class TestGrammar:
    def test_three_node_deep_tree(self):
        tree = parse("t^2 + x*t", ["t", "x"])
        assert isinstance(tree, Binary) and tree.op == "+"
        assert isinstance(tree.left, Power) and tree.left.exponent == 2.0
        assert isinstance(tree.right, Binary) and tree.right.op == "*"
        assert depth(tree) == 3

    def test_malformed_call_offset(self):
        with pytest.raises(ParseError) as err:
            parse("q(", ["t"])
        assert err.value.offset == 2

    def test_parameter_node(self):
        tree = parse("exp(H*t)", ["t"], ["H"])
        assert isinstance(tree, Unary) and tree.op == "exp"
        assert isinstance(tree.arg.left, Param)
        assert isinstance(tree.arg.right, Coord)

    def test_unknown_identifier_named(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse("t + foo", ["t"])
        assert err.value.symbol == "foo"

    def test_unknown_function_named(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse("arctan(t)", ["t"])
        assert err.value.symbol == "arctan"

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse("   ", ["t"])

    def test_precedence_pow_over_unary_minus(self):
        # -t^2 is -(t^2)
        assert eval_value(parse("-t^2", ["t"]), (3.0,), {}) == -9.0

    def test_precedence_mul_over_add(self):
        assert eval_value(parse("1+2*3", ["t"]), (0.0,), {}) == 7.0

    def test_left_associative_subtraction(self):
        assert eval_value(parse("10-4-3", ["t"]), (0.0,), {}) == 3.0

    def test_left_associative_pow(self):
        # documented grammar quirk: (2^3)^2, not 2^(3^2)
        assert eval_value(parse("2^3^2", ["t"]), (0.0,), {}) == 64.0

    def test_constant_folded_exponent(self):
        tree = parse("t^(2/3)", ["t"])
        assert isinstance(tree, Power)
        assert tree.exponent == pytest.approx(2.0 / 3.0)

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("t^x", ["t", "x"])
        assert "constant" in str(err.value)

    @pytest.mark.parametrize("text, offset", [
        ("t^(x + 1/0)", 5), ("t^(1/0 + x)", 7)])
    def test_non_constant_exponent_named_before_folding(self, text, offset):
        # A constant part that divides by zero is not reached: the
        # exponent is refused as a whole, at its root.
        with pytest.raises(ParseError) as err:
            parse(text, ["t", "x"])
        assert err.value.offset == offset
        assert "exponent must be a constant expression" in str(err.value)

    def test_negative_exponent(self):
        assert eval_value(parse("t^-2", ["t"]), (2.0,), {}) == 0.25

    def test_scientific_literal(self):
        assert eval_value(parse("1e-3 + t", ["t"]), (0.0,), {}) == 1e-3

    @pytest.mark.parametrize("text, offset", [
        ("t^1e400", 2), ("1e400*t^(4/3)", 0), ("2 - 1E999", 4)])
    def test_overflowing_literal_rejected(self, text, offset):
        # float("1e400") is inf; a literal must be finite.
        with pytest.raises(ParseError) as err:
            parse(text, ["t"])
        assert err.value.offset == offset
        assert "is not finite" in str(err.value)

    @pytest.mark.parametrize("text, offset", [
        ("t^(10^400)", 5), ("t^(0^-1)", 4), ("t^((-8)^(1/3))", 7),
        ("t^(1e200*1e200)", 8)])
    def test_non_finite_exponent_rejected(self, text, offset):
        # Folding overflows, divides by zero, turns complex or reaches inf;
        # the offset is the exponent's root operator.
        with pytest.raises(ParseError) as err:
            parse(text, ["t"])
        assert err.value.offset == offset
        assert "exponent is not a finite real number" in str(err.value)

    @pytest.mark.parametrize("text, offset", [
        ("t" + "+t" * 1500, 199), ("(" * 400 + "t" + ")" * 400, 100),
        ("-" * 400 + "t", 100), ("exp(" * 150 + "t" + ")" * 150, 400),
        ("t^(" + "1+" * 300 + "1)", 202)],
        ids=["chain", "parentheses", "minus", "calls", "exponent"])
    def test_nesting_past_the_limit_rejected(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text, ["t"])
        assert err.value.offset == offset
        assert f"nesting deeper than {expr.MAX_NESTING} levels" \
            in str(err.value)

    @pytest.mark.parametrize("text", [
        "t" + "+t" * 99, "(" * 100 + "t" + ")" * 100,
        "sin(" * 99 + "t" + ")" * 99])
    def test_nesting_at_the_limit_evaluates(self, text):
        tree = parse(text, ["t"])
        assert depth(tree) <= expr.MAX_NESTING
        levels = eval_jet3_batch([tree], [[0.5]], {})
        assert np.isfinite(levels[0]).all()

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("t )", ["t"])
        assert err.value.offset == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("t @ 2", ["t"])
        assert err.value.offset == 2

    def test_whitespace_tolerant(self):
        assert eval_value(parse("  1.5 *  ( t + 2 ) ", ["t"]), (1.0,), {}) == 4.5


# ---------------------------------------------------------------------------
# Constant exponents: the walker folds them as the recursive folder in
# tests/oracles.py does, except a power of a base <= 0 to a non-integer
# exponent, which the grammar forbids and the walker refuses.
# ---------------------------------------------------------------------------

EXPONENT_NUMBERS = st.sampled_from(
    ["0", "0.0", "1", "2", "3", "0.5", "1.5", "0.3", "1e-300", "5e-324",
     "1e300", "1.7e308", "1e-10", "7"])


def _exponent_text(inner):
    def binary(args):
        a, op, b = args
        return f"({a}){op}({b})"

    return st.one_of(
        inner.map(lambda a: f"-({a})"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(binary),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]})^({ab[1]})"))


exponent_texts = st.recursive(EXPONENT_NUMBERS, _exponent_text, max_leaves=8)


def _folded(parser_type, text):
    """The exponent of ``t^(text)``, or the ParseError's text and offset."""
    try:
        tree = parser_type(f"t^({text})", ["t"], ()).parse()
    except ParseError as err:
        return str(err), err.offset
    return np.float64(tree.exponent).tobytes()


class TestExponentFolding:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=exponent_texts)
    def test_folds_as_python_floats(self, text):
        oracle = FoldingParser(f"t^({text})", ["t"], ())
        try:
            oracle.parse()
        except ParseError:
            pass
        assume(not oracle.forbidden_power)
        assert _folded(expr._Parser, text) == _folded(FoldingParser, text)

    @pytest.mark.parametrize("text, offset, before", [
        ("0^0.5", 4, np.float64(0.0).tobytes()),
        ("(-0)^0.5", 7, np.float64(0.0).tobytes()),
        ("(-1.5)^0.5/0", 13,
         ("syntax error at offset 13: division by zero in constant "
          "exponent", 13))])
    def test_powers_the_grammar_forbids(self, text, offset, before):
        # Python folds 0^0.5 to 0.0 and (-1.5)^0.5 to a complex number;
        # the walker refuses a base <= 0 for a non-integer exponent.
        assert _folded(FoldingParser, text) == before
        assert _folded(expr._Parser, text) == (
            f"syntax error at offset {offset}: exponent is not a finite "
            f"real number", offset)


class TestEvaluation:
    def test_unbound_parameter(self):
        tree = parse("H*t", ["t"], ["H"])
        with pytest.raises(EvalDomainError) as err:
            eval_value(tree, (1.0,), {})
        assert "H" in str(err.value)

    def test_domain_error_names_node(self):
        tree = parse("1 + ln(t)", ["t"])
        with pytest.raises(EvalDomainError) as err:
            eval_jet3(tree, (-1.0,), {})
        assert err.value.op == "ln"
        assert err.value.offset == 4

    def test_div_by_zero_location(self):
        tree = parse("1/(t-1)", ["t"])
        with pytest.raises(EvalDomainError) as err:
            eval_value(tree, (1.0,), {})
        assert err.value.op == "div"

    def test_jet_and_value_agree(self):
        tree = parse("sinh(t)*cos(x) + t^3/(1.5+x^2)", ["t", "x"])
        point = (0.7, -0.4)
        assert eval_jet3(tree, point, {}).value == pytest.approx(
            eval_value(tree, point, {}), rel=1e-15)

    def test_parameters_bound(self):
        tree = parse("exp(H*t)", ["t"], ["H"])
        assert eval_value(tree, (2.0,), {"H": 0.5}) == pytest.approx(
            2.718281828459045, rel=1e-12)

    def test_immutability(self):
        tree = parse("t+1", ["t"])
        with pytest.raises(Exception):
            tree.op = "-"


# ---------------------------------------------------------------------------
# Batched evaluation against the per-row scalar paths.
# ---------------------------------------------------------------------------

BATCH_N = 3
BATCH_PARAMS = {"k": 0.75}
EXPONENTS = (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.0 / 3.0, 4.0 / 3.0, -1.5)

_offsets = st.integers(0, 40)
_leaves = st.one_of(
    st.builds(Const, st.floats(-3, 3), _offsets),
    st.builds(lambda i, o: Coord(f"x{i}", i, o),
              st.integers(0, BATCH_N - 1), _offsets),
    st.builds(lambda o: Param("k", o), _offsets),
)


def _branches(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + FUNCTIONS), children,
                  _offsets),
        st.builds(Binary, st.sampled_from("+-*/"), children, children,
                  _offsets),
        st.builds(Power, children, st.sampled_from(EXPONENTS), _offsets),
    )


expr_trees = st.recursive(_leaves, _branches, max_leaves=8)
row_arrays = st.lists(
    st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0)) | st.floats(-2, 2),
             min_size=BATCH_N, max_size=BATCH_N),
    min_size=1, max_size=6)


def _same(a, b):
    """Equal as floats, NaNs and signs of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a),
                               np.signbit(b) | np.isnan(b)))


def _per_row(scalar, tree, rows):
    """Each row's result, or the error it raises alone."""
    out = []
    for row in rows:
        try:
            with np.errstate(all="ignore"):
                out.append(scalar(tree, row, BATCH_PARAMS))
        except (ArithmeticError, ValueError) as err:
            out.append(err)
    return out


def _first_error(results):
    return next((r for r in results if isinstance(r, Exception)), None)


def _domain_errors_only(results):
    """``results`` for a walk below order 3, or of the values alone,
    against a per-row path of its own: a math call's own error there
    (overflow in math calls, or a higher jet level only the scalar order-3
    path forms) is outside the batch contract. It is assumed away as the
    first failure, and not compared at a later row (None)."""
    first = _first_error(results)
    assume(first is None or isinstance(first, EvalDomainError))
    return [None if isinstance(r, Exception)
            and not isinstance(r, EvalDomainError) else r for r in results]


def _assert_matches(expected, got):
    """``got`` is the per-row path's error ``expected``: the same domain
    error or, for a math call's own error (the float division and
    overflow errors of the higher coefficients), the domain error of the
    node whose call raised it. Every overflow reads ``math range error``,
    pow's too, whose own message is an errno tuple."""
    if isinstance(expected, EvalDomainError):
        assert (got.op, got.offset, got.detail, str(got)) == (
            expected.op, expected.offset, expected.detail, str(expected))
    else:
        detail = ("math range error" if isinstance(expected, OverflowError)
                  else expected)
        assert str(got) == f"{got.op} at offset {got.offset}: {detail}"
    assert "np.float64" not in str(got)
    return got


def _assert_same_error(expected, call):
    """``call`` raises the per-row path's error ``expected``."""
    with pytest.raises(EvalDomainError) as err:
        call()
    return _assert_matches(expected, err.value)


def _assert_row_errors(err, rows, results):
    """The batch error ``err`` flags each row whose per-row result is an
    error, with that error as the row's own (``at``), at the row's index
    and coordinates, and no row that evaluates alone; a None result is not
    compared."""
    flagged = err.rows.tolist()
    for index, (row, result) in enumerate(zip(rows, results)):
        if isinstance(result, Exception):
            got = _assert_matches(result, err.at(index))
            assert (got.index, got.coords) == (index, tuple(map(float, row)))
        elif result is not None:
            assert index not in flagged, index


class TestBatchEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    def test_grad_batch_matches_eval_jet3(self, tree, rows):
        expected = _domain_errors_only(_per_row(eval_jet3, tree, rows))
        call = lambda: eval_jet3_batch((tree,), np.array(rows), BATCH_PARAMS,
                                       order=1)
        if _first_error(expected):
            err = _assert_same_error(_first_error(expected), call)
            _assert_row_errors(err, rows, expected)
            return
        values, grads = call()
        assert _same(values[:, 0], [jet.value for jet in expected])
        assert _same(grads[:, 0], [jet.grad for jet in expected])

    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    def test_value_batch_matches_eval_value(self, tree, rows):
        expected = _domain_errors_only(_per_row(eval_value, tree, rows))
        call = lambda: eval_jet3_batch((tree,), np.array(rows), BATCH_PARAMS,
                                       order=0)[0]
        if _first_error(expected):
            err = _assert_same_error(_first_error(expected), call)
            _assert_row_errors(err, rows, expected)
            return
        assert _same(call()[:, 0], expected)

    # 0.0 == -0.0 in Python: a tape keyed on == alone would reuse one
    # call's tape for the other, or one subtree's steps for the other.
    def test_signed_zero_constants_get_their_own_tape(self):
        x = Coord("x0", 0, 0)
        for value in (0.0, -0.0):
            tree = Binary("*", Const(value, 1), x, 2)
            values = eval_jet3_batch((tree,), [[1.0]], {}, order=0)[0]
            assert _same(values[:, 0], [eval_value(tree, (1.0,), {})])

    def test_signed_zero_subtrees_stay_apart(self):
        x = Coord("x0", 0, 0)
        both = tuple(Binary("*", Const(v, 1), x, 2) for v in (0.0, -0.0))
        values = eval_jet3_batch(both, [[1.0]], {}, order=0)[0]
        assert _same(values[0], [0.0, -0.0])

    @pytest.mark.parametrize("text", [f"{fn}(t)" for fn in FUNCTIONS]
                             + [f"t^({e!r})" for e in EXPONENTS])
    def test_functions_match_scalar_paths_on_a_grid(self, text):
        # numpy's vectorized exp, log, pow, ... differ from the C library
        # in the last bit on a few percent of arguments; a dense grid
        # catches a batch path that uses them.
        tree = parse(text, ["t"])
        rows = np.linspace(0.05, 3.0, 1500)[:, None]
        values, grads = (a[:, 0] for a in
                         eval_jet3_batch((tree,), rows, {}, order=1))
        jets = [eval_jet3(tree, row, {}) for row in rows.tolist()]
        assert _same(values, [jet.value for jet in jets])
        assert _same(grads[:, 0], [jet.grad[0] for jet in jets])
        assert _same(eval_jet3_batch((tree,), rows, {}, order=0)[0][:, 0],
                     [eval_value(tree, row, {}) for row in rows.tolist()])

    def test_domain_error_at_first_failing_row(self):
        tree = parse("t^2 + sqrt(t - 0.2)", ["t"])
        rows = np.array([[0.5], [0.9], [0.1], [0.0]])
        with pytest.raises(EvalDomainError) as scalar:
            eval_jet3(tree, rows[2].tolist(), {})
        _assert_same_error(scalar.value,
                           lambda: eval_jet3_batch((tree,), rows, {}, order=1))
        assert str(scalar.value) == (
            f"sqrt at offset 6: argument {0.1 - 0.2!r} is not positive")

    def test_first_row_wins_across_trees(self):
        # Row order first, then tree order within a row, as the per-row
        # path meets them.
        first = parse("ln(t - 0.6)", ["t"])
        second = parse("1/(t - 0.9)", ["t"])
        rows = np.array([[0.9], [0.3]])
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((first, second), rows, {}, order=1)
        assert (err.value.op, err.value.offset) == ("div", 1)
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((first, second), rows[::-1], {}, order=1)
        assert (err.value.op, err.value.offset) == ("ln", 0)

    def test_unbound_parameter(self):
        tree = parse("t + H", ["t"], ["H"])
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((tree,), np.ones((4, 1)), {}, order=0)
        assert err.value.op == "parameter" and "'H' is unbound" in str(err.value)

    def test_one_row_walks_after_a_failure(self, monkeypatch):
        # A flagged batch is walked once: every flagged row's error comes
        # from that walk, and no row is walked again alone. A math call's
        # own error (exp overflows from row 184 on) flags its row as a
        # domain edge does.
        root, overflow = parse("sqrt(t)", ["t"]), parse("exp(700*t)", ["t"])
        walk, one_row = expr._walk, []

        def counted(tape, x, params, order):
            one_row.append(len(x) == 1)
            return walk(tape, x, params, order)

        monkeypatch.setattr(expr, "_walk", counted)
        rows = np.linspace(1.0, 2.0, 200)[:, None]
        rows[[150, 180]] = -1.0
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((root,), rows, {})
        assert err.value.index == 150 and one_row == [False]
        assert err.value.rows.tolist() == [150, 180]
        assert str(err.value.at(180)) == (
            "sqrt at offset 0: argument -1.0 is not positive")
        one_row.clear()
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((overflow,), np.linspace(0.0, 1.1, 200)[:, None],
                            {})
        assert err.value.index == 184 and one_row == [False]
        assert err.value.rows.tolist() == list(range(184, 200))
        assert {str(err.value.at(row)) for row in range(184, 200)} == {
            "exp at offset 0: math range error"}

    def test_row_errors_survive_pickling(self):
        # A process worker would send its chunk's error back pickled: the
        # round trip keeps the class, the attributes and the text, with
        # and without a place.
        rows = np.array([[4.0], [-1.0], [-2.0]])
        with pytest.raises(EvalDomainError) as domain:
            eval_jet3_batch((parse("sqrt(t)", ["t"]),), rows, {})
        named = copy.copy(domain.value)
        named.place = "path row"
        errors = [RowError("metric.2,2: bad", 3, (1.0, 2.0)), domain.value,
                  named, SingularMetricError(2, (0.5, 0.25), np.array([2]))]
        keys = ("index", "coords", "place", "op", "offset", "detail", "tree")
        for err in errors:
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err) and str(back) == str(err)
            for key in keys:
                assert getattr(back, key, None) == getattr(err, key, None)
            assert np.array_equal(back.rows, err.rows)
            # Each failing row's own error survives the round trip too.
            for row in [] if err.rows is None else err.rows.tolist():
                mine, theirs = err.at(row), back.at(row)
                if mine.coords is None:     # a singular batch's owner sets them
                    mine.coords = theirs.coords = (0.5, 0.25)
                assert type(theirs) is type(mine)
                assert str(theirs) == str(mine)
                for key in keys:
                    assert getattr(theirs, key, None) == getattr(mine, key,
                                                                 None)
        assert str(named).startswith(
            "sqrt at offset 0: argument -1.0 is not positive at path row 1")
        assert str(named.at(2)) == (
            "sqrt at offset 0: argument -2.0 is not positive at path row 2, "
            "coordinates (-2.0,)")
        # A row's own error reads its bare message until its owner sets
        # the place.
        singular = SingularMetricError(1, (1.0, 2.0), np.array([1, 3]))
        assert str(singular.at(3)) == "metric matrix is singular"


# ---------------------------------------------------------------------------
# The order-3 batch against eval_jet3, byte for byte.
# ---------------------------------------------------------------------------

LEVELS = ("value", "grad", "hess", "third")


def _assert_levels_match(levels, jets):
    """Row r of every level is eval_jet3's, compared as bytes, so that a
    signed zero or a NaN in the wrong place counts."""
    for k, name in enumerate(LEVELS):
        want = np.array([getattr(jet, name) for jet in jets], dtype=float)
        assert levels[k][:, 0].tobytes() == want.tobytes(), name


class TestJet3Batch:
    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    # 0 - k/1.28e-79 at k's zero derivatives: the third level is a NaN,
    # whose sign bit a - b and Jet3's a + (-b) set differently.
    @example(tree=Binary("-", Const(0.0, 0),
                         Binary("/", Param("k", 0),
                                Const(1.2760789298097679e-79, 0), 0), 0),
             rows=[[0.0, 0.0, 0.0]])
    def test_matches_eval_jet3_bytes(self, tree, rows):
        expected = _per_row(eval_jet3, tree, rows)
        call = lambda: eval_jet3_batch((tree,), np.array(rows), BATCH_PARAMS)
        if _first_error(expected):
            err = _assert_same_error(_first_error(expected), call)
            _assert_row_errors(err, rows, expected)
            return
        _assert_levels_match(call(), expected)

    # The bilinear arguments on the 2-D grid cannot tell the order of the
    # chain rule's third-level terms apart; the cubic ones in 3-D do.
    GRID_CASES = ([(f"{fn}(0.6*t*x + 0.05)", 2) for fn in FUNCTIONS]
                  + [(f"(t + x)^({e!r})", 2) for e in EXPONENTS]
                  + [("t/x", 2), ("(1 + t^2)/(x - t)", 2), ("-x/(t*t)", 2)]
                  + [(f"{fn}(0.3*t*x*y + 0.2*t^2*x - 0.1*y^3 + 1.05)", 3)
                     for fn in FUNCTIONS])

    @pytest.mark.parametrize("text, dim", GRID_CASES,
                             ids=[text for text, _ in GRID_CASES])
    def test_functions_powers_and_division_on_a_grid(self, text, dim):
        tree = parse(text, ["t", "x", "y"][:dim])
        grid = np.linspace(0.05, 2.0, 40 if dim == 2 else 12)
        axes = (grid, grid[::-1] + 0.013, grid + 0.007)[:dim]
        rows = np.stack(np.meshgrid(*axes), -1).reshape(-1, dim)
        _assert_levels_match(eval_jet3_batch((tree,), rows, {}),
                             [eval_jet3(tree, row, {}) for row in rows.tolist()])

    def test_powers_of_signed_zero(self):
        # Jet3 pins integer powers of zero to unsigned values.
        rows = [[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0]]
        for e in (0.0, 1.0, 2.0, 3.0, 4.0):
            tree = parse(f"(t*x)^({e!r}) - x^({e!r})", ["t", "x"])
            _assert_levels_match(eval_jet3_batch((tree,), rows, {}),
                                 [eval_jet3(tree, row, {}) for row in rows])

    def test_shared_subtrees_walk_once_per_call(self):
        # The same factor at the same offsets in several trees.
        trees = [parse(text, ["t", "chi"]) for text in
                 ("(t^2)^2*1", "(t^2)^2*sin(chi)^2",
                  "(t^2)^2*(sin(chi)^2*sin(chi)^2)")]
        rows = np.array([[1.3, 0.4], [1.7, -0.9]])
        levels = eval_jet3_batch(trees, rows, {})
        assert [level.shape for level in levels] == [
            (2, 3), (2, 3, 2), (2, 3, 3), (2, 3, 4)]
        for k, tree in enumerate(trees):
            _assert_levels_match([level[:, k:k + 1] for level in levels],
                                 [eval_jet3(tree, row, {}) for row in rows.tolist()])

    @pytest.mark.parametrize("text, rows", [
        ("t^2 + sqrt(t - 0.2)", [[0.5], [0.9], [0.1], [0.0]]),
        ("ln(t) + 1/(t - 0.9)", [[0.5], [0.9], [-1.0]]),
        ("t^(-2) * t^(1/3)", [[2.0], [0.0], [-1.0]]),
        ("1/(t - t)", [[1.0]]),
    ])
    def test_first_failing_row_error(self, text, rows):
        # The first failing row's error is raised, and every failing row's
        # own error is the one the per-node path raises at it.
        tree = parse(text, ["t"])
        expected = _per_row(eval_jet3, tree, rows)
        assert isinstance(_first_error(expected), EvalDomainError)
        err = _assert_same_error(_first_error(expected), lambda: eval_jet3_batch(
            (tree,), np.array(rows), {}))
        _assert_row_errors(err, rows, expected)
        assert err.rows.tolist() == [
            k for k, result in enumerate(expected)
            if isinstance(result, Exception)]

    def test_higher_coefficient_division_error(self):
        # 1/t at t = 1e-200: the value and gradient exist, but t**2 in the
        # second coefficient underflows and the per-row path divides by 0.
        tree = parse("1/t", ["t"])
        with pytest.raises(ZeroDivisionError):
            eval_jet3(tree, [1e-200], {})
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch((tree,), np.array([[1.0], [1e-200]]), {})
        assert (err.value.op, err.value.offset, err.value.detail) == (
            "div", 1, "float division by zero")
        assert (err.value.index, err.value.coords) == (1, (1e-200,))


# ---------------------------------------------------------------------------
# The tape: equal subtrees are one step at any offset.
# ---------------------------------------------------------------------------

def _shifted(node, by):
    """A copy of ``node`` with every offset moved by ``by``."""
    kids = {name: _shifted(getattr(node, name), by)
            for name in ("arg", "base", "left", "right") if hasattr(node, name)}
    return dataclasses.replace(node, offset=node.offset + by, **kids)


def _steps(trees):
    return len(expr._tape(tuple(trees))[0])


class TestStructuralTape:
    def test_dense_pull_back_steps(self):
        # The shared time (A y + b)_0 of every component is one subtree.
        chart = compile_chart(load_chart_input(dense_spec(1)))
        assert _steps(chart.upper) == 62
        assert _steps(exc.expr for exc in chart.exclusions) == 22

    @settings(max_examples=300, deadline=None)
    @given(tree=expr_trees, rows=row_arrays, by=st.integers(1, 60),
           order=st.integers(1, 3))
    def test_shifted_copy_matches_jet3_bytes(self, tree, rows, by, order):
        copy = _shifted(tree, by)
        assert _steps((tree, copy)) == _steps((tree,))
        expected = _per_row(eval_jet3, tree, rows)
        call = lambda: eval_jet3_batch((tree, copy), np.array(rows),
                                       BATCH_PARAMS, order=order)
        if _first_error(expected):
            # A lower order may not form the coefficient that fails.
            if order == 3:
                err = _assert_same_error(_first_error(expected), call)
                _assert_row_errors(err, rows, expected)
                # The copy's steps are all the first tree's.
                assert {err.at(row).tree for row in err.rows.tolist()} == {0}
            return
        levels = call()
        assert len(levels) == order + 1
        for k, name in enumerate(LEVELS[:order + 1]):
            want = np.array([getattr(jet, name) for jet in expected], dtype=float)
            assert levels[k][:, 0].tobytes() == want.tobytes(), name
            assert levels[k][:, 1].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("trees, rows", [
        ((Binary("*", Const(0.0, 1), Coord("t", 0, 0), 2),
          Binary("*", Const(-0.0, 7), Coord("t", 0, 6), 8)),
         [[0.0], [-0.0], [0.7]]),
        ((parse("sin(t*x)", ["t", "x"]), parse("-sin(t*x)", ["t", "x"])),
         [[0.0, 1.0], [-0.0, -0.0], [0.7, -1.3]]),
        ((parse("(t + x)^2", ["t", "x"]), parse("(t + x)^(-2)", ["t", "x"])),
         [[0.3, -0.0], [-0.0, 1.0], [0.7, -1.3]]),
    ], ids=["signed-zero", "negation", "exponent-sign"])
    def test_opposite_signs_stay_apart(self, trees, rows):
        roots = expr._tape(trees)[2]
        assert roots[0] != roots[1]
        levels = eval_jet3_batch(trees, np.array(rows), {})
        for k, tree in enumerate(trees):
            _assert_levels_match([level[:, k:k + 1] for level in levels],
                                 [eval_jet3(tree, row, {}) for row in rows])

    def test_shared_steps_as_both_operands_and_roots(self):
        # x*x's operands are one step, and that step is two roots too.
        coords = ["t", "x"]
        trees = [parse(text, coords)
                 for text in ("(t*x)*(t*x)", "t*x", "  t*x", "t*x - (t*x)")]
        steps, _, roots = expr._tape(tuple(trees))
        assert len(steps) == 5 and roots[1] == roots[2]
        assert steps[roots[0]][1] == steps[roots[3]][1] == (roots[1], roots[1])
        rows = [[1.3, -0.4], [0.0, -0.0], [-2.0, 0.5]]
        levels = eval_jet3_batch(trees, np.array(rows), {})
        for k, tree in enumerate(trees):
            _assert_levels_match([level[:, k:k + 1] for level in levels],
                                 [eval_jet3(tree, row, {}) for row in rows])

    @pytest.mark.parametrize("order", [0, 1, 3])
    @pytest.mark.parametrize("texts, offset", [
        (("1 + sqrt(t - 2)", "sqrt(t - 2)*t"), 4),
        (("sqrt(t - 2)*t", "1 + sqrt(t - 2)"), 0),
    ])
    def test_first_occurrence_names_the_error(self, texts, offset, order):
        trees = [parse(text, ["t"]) for text in texts]
        rows = np.array([[2.5], [3.0], [1.5], [0.5]])
        with pytest.raises(EvalDomainError) as err:
            eval_jet3_batch(trees, rows, {}, order=order)
        assert (err.value.op, err.value.offset, err.value.index,
                err.value.coords) == ("sqrt", offset, 2, (1.5,))
        assert str(err.value) == (
            f"sqrt at offset {offset}: argument {1.5 - 2!r} is not positive")


class TestWalkOrder:
    """A walk to order k >= 1 forms level k from levels up to k only: its
    levels are the order-3 walk's, byte for byte. (An order-0 walk, the
    values alone, divides with plain ``/``.)"""

    @staticmethod
    def _assert_prefix(tree, rows, params, order):
        full = eval_jet3_batch((tree,), rows, params)
        low = eval_jet3_batch((tree,), rows, params, order=order)
        assert len(low) == order + 1
        for k, (a, b) in enumerate(zip(low, full)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), k

    @settings(max_examples=300, deadline=None)
    @given(tree=expr_trees, rows=row_arrays, order=st.integers(1, 2))
    def test_matches_order_3_bytes(self, tree, rows, order):
        rows = np.array(rows)
        try:
            with np.errstate(all="ignore"):
                eval_jet3_batch((tree,), rows, BATCH_PARAMS)
        except (ArithmeticError, ValueError):
            # A third-level coefficient may overflow where the lower ones
            # do not; there is nothing to compare.
            return
        self._assert_prefix(tree, rows, BATCH_PARAMS, order)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("text", [f"{fn}(0.6*t*x + 0.05)" for fn in FUNCTIONS]
                             + [f"(t + x)^({e!r})" for e in EXPONENTS]
                             + ["t/x", "(1 + t^2)/(x - t)", "-x/(t*t)"])
    def test_functions_powers_and_division_on_a_grid(self, text, order):
        grid = np.linspace(0.05, 2.0, 12)
        rows = np.stack(np.meshgrid(grid, grid[::-1] + 0.013), -1).reshape(-1, 2)
        self._assert_prefix(parse(text, ["t", "x"]), rows, {}, order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_powers_of_signed_zero(self, order):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0]])
        for e in (0.0, 1.0, 2.0, 3.0, 4.0):
            tree = parse(f"(t*x)^({e!r}) - x^({e!r})", ["t", "x"])
            self._assert_prefix(tree, rows, {}, order)


# ---------------------------------------------------------------------------
# One point: expr.eval_jet3 is the one-row eval_jet3_batch, as a TensorJet.
# ---------------------------------------------------------------------------

class TestPointJets:
    @settings(max_examples=300, deadline=None)
    @given(trees=st.lists(expr_trees, min_size=1, max_size=3),
           rows=row_arrays)
    def test_matches_oracle_bytes(self, trees, rows):
        row = rows[0]
        expected = []
        for k, tree in enumerate(trees):
            found = _per_row(eval_jet3, tree, [row])
            if _first_error(found):
                got = _assert_same_error(
                    found[0], lambda: expr.eval_jet3(trees, row, BATCH_PARAMS))
                # The first tree that fails alone names the error.
                assert (got.index, got.coords, got.tree) == (0, tuple(row), k)
                return
            expected += found
        jet = expr.eval_jet3(trees, row, BATCH_PARAMS)
        assert isinstance(jet, TensorJet)
        assert (jet.n, jet.order, jet.batch) == (BATCH_N, 3, 0)
        assert jet.value.shape == (len(trees),)
        for k, name in enumerate(LEVELS):
            want = np.array([getattr(one, name) for one in expected])
            assert jet.levels[k].tobytes() == want.tobytes(), name

    def test_chart_point_and_components(self):
        trees = [parse(text, ["t", "x"]) for text in ("t*x", "sin(t) / x")]
        point = ChartPoint((0.4, 1.5))
        jet = expr.eval_jet3(trees, point, {})
        for k, tree in enumerate(trees):
            one = jet.at(k)
            assert one.value.shape == () and one.grad.shape == (2,)
            want = eval_jet3(tree, point.coords, {})
            for level, name in zip(one.levels, LEVELS):
                assert level.tobytes() == np.array(getattr(want, name)).tobytes()

    def test_batch_error_names_its_row(self):
        tree = parse("t^2 + sqrt(t - 0.2)", ["t"])
        rows = np.array([[0.5], [0.9], [0.1], [0.0]])
        for call in (lambda: eval_jet3_batch((tree,), rows, {}, order=0)[0],
                     lambda: eval_jet3_batch((tree,), rows, {})):
            with pytest.raises(EvalDomainError) as err:
                call()
            assert (err.value.index, err.value.coords) == (2, (0.1,))
            assert type(err.value.coords[0]) is float
