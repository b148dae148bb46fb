import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grwcert import expr
from grwcert.chart import ChartPoint
from grwcert.expr import (FUNCTIONS, Binary, Const, Coord, EvalDomainError,
                          Param, ParseError, Power, Unary, UnknownSymbolError,
                          depth, eval_batch, eval_jet3_batch, parse)
from grwcert.jets import TensorJet

from .oracles import eval_jet3, eval_value


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
    """Per-row results, or the first error in row order."""
    out = []
    for row in rows:
        try:
            out.append(scalar(tree, row, BATCH_PARAMS))
        except EvalDomainError as err:
            return err
        except (ArithmeticError, ValueError):
            # Overflow in math calls, or a higher jet level only the
            # scalar order-3 path forms: outside the batch contract.
            assume(False)
    return out


def _assert_same_error(expected, call):
    """``call`` raises the per-row path's error ``expected``: the same
    domain error or, for a math call's own error (the float division and
    overflow errors of the higher coefficients), the domain error of the
    node whose call raised it. Every overflow reads ``math range error``,
    pow's too, whose own message is an errno tuple."""
    with pytest.raises(EvalDomainError) as err:
        call()
    got = err.value
    if isinstance(expected, EvalDomainError):
        assert (got.op, got.offset, str(got)) == (
            expected.op, expected.offset, str(expected))
    else:
        detail = ("math range error" if isinstance(expected, OverflowError)
                  else expected)
        assert str(got) == f"{got.op} at offset {got.offset}: {detail}"
    assert "np.float64" not in str(got)
    return got


class TestBatchEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    def test_grad_batch_matches_eval_jet3(self, tree, rows):
        expected = _per_row(eval_jet3, tree, rows)
        call = lambda: eval_batch((tree,), np.array(rows), BATCH_PARAMS,
                                  grad=True)
        if isinstance(expected, EvalDomainError):
            _assert_same_error(expected, call)
            return
        values, grads = call()
        assert _same(values[:, 0], [jet.value for jet in expected])
        assert _same(grads[:, 0], [jet.grad for jet in expected])

    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    def test_value_batch_matches_eval_value(self, tree, rows):
        expected = _per_row(eval_value, tree, rows)
        call = lambda: eval_batch((tree,), np.array(rows), BATCH_PARAMS)
        if isinstance(expected, EvalDomainError):
            _assert_same_error(expected, call)
            return
        assert _same(call()[:, 0], expected)

    # 0.0 == -0.0 in Python: a tape keyed on == alone would reuse one
    # call's tape for the other, or one subtree's steps for the other.
    def test_signed_zero_constants_get_their_own_tape(self):
        x = Coord("x0", 0, 0)
        for value in (0.0, -0.0):
            tree = Binary("*", Const(value, 1), x, 2)
            assert _same(eval_batch((tree,), [[1.0]], {})[:, 0],
                         [eval_value(tree, (1.0,), {})])

    def test_signed_zero_subtrees_stay_apart(self):
        x = Coord("x0", 0, 0)
        both = tuple(Binary("*", Const(v, 1), x, 2) for v in (0.0, -0.0))
        assert _same(eval_batch(both, [[1.0]], {})[0], [0.0, -0.0])

    @pytest.mark.parametrize("text", [f"{fn}(t)" for fn in FUNCTIONS]
                             + [f"t^({e!r})" for e in EXPONENTS])
    def test_functions_match_scalar_paths_on_a_grid(self, text):
        # numpy's vectorized exp, log, pow, ... differ from the C library
        # in the last bit on a few percent of arguments; a dense grid
        # catches a batch path that uses them.
        tree = parse(text, ["t"])
        rows = np.linspace(0.05, 3.0, 1500)[:, None]
        values, grads = (a[:, 0] for a in
                         eval_batch((tree,), rows, {}, grad=True))
        jets = [eval_jet3(tree, row, {}) for row in rows.tolist()]
        assert _same(values, [jet.value for jet in jets])
        assert _same(grads[:, 0], [jet.grad[0] for jet in jets])
        assert _same(eval_batch((tree,), rows, {})[:, 0],
                     [eval_value(tree, row, {}) for row in rows.tolist()])

    def test_domain_error_at_first_failing_row(self):
        tree = parse("t^2 + sqrt(t - 0.2)", ["t"])
        rows = np.array([[0.5], [0.9], [0.1], [0.0]])
        with pytest.raises(EvalDomainError) as scalar:
            eval_jet3(tree, rows[2].tolist(), {})
        _assert_same_error(scalar.value,
                           lambda: eval_batch((tree,), rows, {}, grad=True))
        assert str(scalar.value) == (
            f"sqrt at offset 6: argument {0.1 - 0.2!r} is not positive")

    def test_first_row_wins_across_trees(self):
        # Row order first, then tree order within a row, as the per-row
        # path meets them.
        first = parse("ln(t - 0.6)", ["t"])
        second = parse("1/(t - 0.9)", ["t"])
        rows = np.array([[0.9], [0.3]])
        with pytest.raises(EvalDomainError) as err:
            eval_batch((first, second), rows, {}, grad=True)
        assert (err.value.op, err.value.offset) == ("div", 1)
        with pytest.raises(EvalDomainError) as err:
            eval_batch((first, second), rows[::-1], {}, grad=True)
        assert (err.value.op, err.value.offset) == ("ln", 0)

    def test_unbound_parameter(self):
        tree = parse("t + H", ["t"], ["H"])
        with pytest.raises(EvalDomainError) as err:
            eval_batch((tree,), np.ones((4, 1)), {})
        assert err.value.op == "parameter" and "'H' is unbound" in str(err.value)


# ---------------------------------------------------------------------------
# The order-3 batch against eval_jet3, byte for byte.
# ---------------------------------------------------------------------------

LEVELS = ("value", "grad", "hess", "third")


def _jets_per_row(tree, rows):
    """Per-row jets, or the first exception in row order."""
    out = []
    for row in rows:
        try:
            with np.errstate(all="ignore"):
                out.append(eval_jet3(tree, row, BATCH_PARAMS))
        except (ArithmeticError, ValueError) as err:
            return err
    return out


def _assert_levels_match(levels, jets):
    """Row r of every level is eval_jet3's, compared as bytes, so that a
    signed zero or a NaN in the wrong place counts."""
    for k, name in enumerate(LEVELS):
        want = np.array([getattr(jet, name) for jet in jets], dtype=float)
        assert levels[k][:, 0].tobytes() == want.tobytes(), name


class TestJet3Batch:
    @settings(max_examples=400, deadline=None)
    @given(tree=expr_trees, rows=row_arrays)
    def test_matches_eval_jet3_bytes(self, tree, rows):
        expected = _jets_per_row(tree, rows)
        call = lambda: eval_jet3_batch((tree,), np.array(rows), BATCH_PARAMS)
        if isinstance(expected, Exception):
            _assert_same_error(expected, call)
            return
        _assert_levels_match(call(), expected)

    @pytest.mark.parametrize("text", [f"{fn}(0.6*t*x + 0.05)" for fn in FUNCTIONS]
                             + [f"(t + x)^({e!r})" for e in EXPONENTS]
                             + ["t/x", "(1 + t^2)/(x - t)", "-x/(t*t)"])
    def test_functions_powers_and_division_on_a_grid(self, text):
        tree = parse(text, ["t", "x"])
        grid = np.linspace(0.05, 2.0, 40)
        rows = np.stack(np.meshgrid(grid, grid[::-1] + 0.013), -1).reshape(-1, 2)
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
        tree = parse(text, ["t"])
        expected = _jets_per_row(tree, rows)
        assert isinstance(expected, EvalDomainError)
        _assert_same_error(expected, lambda: eval_jet3_batch(
            (tree,), np.array(rows), {}))

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
# One point: expr.eval_jet3 is the one-row eval_jet3_batch, as a TensorJet.
# ---------------------------------------------------------------------------

class TestPointJets:
    @settings(max_examples=300, deadline=None)
    @given(trees=st.lists(expr_trees, min_size=1, max_size=3),
           rows=row_arrays)
    def test_matches_oracle_bytes(self, trees, rows):
        row = rows[0]
        expected = []
        for tree in trees:
            found = _jets_per_row(tree, [row])
            if isinstance(found, Exception):
                got = _assert_same_error(
                    found, lambda: expr.eval_jet3(trees, row, BATCH_PARAMS))
                assert (got.index, got.coords) == (0, tuple(row))
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
        for call in (lambda: eval_batch((tree,), rows, {}),
                     lambda: eval_jet3_batch((tree,), rows, {})):
            with pytest.raises(EvalDomainError) as err:
                call()
            assert (err.value.index, err.value.coords) == (2, (0.1,))
            assert type(err.value.coords[0]) is float
