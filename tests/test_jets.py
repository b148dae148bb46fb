import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwcert.curvature import metric_inverse
from grwcert.expr import eval_jet3 as engine_jets, parse
from grwcert.jets import TensorJet, contract, jet_tables

from .oracles import (Jet3, JetDomainError, as_jet3, dd_gradient, dd_hessian,
                      dd_third, eval_value, expression_corpus,
                      jet_matrix_inverse)


def eval_jet3(node, point, params):
    """The engine's order-3 jet of one tree at one point, as a ``Jet3``."""
    return as_jet3(engine_jets((node,), point, params).at(0))


def jet_of(text, coords, point, params=None):
    return eval_jet3(parse(text, coords, tuple(params or ())), point,
                     params or {})


class TestLeibnizAndChain:
    def test_polynomial_example(self):
        jet = jet_of("t^3 + x*t", ["t", "x"], (2.0, 1.0))
        assert jet.value == pytest.approx(10.0, abs=1e-14)
        assert jet.grad[0] == pytest.approx(13.0, abs=1e-14)
        assert jet.grad[1] == pytest.approx(2.0, abs=1e-14)
        assert jet.d2(0, 0) == pytest.approx(12.0, abs=1e-14)
        assert jet.d2(0, 1) == pytest.approx(1.0, abs=1e-14)
        assert jet.d2(1, 1) == 0.0
        assert jet.d3(0, 0, 0) == pytest.approx(6.0, abs=1e-14)
        # every other third partial vanishes
        third = jet.third_tensor()
        third[0, 0, 0] = 0.0
        assert np.max(np.abs(third)) == 0.0

    def test_exponential_example(self):
        jet = jet_of("exp(2*t)", ["t"], (0.0,))
        assert jet.value == pytest.approx(1.0, abs=1e-14)
        assert jet.grad[0] == pytest.approx(2.0, abs=1e-14)
        assert jet.d2(0, 0) == pytest.approx(4.0, abs=1e-14)
        assert jet.d3(0, 0, 0) == pytest.approx(8.0, abs=1e-14)

    def test_product_rule_matches_jet_product(self):
        left = jet_of("sin(t)+x^2", ["t", "x"], (0.3, 0.7))
        right = jet_of("exp(t*x)", ["t", "x"], (0.3, 0.7))
        combined = jet_of("(sin(t)+x^2)*(exp(t*x))", ["t", "x"], (0.3, 0.7))
        product = left * right
        assert combined.value == pytest.approx(product.value, rel=1e-14)
        np.testing.assert_allclose(combined.grad, product.grad, rtol=1e-14)
        np.testing.assert_allclose(combined.hess, product.hess, rtol=1e-14)
        np.testing.assert_allclose(combined.third, product.third, rtol=1e-14)

    def test_quotient_and_power(self):
        jet = jet_of("t^2/x", ["t", "x"], (2.0, 4.0))
        assert jet.value == pytest.approx(1.0)
        assert jet.grad[0] == pytest.approx(1.0)       # 2t/x
        assert jet.grad[1] == pytest.approx(-0.25)     # -t^2/x^2
        assert jet.d2(1, 1) == pytest.approx(0.125)    # 2t^2/x^3

    def test_symmetric_storage_shares_slots(self):
        jet = jet_of("t^2*x + x*y^2", ["t", "x", "y"], (1.0, 2.0, 3.0))
        t = jet_tables(3)
        assert t.pos[2][0, 1] == t.pos[2][1, 0]
        assert t.pos[3][0, 1, 2] == t.pos[3][2, 1, 0]
        assert jet.d2(0, 1) == jet.d2(1, 0)
        assert jet.d3(0, 1, 1) == jet.d3(1, 0, 1) == jet.d3(1, 1, 0)


class TestDomainErrors:
    def test_log_of_negative(self):
        with pytest.raises(JetDomainError):
            Jet3.constant(1, -2.0).ln()

    def test_sqrt_of_zero(self):
        with pytest.raises(JetDomainError):
            Jet3.constant(1, 0.0).sqrt()

    def test_division_by_zero(self):
        with pytest.raises(JetDomainError):
            Jet3.constant(1, 1.0) / Jet3.constant(1, 0.0)

    def test_zero_to_negative_integer_power(self):
        with pytest.raises(JetDomainError):
            Jet3.constant(1, 0.0) ** -2

    def test_nonpositive_base_fractional_power(self):
        with pytest.raises(JetDomainError):
            Jet3.constant(1, -1.0) ** 0.5

    def test_integer_power_of_negative_base_is_fine(self):
        jet = Jet3.coordinate(1, 0, -2.0) ** 3
        assert jet.value == -8.0
        assert jet.grad[0] == 12.0


class TestOrderTracking:
    def test_deriv_drops_one_level(self):
        jet = jet_of("sin(t*x)", ["t", "x"], (0.4, 0.9))
        d0 = jet.deriv(0)
        assert d0.order == 2
        assert d0.value == pytest.approx(jet.grad[0])
        assert d0.grad[1] == pytest.approx(jet.d2(0, 1))
        assert d0.d2(1, 1) == pytest.approx(jet.d3(0, 1, 1))
        assert d0.deriv(1).order == 1

    def test_arithmetic_takes_min_order(self):
        a = jet_of("t^2", ["t"], (1.5,))
        b = a.deriv(0)
        assert (a * b).order == 2
        assert (a + b).order == 2
        assert a.truncated(1).order == 1


class TestDividedDifferenceOracle:
    """Order-3 jets against nested 5-point stencils on a seeded corpus."""

    CORPUS = expression_corpus(seed=20250809, size=120)

    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_corpus_expression(self, idx):
        text, coords, point = self.CORPUS[idx]
        expr = parse(text, coords)
        n = len(coords)
        jet = eval_jet3(expr, point, {})
        f = lambda x: eval_value(expr, x, {})
        x = np.array(point)

        def close(got, want):
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), \
                f"{text} at {point}: {got} vs {want}"

        close(jet.value, f(x))
        grad = dd_gradient(f, x, n)
        for i in range(n):
            close(jet.grad[i], grad[i])
        hess = dd_hessian(f, x, n)
        for i in range(n):
            for j in range(i, n):
                close(jet.d2(i, j), hess[i, j])
        third = dd_third(f, x, n)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    close(jet.d3(i, j, k), third[i, j, k])


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2),
       t=st.floats(-1, 1), x=st.floats(-1, 1))
def test_product_entrywise_property(a, b, c, t, x):
    """eval(e1*e2) equals the jet product of eval(e1), eval(e2) entry-wise."""
    coords = ["t", "x"]
    params = {"a": a, "b": b, "c": c}
    e1 = parse("a + t*b + sin(c*x)", coords, tuple(params))
    e2 = parse("cosh(a*t) - x*c", coords, tuple(params))
    combined = parse("(a + t*b + sin(c*x))*(cosh(a*t) - x*c)", coords,
                     tuple(params))
    j1 = eval_jet3(e1, (t, x), params)
    j2 = eval_jet3(e2, (t, x), params)
    jp = j1 * j2
    jc = eval_jet3(combined, (t, x), params)
    tol = 1e-14
    assert abs(jc.value - jp.value) <= tol * (1 + abs(jp.value))
    for got, want in ((jc.grad, jp.grad), (jc.hess, jp.hess),
                      (jc.third, jp.third)):
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_trig_chain_against_math():
    jet = jet_of("tan(0.9*sin(t))", ["t"], (0.5,))
    # d/dt tan(0.9 sin t) = 0.9 cos t sec^2(0.9 sin t)
    s = 0.9 * math.sin(0.5)
    expected = 0.9 * math.cos(0.5) / math.cos(s) ** 2
    assert jet.grad[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Tensor jets against per-component Jet3 arithmetic.
# ---------------------------------------------------------------------------

def random_tensor_jet(rng, n, shape, order=3):
    sizes = [len(level) for level in jet_tables(n).tuples[1:order + 1]]
    return TensorJet(n, [rng.uniform(-1.0, 1.0, shape)]
                     + [rng.uniform(-1.0, 1.0, shape + (s,)) for s in sizes])


def component(jet: TensorJet, index) -> Jet3:
    return as_jet3(TensorJet(jet.n, [level[index] for level in jet.levels]))


def assert_jets_close(got: Jet3, want: Jet3, tol=1e-12):
    assert got.order == want.order
    levels = ("value", "grad", "hess", "third")[:want.order + 1]
    for name in levels:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=tol, atol=tol, err_msg=name)


CONTRACT_SPECS = ("ij,jk->ik", "i,j->ij", ",k->k", "kj,kj->", "akj,a->kj",
                  "bjl,mkb->jklm", "i,i->i")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       spec=st.sampled_from(CONTRACT_SPECS),
       orders=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_contract_is_sum_of_jet3_products(n, seed, spec, orders):
    rng = np.random.default_rng(seed)
    src, out = spec.split("->")
    sa, sb = src.split(",")
    a = random_tensor_jet(rng, n, (n,) * len(sa), orders[0])
    b = random_tensor_jet(rng, n, (n,) * len(sb), orders[1])
    got = contract(spec, a, b)
    assert got.order == min(orders)
    want = {}
    letters = sorted(set(sa + sb))
    for values in itertools.product(range(n), repeat=len(letters)):
        idx = dict(zip(letters, values))
        term = (component(a, tuple(idx[c] for c in sa))
                * component(b, tuple(idx[c] for c in sb)))
        key = tuple(idx[c] for c in out)
        want[key] = want[key] + term if key in want else term
    # With no summed index each output is one Jet3 product, whose Leibniz
    # terms add in the same order: the same bytes.
    tol = 1e-12 if set(sa + sb) - set(out) else 0.0
    for key, jet in want.items():
        assert_jets_close(component(got, key), jet, tol)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       rank=st.integers(0, 2), order=st.integers(1, 3))
def test_deriv_matches_jet3_deriv(n, seed, rank, order):
    jet = random_tensor_jet(np.random.default_rng(seed), n, (n,) * rank, order)
    d = jet.deriv()
    assert d.order == order - 1
    for index in itertools.product(range(n), repeat=rank):
        for a in range(n):
            assert_jets_close(component(d, (a,) + index),
                              component(jet, index).deriv(a), tol=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       lorentzian=st.booleans())
def test_metric_inverse_matches_gauss_jordan(n, seed, lorentzian):
    rng = np.random.default_rng(seed)
    jet = random_tensor_jet(rng, n, (n, n))
    signs = np.ones(n)
    if lorentzian:
        signs[0] = -1.0
    levels = [0.5 * (lv + lv.swapaxes(0, 1)) * 0.2 for lv in jet.levels]
    levels[0] = levels[0] + np.diag(signs * (1.0 + rng.uniform(0.0, 1.0, n)))
    g = TensorJet(n, levels)
    got = metric_inverse(g)
    want = jet_matrix_inverse([[component(g, (i, j)) for j in range(n)]
                               for i in range(n)])
    for i in range(n):
        for j in range(n):
            assert_jets_close(component(got, (i, j)), want[i][j])
