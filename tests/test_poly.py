from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horoflow.fields import left_invariant_frame
from horoflow.groups import GradedAlgebra, heisenberg
from horoflow.poly import Poly, evaluator

ALGEBRAS = {
    "heisenberg": heisenberg,
    "filiform": lambda: GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    "third": lambda: GradedAlgebra((2, 1), {(0, 1): {2: Fraction(1, 3)}}),
}


def product_loop(p, xs):
    """Float oracle: each term is its coefficient times one factor per unit
    of exponent, and the terms are summed from 0.0 in sorted order."""
    total = 0.0
    for e, c in sorted(p.terms.items()):
        v = float(c)
        for i, k in enumerate(e):
            for _ in range(k):
                v *= xs[i]
        total += v
    return total


def law_and_frame(alg):
    """The group law (2 dim variables) and every frame row (dim variables)."""
    return alg.law, tuple(row for f in left_invariant_frame(alg) for row in f.rows)


def test_constructor_drops_zeros_and_merges():
    p = Poly(2, {(1, 0): 1, (0, 0): 0})
    assert p.terms == {(1, 0): Fraction(1)}
    q = Poly(2, {(1, 0): 1}) + Poly(2, {(1, 0): -1})
    assert q.is_zero


NVARS = 3
COEFFS = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=6),
                   st.floats(-4, 4).map(lambda x: round(x, 2)))
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * NVARS), COEFFS,
                        max_size=6).map(lambda terms: Poly(NVARS, terms))


def assert_clean(p):
    """``p``'s terms are what the public constructor makes of them."""
    assert p.nvars == NVARS
    assert p.terms == Poly(p.nvars, p.terms).terms
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(e) == NVARS and all(type(k) is int and k >= 0 for k in e)


@given(POLYS, POLYS, COEFFS, st.integers(0, NVARS - 1),
       st.tuples(*[st.fractions(max_denominator=5)] * NVARS))
def test_ring_operations_keep_constructor_clean_terms(p, q, s, i, x):
    # each result holds no term the public constructor would change, and its
    # value at an exact point is the operation applied to the values
    value = lambda r: r.evaluate_exact(x)
    fs, vp, vq = Fraction(s), value(p), value(q)
    for r, expected in [(p + q, vp + vq), (p - q, vp - vq), (-p, -vp), (p * q, vp * vq),
                        (p + s, vp + fs), (s + p, fs + vp), (p - s, vp - fs),
                        (s - p, fs - vp), (p * s, vp * fs), (s * p, fs * vp),
                        (p - p, 0), (p * 0, 0)]:
        assert_clean(r)
        assert value(r) == expected
    d = p.diff(i)
    assert_clean(d)
    assert d.terms == {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                       for e, c in p.terms.items() if e[i]}


def test_constructor_refuses_bad_exponents():
    with pytest.raises(ValueError, match="does not match nvars=2"):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(2, {(1, -1): 1})


def test_ring_identities():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x + 1) * (x + 1) == x * x * x + 3 * x * x + 3 * x + 1


def test_diff():
    x = Poly.variable(3, 0)
    z = Poly.variable(3, 2)
    p = x * x * z + 5 * z
    assert p.diff(0) == 2 * x * z
    assert p.diff(1).is_zero
    assert p.diff(2) == x * x + 5
    assert p.diff(2).diff(2).is_zero


def test_exact_fraction_arithmetic():
    p = Poly(1, {(1,): Fraction(1, 3)}) * 3
    assert p == Poly.variable(1, 0)
    # binary floats convert exactly
    assert Poly.constant(1, 0.5).terms == {(0,): Fraction(1, 2)}


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_evaluate_matches_direct_formula(coeffs, a, b):
    c0, c1 = coeffs
    x = Poly.variable(2, 0)
    p = c0 * x * x + c1 * Poly.variable(2, 1)
    direct = c0 * a * a + c1 * b
    assert evaluator([p])(a, b)[0] == pytest.approx(direct, abs=1e-12)


def test_batch_evaluation_agrees_with_scalar(rng):
    p = Poly(3, {(2, 1, 0): 1.5, (0, 0, 1): -2, (0, 0, 0): 0.25})
    f = evaluator([p, Poly.constant(3, 7), Poly.zero(3)])
    X = rng.uniform(-2, 2, size=(40, 3))
    batch, seven, zero = f(*X.T)
    assert (seven, zero) == (7.0, 0.0)
    for row, val in zip(X, batch):
        assert val == f(*row.tolist())[0] == product_loop(p, row.tolist())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_evaluator_matches_exact_values_at_rational_points(name):
    # dyadic points are exact floats; the only float error is rounding in the
    # sums and products, bounded by a few ulps of the sum of absolute terms
    rng = np.random.default_rng(5)
    for polys in law_and_frame(ALGEBRAS[name]()):
        f = evaluator(polys)
        n = polys[0].nvars
        for num in rng.integers(-64, 65, size=(20, n)):
            pt = [Fraction(int(k), 16) for k in num]
            got = f(*[float(v) for v in pt])
            for p, value in zip(polys, got):
                scale = sum(abs(c) * np.prod([abs(float(v)) ** k for v, k in zip(pt, e)])
                            for e, c in p.terms.items())
                assert abs(value - p.evaluate_exact(pt)) <= 1e-14 * max(scale, 1.0)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_evaluator_is_the_product_loop_bit_for_bit(name):
    rng = np.random.default_rng(6)
    for polys in law_and_frame(ALGEBRAS[name]()):
        f = evaluator(polys)
        X = rng.uniform(-10.0, 10.0, size=(200, polys[0].nvars))
        rows = np.stack([np.broadcast_to(v, len(X)) for v in f(*X.T)], axis=1)
        for x, row in zip(X, rows):
            xs = x.tolist()
            one = f(*xs)
            assert one == tuple(product_loop(p, xs) for p in polys)
            assert row.tolist() == list(one)


def test_weighted_degrees():
    p = Poly(3, {(1, 1, 0): 2, (0, 0, 1): -1})
    assert p.weighted_degrees((1, 1, 2)) == frozenset({2})
    assert p.weighted_degrees((1, 2, 3)) == frozenset({3})
    assert Poly.zero(3).weighted_degrees((1, 1, 2)) == frozenset()
