import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from horoflow.scalarmin import minimize_convex_quartic

REL_WIDTH = Fraction(1, 2**80)


def exact_bracket(a, b, c):
    """Bracket [lo, hi] of the exact minimiser, narrower than 2^-80 |s|.

    Bisects on the sign of the slope in rational arithmetic, so the bracket
    is exact for the float coefficients as given.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    p, q = a + b * b / 2, b * c / 2
    # the root of s^3 + p s + q has the sign of -q and modulus below |q| / p
    lo, hi = sorted((Fraction(0), -q / p))
    while hi - lo > REL_WIDTH * min(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        if mid * (mid * mid + p) + q < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def exact_minimum_bounds(a, b, c, lo, hi):
    """Rational lower and upper bounds on min f, given the bracket."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)

    def f(s):
        return (s * s + a) ** 2 + (b * s + c) ** 2

    def df(s):
        return 4 * s * (s * s + a) + 2 * b * (b * s + c)

    # f is convex, so its tangents at the bracket ends lie below it
    w = hi - lo
    lower = max(f(lo) + df(lo) * w, f(hi) - df(hi) * w)
    return lower, f((lo + hi) / 2)


def assert_matches_oracle(a, b, c, result=None):
    s, f = minimize_convex_quartic(a, b, c) if result is None else result
    lo, hi = exact_bracket(a, b, c)
    s_ref = (lo + hi) / 2
    assert abs(Fraction(s) - s_ref) <= Fraction(1e-12) * abs(s_ref), (a, b, c, s)
    lower, upper = exact_minimum_bounds(a, b, c, lo, hi)
    assert lower * Fraction(1 - 1e-14) <= Fraction(f) <= upper * Fraction(1 + 1e-14), (
        a, b, c, f, float(upper))


def test_matches_oracle_on_axis_distance_inputs():
    # distance_to_axis: a = x2^2, b = -x2, c = x3 - x1 x2 on [-3, 3]^3
    for x in np.random.default_rng(7).uniform(-3.0, 3.0, (100, 3)):
        x1, x2, x3 = map(float, x)
        assert_matches_oracle(x2 * x2, -x2, x3 - x1 * x2)


def test_matches_oracle_on_scaled_term_inputs():
    # scaled_axis_distance: b = t u / 18, a = b^2, c = v / 36
    rng = np.random.default_rng(8)
    for t, u, v in zip(rng.uniform(0, 1, 100), rng.uniform(0, 3, 100), rng.uniform(0, 3, 100)):
        b = float(t) * float(u) / 18.0
        assert_matches_oracle(b * b, b, float(v) / 36.0)


def extreme_grid():
    grid = itertools.product((0.0, 1e-12, 1e-8, 1e-4, 1.0, 1e2, 1e5),
                             (1e-6, 1e-3, 1.0, 1e2, 1e4, 1e5),
                             (1e-12, 1e-8, 1e-4, 1.0, 1e2, 1e5))
    signs = itertools.cycle(((1, 1), (1, -1), (-1, 1), (-1, -1)))
    return [(a, sb * b, sc * c) for (a, b, c), (sb, sc) in zip(grid, signs)]


def test_matches_oracle_on_extreme_grid():
    for a, b, c in extreme_grid():
        assert_matches_oracle(a, b, c)


def test_array_call_matches_scalar_calls_and_oracle():
    # the whole grid as one call, plus b c = 0 entries that take the short cut
    coeffs = np.array(extreme_grid() + [(2.0, 0.0, 3.0), (2.0, 5.0, 0.0), (0.0, 0.0, 0.0)])
    s, f = minimize_convex_quartic(*coeffs.T)
    assert s.shape == f.shape == (len(coeffs),)
    one_by_one = np.array([minimize_convex_quartic(a, b, c) for a, b, c in coeffs])
    # the same elementwise formula; 2 ulp leave room for SIMD and scalar loops
    np.testing.assert_array_max_ulp(s, one_by_one[:, 0], maxulp=2)
    np.testing.assert_array_max_ulp(f, one_by_one[:, 1], maxulp=2)
    for (a, b, c), si, fi in zip(coeffs, s, f):
        if b * c != 0.0:
            assert_matches_oracle(a, b, c, (si, fi))


def test_array_call_broadcasts_and_flags_non_finite_entries():
    s, f = minimize_convex_quartic(0.0, np.array([1.0, math.inf, 0.0]), np.array([1.0, 1.0, math.nan]))
    assert np.isfinite(f[0]) and not np.isfinite(f[1]) and not np.isfinite(f[2])
    assert (s[0], f[0]) == minimize_convex_quartic(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        minimize_convex_quartic(np.array([1.0, -1.0]), 1.0, 1.0)


def test_flat_minimum_value_is_not_overestimated():
    # min f = 1.0000e-16; bracketing plus golden section returned 1.0264e-16
    assert_matches_oracle(0.0, 1e4, 1.0)


def test_rejects_negative_a():
    for b, c in ((1.0, 1.0), (0.0, 0.0)):
        with pytest.raises(ValueError):
            minimize_convex_quartic(-1e-300, b, c)


def test_zero_slope_at_origin_short_cut():
    assert minimize_convex_quartic(2.0, 0.0, 3.0) == (0.0, 13.0)
    assert minimize_convex_quartic(2.0, 5.0, 0.0) == (0.0, 4.0)
    assert minimize_convex_quartic(0.0, -5.0, 0.0) == (0.0, 0.0)


def test_subnormal_coefficients_do_not_raise():
    # b c near the smallest subnormal: q/2 may underflow while q does not
    for b, c in ((2.0**-537, 2.0**-536), (2.0**-536, 2.0**-536)):
        _, f = minimize_convex_quartic(0.0, b, c)
        assert 0.0 <= f <= c * c


@pytest.mark.parametrize("a, b, c", [
    (math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.nan),
    (math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, -1.0, math.inf),
    (0.0, math.inf, 0.0), (0.0, 0.0, math.nan), (math.inf, 0.0, 1.0),
])
def test_non_finite_coefficients_give_non_finite_minimum(a, b, c):
    _, f = minimize_convex_quartic(a, b, c)
    assert not math.isfinite(f)
