import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from horoflow.scalarmin import minimize_convex_quartic, quartic_value

TINY = 2.0**-1022  # smallest normal float; below it no result is relative-accurate
HUGE = 1.7976931348623157e308


def exact_slope(s, b, c):
    """f'(s) / 2 of (s^2 + b^2)^2 + (b s + c)^2, in rational arithmetic."""
    s, b, c = Fraction(s), Fraction(b), Fraction(c)
    return 2 * s * (s * s + b * b) + b * (b * s + c)


def exact_f(s, b, c):
    s, b, c = Fraction(s), Fraction(b), Fraction(c)
    return (s * s + b * b) ** 2 + (b * s + c) ** 2


def ordered(x):
    """Integer key that orders floats as their values do."""
    k = struct.unpack("<Q", struct.pack("<d", x))[0]
    return k if k < 1 << 63 else -(k & ~(1 << 63))


def unordered(k):
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def exact_bracket(b, c):
    """Adjacent floats lo <= hi with the exact minimiser in [lo, hi].

    The slope is strictly increasing, so bisecting over the ordered float
    keys on its exact rational sign brackets the root between neighbours,
    independently of the formula under test.
    """
    lo, hi = ordered(-HUGE), ordered(HUGE)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exact_slope(unordered(mid), b, c) < 0:
            lo = mid
        else:
            hi = mid
    return Fraction(unordered(lo)), Fraction(unordered(hi))


def exact_minimum_bounds(b, c, lo, hi):
    """Rational lower and upper bounds on min f, given the bracket."""
    # f is convex, so its tangent at lo lies below it; f'(lo) <= 0 <= f'(hi)
    w = hi - lo
    lower = min(exact_f(lo, b, c), exact_f(hi, b, c)) + 2 * min(
        exact_slope(lo, b, c) * w, -exact_slope(hi, b, c) * w)
    return lower, min(exact_f(lo, b, c), exact_f(hi, b, c))


def assert_matches_oracle(b, c, result=None, check_s=True):
    """s within 1e-12 and f within 1e-14 relative of the exact minimum,
    wherever the exact values are normal floats."""
    s, f = minimize_convex_quartic(b, c) if result is None else result
    lo, hi = exact_bracket(b, c)
    s_ref = (lo + hi) / 2
    if check_s and abs(s_ref) >= TINY:
        assert abs(Fraction(s) - s_ref) <= Fraction(1e-12) * abs(s_ref), (b, c, s)
    elif check_s and s_ref == 0:
        assert s == 0.0, (b, c, s)
    lower, upper = exact_minimum_bounds(b, c, lo, hi)
    if TINY <= lower and upper <= HUGE:
        assert lower * Fraction(1 - 1e-14) <= Fraction(f) <= upper * Fraction(1 + 1e-14), (
            b, c, f, float(upper))


def test_matches_oracle_on_axis_distance_inputs():
    # distance_to_axis: b = -x2, c = x3 - x1 x2 on [-3, 3]^3
    for x in np.random.default_rng(7).uniform(-3.0, 3.0, (100, 3)):
        x1, x2, x3 = map(float, x)
        assert_matches_oracle(-x2, x3 - x1 * x2)


def test_matches_oracle_on_scaled_term_inputs():
    # scaled_axis_distance: b = t u / 18, c = v / 36
    rng = np.random.default_rng(8)
    for t, u, v in zip(rng.uniform(0, 1, 100), rng.uniform(0, 3, 100), rng.uniform(0, 3, 100)):
        assert_matches_oracle(float(t) * float(u) / 18.0, float(v) / 36.0)


def extreme_grid():
    """(b, c) with |b| in [1e-170, 1e77] and |kappa| = |c| / b^2 in [1e-300, 1e308],
    random mantissas and signs, kept where c and the minimum are normal floats."""
    rng = np.random.default_rng(11)
    rows = []
    for eb in np.linspace(-170.0, 76.5, 24):
        for ek in np.linspace(-299.5, 308.0, 24):
            log_b = float(eb + rng.uniform(0.0, 0.5))
            log_kappa = float(ek - rng.uniform(0.0, 0.5))
            log_c = log_kappa + 2.0 * log_b
            log_f = 4.0 * log_b + 2.0 * max(0.0, log_kappa)
            sb, sc = rng.choice([-1.0, 1.0], 2)
            if -307.0 < log_c < 308.0 and -300.0 < log_f < 300.0:
                rows.append((float(sb) * 10.0**log_b, float(sc) * 10.0**log_c))
    return rows


def test_matches_oracle_on_extreme_grid():
    rows = extreme_grid()
    assert len(rows) > 200
    for b, c in rows:
        assert_matches_oracle(b, c)


def test_largest_kappa_gives_a_finite_true_minimum():
    # kappa = c / b^2 just below the largest float: the root and the objective
    # at it stay finite, and the result is the true one
    for b, c in ((1e-100, 1.7976e108), (-1e-100, 1.7976e108), (1e-150, -1.7e8)):
        assert math.isfinite(c / b / b) and abs(c / b / b) > 1.6e308
        s, f = minimize_convex_quartic(b, c)
        assert math.isfinite(s) and math.isfinite(f)
        assert_matches_oracle(b, c)


def test_minimum_is_the_objective_at_the_returned_minimiser():
    # f is the quartic evaluated at the root, not a separate identity; the
    # summation orders differ, so allow rounding on the extreme grid
    for b, c in extreme_grid():
        s, f = minimize_convex_quartic(b, c)
        direct = quartic_value(s, b, c)
        if TINY <= min(f, direct) and max(f, direct) <= HUGE:
            assert abs(f - direct) <= 1e-14 * direct, (b, c, f, direct)


def test_array_call_matches_scalar_calls_and_oracle():
    # the extreme grid as one call, plus limit rows (b = 0, b^2 underflow)
    limits = [(0.0, 3.0), (1e-170, 1.0), (0.0, 0.0)]
    coeffs = np.array(extreme_grid() + [(5.0, 0.0)] + limits)
    s, f = minimize_convex_quartic(*coeffs.T)
    assert s.shape == f.shape == (len(coeffs),)
    one_by_one = np.array([minimize_convex_quartic(b, c) for b, c in coeffs])
    # the same elementwise formula; 2 ulp leave room for SIMD and scalar loops
    np.testing.assert_array_max_ulp(s, one_by_one[:, 0], maxulp=2)
    np.testing.assert_array_max_ulp(f, one_by_one[:, 1], maxulp=2)
    for (b, c), si, fi in zip(coeffs, s, f):
        # the limit rows take s = 0 in place of the true minimiser
        assert_matches_oracle(b, c, (si, fi), check_s=(b, c) not in limits)


def test_array_call_broadcasts_and_flags_non_finite_entries():
    s, f = minimize_convex_quartic(np.array([1.0, math.inf, 0.0]), np.array([1.0, 1.0, math.nan]))
    assert np.isfinite(f[0]) and not np.isfinite(f[1]) and not np.isfinite(f[2])
    assert (s[0], f[0]) == minimize_convex_quartic(1.0, 1.0)
    s, f = minimize_convex_quartic(2.0, np.array([[1.0], [2.0]]))
    assert s.shape == f.shape == (2, 1)


def test_flat_minimum_value_is_not_overestimated():
    # min f = b^4 = 1.0000e-16 at s = 0; bracketing plus golden section
    # returned 1.0264e-16 on the earlier family's flattest case
    assert minimize_convex_quartic(1e-4, 0.0)[1] == pytest.approx(1e-16, rel=1e-15)
    assert_matches_oracle(1e-4, 0.0)
    assert_matches_oracle(1e-4, 1e-8)


def test_zero_slope_at_origin_short_cut():
    # c = 0: the slope 2 b c vanishes at s = 0, the minimum is b^4
    assert minimize_convex_quartic(5.0, 0.0) == (0.0, 625.0)
    assert minimize_convex_quartic(-5.0, 0.0) == (0.0, 625.0)
    # b = 0: the b -> 0 limit, s = 0 and f = c^2
    assert minimize_convex_quartic(0.0, 3.0) == (0.0, 9.0)
    assert minimize_convex_quartic(0.0, 0.0) == (0.0, 0.0)


def test_underflowing_b_squared_gives_the_limit_within_its_error():
    # kappa = c / b^2 is not finite: s = 0 and f = c^2, the b -> 0 limit,
    # which exceeds the exact minimum by about kappa^(-2/3) relative
    for b, c in ((1e-170, 1.0), (-1e-160, 2.0), (1e-160, -1.0), (3e-300, 1e-9),
                 (1e-10, 1e300)):
        s, f = minimize_convex_quartic(b, c)
        assert s == 0.0 and f == c * c
        assert_matches_oracle(b, c, (s, f), check_s=False)
        lower, _ = exact_minimum_bounds(b, c, *exact_bracket(b, c))
        assert 0 <= Fraction(c) ** 2 - lower <= Fraction(1e-200) * lower


def test_true_overflow_is_infinite():
    # min f >= b^4 beyond the float range: inf, not the limit c^2
    for b, c in ((1e78, 1.0), (-2e77, 1e-3), (1e200, 1e300), (1e160, 1.0)):
        s, f = minimize_convex_quartic(b, c)
        assert f == math.inf
        assert math.isfinite(s)
    s, f = minimize_convex_quartic(np.array([1e78, 1.0]), np.array([1.0, 1.0]))
    assert f[0] == math.inf and f[1] == minimize_convex_quartic(1.0, 1.0)[1]


def test_subnormal_coefficients_do_not_raise():
    # b c near the smallest subnormal
    for b, c in ((2.0**-537, 2.0**-536), (2.0**-536, 2.0**-536), (1.0, 5e-324)):
        _, f = minimize_convex_quartic(b, c)
        assert 0.0 <= f <= quartic_value(0.0, b, c)


@pytest.mark.parametrize("b, c", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-1.0, math.inf),
    (math.inf, 0.0), (0.0, math.nan), (-math.inf, -math.inf), (0.0, math.inf),
])
def test_non_finite_b_or_c_give_nan_minimum(b, c):
    s, f = minimize_convex_quartic(b, c)
    assert s == 0.0 and math.isnan(f)
    s, f = minimize_convex_quartic(np.array([b, 1.0]), np.array([c, 1.0]))
    assert s[0] == 0.0 and math.isnan(f[0]) and np.isfinite(f[1])


@pytest.mark.parametrize("x1, x2, x3", [
    (math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.nan),
    (math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, -1.0, math.inf),
    (0.0, math.inf, 0.0), (0.0, 0.0, math.nan), (math.inf, 0.0, 1.0),
])
def test_non_finite_coefficients_give_non_finite_minimum(x1, x2, x3):
    # the coefficients distance_to_axis forms from a point with a non-finite
    # coordinate: b = -x2, c = x3 - x1 x2, at least one of them not finite
    b, c = -x2, x3 - x1 * x2
    assert not (math.isfinite(b) and math.isfinite(c))
    s, f = minimize_convex_quartic(b, c)
    assert s == 0.0 and math.isnan(f)
    s, f = minimize_convex_quartic(np.array([b, 1.0]), np.array([c, 1.0]))
    assert s[0] == 0.0 and math.isnan(f[0]) and np.isfinite(f[1])


def test_quartic_value_is_the_objective():
    s, b, c = 0.5, -2.0, 3.0
    assert quartic_value(s, b, c) == float(exact_f(s, b, c))
    s_min, f_min = minimize_convex_quartic(b, c)
    assert quartic_value(s_min, b, c) == pytest.approx(f_min, rel=1e-15)
