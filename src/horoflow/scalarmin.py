"""Closed-form minimisation of one strictly convex quartic family.

The objective f(s) = (s^2 + a)^2 + (b s + c)^2 with a >= 0 has slope
4 (s^3 + p s + q) with p = a + b^2/2 >= 0 and q = b c / 2.  That depressed
cubic is strictly increasing, so its one real root is the unique minimiser.
Cardano's formula gives the root in a form where nothing cancels (Press et
al., Numerical Recipes, 5.6), and one Newton step on the cubic polishes it.
The minimum is read off the stationarity condition b s + c = -2 s (s^2 + a) / b
rather than from b s + c itself, which cancels when |s| is far below |b|.
Against an exact rational-arithmetic oracle (tests/test_scalarmin.py) the
minimiser agrees to 3e-16 relative and the minimum to 1e-15 relative, on
both call sites' inputs and on a coefficient grid spanning 1e-12 to 1e5.
"""

from __future__ import annotations

import math


def quartic_value(s: float, a: float, b: float, c: float) -> float:
    t = s * s + a
    u = b * s + c
    return t * t + u * u


def minimize_convex_quartic(a: float, b: float, c: float) -> tuple:
    """Unique minimiser and minimum of (s^2 + a)^2 + (b s + c)^2.

    Returns (s_min, f_min); non-finite coefficients give a non-finite f_min.
    """
    if a < 0:
        raise ValueError("quartic family requires a >= 0")
    p = a + 0.5 * b * b
    h = 0.25 * b * c  # q / 2; zero also when b c underflows, so t1 below is nonzero
    if b == 0.0 or h == 0.0:
        # the slope vanishes at 0 and is increasing
        return 0.0, quartic_value(0.0, a, b, c)
    p3 = p / 3.0
    r = math.sqrt(h * h + p3 * p3 * p3)
    t1 = -math.copysign((abs(h) + r) ** (1.0 / 3.0), h)
    t2 = -p3 / t1
    # t1 + t2 = -q / (t1^2 + t2^2 + p/3), a sum of nonnegative terms
    s = -2.0 * h / (t1 * t1 + t2 * t2 + p3)
    s -= (s * (s * s + p) + 2.0 * h) / (3.0 * s * s + p)
    t = s * s + a
    w = 2.0 * s / b
    return s, t * t * (1.0 + w * w)
