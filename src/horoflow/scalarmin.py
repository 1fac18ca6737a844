"""Closed-form minimum of the quartic family behind both axis distances.

f(s) = (s^2 + b^2)^2 + (b s + c)^2 is b^4 ((1 + sigma^2)^2 + (sigma + kappa)^2)
with s = b sigma and kappa = c / b^2.  Its minimiser is the one real root of the
increasing cubic 2 sigma^3 + 3 sigma + kappa, -sqrt(2) sinh(asinh(kappa/sqrt(2))/3)
(nothing cancels), polished by one Newton step.  At the root
sigma + kappa = -2 sigma (1 + sigma^2), so min f = t^2 (1 + 4 sigma^2) with
t = b^2 (1 + sigma^2), a product of positive terms.  kappa is c / b / b and
t is b (1 + sigma^2) b, so nothing underflows before the result does.

Where b = 0 or kappa is beyond the float range (so wherever b^2 underflows)
the result is the b -> 0 limit s = 0, f = c^2, off by below 1e-200 relative;
a minimum beyond the float range (|b| above about 1e77) is inf; a non-finite
coefficient gives s = 0, f = NaN.  Against an exact rational oracle
(tests/test_scalarmin.py) s agrees to 1e-12 and f to 1e-14 relative for |b|
in [1e-170, 1e77] and |kappa| in [1e-300, 1e308]; a subnormal kappa leaves s
only kappa's precision.
"""

from __future__ import annotations

import numpy as np

SQRT2 = 1.4142135623730951


def quartic_value(s, b, c):
    t = s * s + b * b
    u = b * s + c
    return t * t + u * u


def minimize_convex_quartic(b, c) -> tuple:
    """Unique minimiser and minimum of (s^2 + b^2)^2 + (b s + c)^2.

    Coefficients may be scalars or arrays that broadcast together; the
    result has their common shape.  Edge cases as in the module docstring.
    """
    # one formula on the raw coefficients; every row it cannot serve (b = 0,
    # kappa beyond the root's range, a non-finite coefficient) ends in a
    # non-finite f, so the one mask below finds every row to patch
    with np.errstate(all="ignore"):
        kappa = np.divide(c, b) / b
        sigma = -SQRT2 * np.sinh(np.arcsinh(kappa / SQRT2) / 3.0)
        ss = sigma * sigma
        # Newton on sigma^3 + 1.5 sigma + kappa/2, which cannot overflow
        sigma -= (sigma * (ss + 1.5) + 0.5 * kappa) / (3.0 * ss + 1.5)
        ss = sigma * sigma
        t = b * (1.0 + ss) * b
        s = b * sigma
        f = t * (t * (1.0 + 4.0 * ss))
        if not np.isfinite(f).all():
            # s is lost exactly on those rows; where s is finite, f = inf is
            # a true overflow and stays
            lost = ~np.isfinite(s)
            s = np.where(lost, 0.0, s)
            f = np.where(np.isfinite(b) & np.isfinite(c), np.where(lost, c * c, f), np.nan)
    return s[()], f[()]
