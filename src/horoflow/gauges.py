"""Homogeneous gauges and homogeneous distances.

A homogeneous gauge is a continuous 1-homogeneous symmetric function
vanishing only at the origin.  Two canonical instances are provided: the
smooth even-exponent gauge available on every graded group, and the
quartic norm on the Heisenberg group (which satisfies an exact triangle
inequality with respect to the group product).  A homogeneous distance is
``d(x, y) = gauge(x^{-1} y)``; left invariance and 1-homogeneity then hold
by construction and are monitored empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import GradedAlgebra, heisenberg, inverse, is_heisenberg

# one element (dim,) gives a number, (n, dim) rows one value per row, as for a coefficient
GaugeFn = Callable[[np.ndarray], object]


def minimal_even_exponent(degrees: Sequence[int]) -> int:
    """Smallest N such that N / d is an even natural number for every degree d."""
    N = 1
    for d in set(degrees):
        N = math.lcm(N, 2 * d)
    return N


@dataclass(frozen=True)
class SmoothGauge:
    """Even-exponent gauge (sum_i x_i^rho_i)^(1/N) with rho_i = N / d_i.

    Called on one element or on the rows of an (n, dim) array; one element is
    evaluated as a one-row array, so a row's value is the value at that row,
    bit for bit.
    """

    algebra: GradedAlgebra
    exponent: int
    rhos: tuple

    def __call__(self, x: Sequence[float]):
        x = np.asarray(x, dtype=float)
        rows = np.sum(np.abs(np.atleast_2d(x)) ** np.array(self.rhos), axis=1)
        values = rows ** (1.0 / self.exponent)
        return values if x.ndim > 1 else values[0]


def smooth_gauge(alg: GradedAlgebra) -> SmoothGauge:
    """The smooth gauge with the smallest admissible N (``minimal_even_exponent``)."""
    N = minimal_even_exponent(alg.degrees)
    return SmoothGauge(alg, N, tuple(N // d for d in alg.degrees))


def koranyi_norm(x: Sequence[float]):
    """Quartic gauge ((x1^2 + x2^2)^2 + x3^2)^(1/4) on the Heisenberg group.

    Called on one 3-vector (a float) or on the rows of an (n, 3) array; the
    fourth root is two correctly rounded square roots, so a row's value is
    the value at that row, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,) or x.ndim > 2:
        raise ValueError("the quartic Heisenberg gauge is defined on 3-vectors")
    x1, x2, x3 = x.tolist() if x.ndim == 1 else x.T
    sqrt = math.sqrt if x.ndim == 1 else np.sqrt
    h = x1 * x1 + x2 * x2
    return sqrt(sqrt(h * h + x3 * x3))


@dataclass(frozen=True)
class HomogeneousDistance:
    """Left-invariant distance d(x, y) = gauge(x^{-1} y).

    It carries no quasi-triangle constant: that constant is 1 for the quartic
    Heisenberg gauge, whose triangle inequality is exact, and only an observed
    value for the smooth gauge, which ``estimate_quasi_triangle_constant``
    samples on demand.
    """

    algebra: GradedAlgebra
    gauge: GaugeFn

    def __call__(self, x: Sequence[float], y: Sequence[float]):
        """d(x, y) of two elements, or row-wise as ``batch`` when either is an array of rows."""
        x_inv, y = inverse(x), np.asarray(y, dtype=float)
        if x_inv.ndim == y.ndim == 1:
            return self.gauge(self.algebra.multiply(x_inv, y))
        return self.batch(x, y)

    def batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise distances; a (dim,) argument is paired with every row of the other."""
        return self.gauge(self.algebra.multiply_batch(inverse(X), Y))


def smooth_distance(alg: GradedAlgebra) -> HomogeneousDistance:
    """Distance from the smooth gauge; no triangle inequality is assumed.

    Its quasi-triangle constant is only an observed value: sample it with
    ``estimate_quasi_triangle_constant(alg, smooth_gauge(alg), ...)``.
    """
    return HomogeneousDistance(alg, smooth_gauge(alg))


def koranyi_distance(alg: GradedAlgebra | None = None) -> HomogeneousDistance:
    alg = heisenberg() if alg is None else alg
    if not is_heisenberg(alg):
        raise ValueError("the quartic gauge distance requires the Heisenberg preset")
    return HomogeneousDistance(alg, koranyi_norm)


def default_distance(alg: GradedAlgebra) -> HomogeneousDistance:
    """Quartic norm on the Heisenberg preset, smooth gauge otherwise."""
    if is_heisenberg(alg):
        return koranyi_distance(alg)
    return smooth_distance(alg)


# --------------------------------------------------------------------------- sampling helpers


def _sample_nonzero(alg: GradedAlgebra, rng: np.random.Generator, n: int) -> np.ndarray:
    X = rng.uniform(-1.0, 1.0, size=(n, alg.dim))
    X[np.all(X == 0.0, axis=1)] = 1.0  # vanishing samples are useless here
    return X


def equivalence_constants(
    alg: GradedAlgebra,
    g1: GaugeFn,
    g2: GaugeFn,
    sample_count: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical (lower, upper) bounds for g2 / g1 on the unit sphere of g1.

    The ratio is 0-homogeneous, so sampling the g1-unit sphere (random points
    renormalized by dilation) covers all scales.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    X = _sample_nonzero(alg, rng, sample_count)
    v1 = g1(X)
    if not np.all(np.isfinite(v1)) or np.any(v1 <= 0):
        raise ValueError("degenerate gauge: vanishing or non-finite on nonzero samples")
    unit = alg.dilate(1.0 / v1, X)
    ratios = g2(unit)
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise ValueError("degenerate gauge ratio encountered (0 or infinity)")
    return float(ratios.min()), float(ratios.max())


# samples behind every gauge-equivalence constant kappa: the same fixed count
# in the stability bound and in the exhibit report keeps both reproducible
KAPPA_SAMPLES = 4000


def equivalence_kappa(alg: GradedAlgebra, gauge: GaugeFn, seed: int = 0) -> float:
    """kappa = max(upper, 1/lower) of ``gauge`` against the smooth gauge,
    over ``KAPPA_SAMPLES`` samples (see ``equivalence_constants``)."""
    lo, hi = equivalence_constants(alg, smooth_gauge(alg), gauge, KAPPA_SAMPLES, seed)
    return max(hi, 1.0 / lo)


def estimate_quasi_triangle_constant(
    alg: GradedAlgebra, gauge: GaugeFn, samples: int, seed: int = 0
) -> float:
    """Empirical sup of gauge(x y) / (gauge(x) + gauge(y))."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(samples, alg.dim))
    Y = rng.uniform(-2.0, 2.0, size=(samples, alg.dim))
    num = gauge(alg.multiply_batch(X, Y))
    den = gauge(X) + gauge(Y)
    ok = den > 0
    return float(np.max(num[ok] / den[ok]))


def homogeneous_domination_constant(
    alg: GradedAlgebra,
    f: Callable[[np.ndarray], float],
    degree: float,
    gauge: GaugeFn,
    samples: int,
    seed: int = 0,
) -> float:
    """Estimate C with |f(x)| <= C * gauge(x)^degree via unit-sphere sampling."""
    rng = np.random.default_rng(seed)
    X = _sample_nonzero(alg, rng, samples)
    norms = gauge(X)
    unit = alg.dilate(1.0 / norms, X)
    return float(max(abs(f(u)) for u in unit))


def gauge_report(
    alg: GradedAlgebra,
    gauge: GaugeFn,
    samples: int,
    seed: int = 0,
) -> dict:
    """Property-check report for one gauge: homogeneity, symmetry, triangle.

    ``triangle_violations`` counts sampled pairs with
    gauge(xy) > gauge(x) + gauge(y) + 1e-12; it is a pass/fail criterion
    exactly for the quartic Heisenberg gauge, whose triangle inequality is
    exact.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(samples, alg.dim))
    Y = rng.uniform(-3.0, 3.0, size=(samples, alg.dim))
    scales = rng.uniform(0.25, 4.0, size=samples)

    gX = gauge(X)
    homogeneity_max_err = float(np.max(np.abs(gauge(alg.dilate(scales, X))
                                              - scales * gX)))

    symmetry_max_err = float(np.max(np.abs(gauge(-X) - gX)))

    lhs = gauge(alg.multiply_batch(X, Y))
    rhs = gX + gauge(Y)
    excess = lhs - rhs
    triangle_violations = int(np.sum(excess > 1e-12))
    quasi = float(np.max(lhs / np.where(rhs > 0, rhs, np.inf)))

    sg = smooth_gauge(alg)
    lo, hi = equivalence_constants(alg, sg, gauge, samples, seed)

    triangle_enforced = gauge is koranyi_norm
    passed = homogeneity_max_err <= 1e-12 and symmetry_max_err <= 1e-12
    if triangle_enforced:
        passed = passed and triangle_violations == 0

    return {
        "samples": int(samples),
        "seed": int(seed),
        "homogeneity_max_err": homogeneity_max_err,
        "symmetry_max_err": symmetry_max_err,
        "triangle_violations": triangle_violations,
        "quasi_triangle_constant": quasi,
        "equivalence_constants": {"lower": lo, "upper": hi, "reference": "smooth"},
        "triangle_enforced": triangle_enforced,
        "passed": bool(passed),
    }
