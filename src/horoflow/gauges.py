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

GaugeFn = Callable[[np.ndarray], float]


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


def smooth_gauge(alg: GradedAlgebra, exponent: int | None = None) -> SmoothGauge:
    """Construct the smooth gauge; default N is the smallest admissible one."""
    N = minimal_even_exponent(alg.degrees) if exponent is None else int(exponent)
    rhos = []
    for d in alg.degrees:
        rho, rem = divmod(N, d)
        if rem or rho % 2 or rho <= 0:
            raise ValueError(f"N={N} does not give an even natural exponent for degree {d}")
        rhos.append(rho)
    return SmoothGauge(alg, N, tuple(rhos))


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

    ``quasi_triangle_constant`` is an empirical estimate of
    sup gauge(xy) / (gauge(x) + gauge(y)); it is 1 when the gauge satisfies
    the exact triangle inequality (as the quartic Heisenberg gauge does) and
    is only an observed value otherwise.
    """

    algebra: GradedAlgebra
    gauge: GaugeFn
    label: str
    quasi_triangle_constant: float | None = None

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        return self.gauge(self.algebra.multiply(inverse(x), y))

    def batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise distances; a (dim,) argument is paired with every row of the other."""
        return _gauge_batch(self.gauge, self.algebra.multiply_batch(inverse(X), Y))

    def to_origin(self, x: Sequence[float]) -> float:
        return self.gauge(np.asarray(x, dtype=float))


def smooth_distance(alg: GradedAlgebra, quasi_samples: int = 0,
                    seed: int = 0) -> HomogeneousDistance:
    """Distance from the smooth gauge; no triangle inequality is assumed.

    With ``quasi_samples`` > 0 the quasi-triangle constant is estimated by
    sampling and recorded on the returned object.
    """
    g = smooth_gauge(alg)
    quasi = None
    if quasi_samples > 0:
        quasi = estimate_quasi_triangle_constant(alg, g, quasi_samples, seed)
    return HomogeneousDistance(alg, g, "smooth", quasi)


def koranyi_distance(alg: GradedAlgebra | None = None) -> HomogeneousDistance:
    alg = heisenberg() if alg is None else alg
    if not is_heisenberg(alg):
        raise ValueError("the quartic gauge distance requires the Heisenberg preset")
    return HomogeneousDistance(alg, koranyi_norm, "koranyi", 1.0)


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


def _gauge_batch(gauge: GaugeFn, X: np.ndarray) -> np.ndarray:
    """The gauge on each row of X; any other callable than the two gauges
    above is called once per row."""
    if isinstance(gauge, SmoothGauge) or gauge is koranyi_norm:
        return gauge(X)
    return np.array([gauge(x) for x in X])


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
    v1 = _gauge_batch(g1, X)
    if not np.all(np.isfinite(v1)) or np.any(v1 <= 0):
        raise ValueError("degenerate gauge: vanishing or non-finite on nonzero samples")
    unit = alg.dilate(1.0 / v1, X)
    ratios = _gauge_batch(g2, unit)
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise ValueError("degenerate gauge ratio encountered (0 or infinity)")
    return float(ratios.min()), float(ratios.max())


def estimate_quasi_triangle_constant(
    alg: GradedAlgebra, gauge: GaugeFn, samples: int, seed: int = 0
) -> float:
    """Empirical sup of gauge(x y) / (gauge(x) + gauge(y))."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(samples, alg.dim))
    Y = rng.uniform(-2.0, 2.0, size=(samples, alg.dim))
    num = _gauge_batch(gauge, alg.multiply_batch(X, Y))
    den = _gauge_batch(gauge, X) + _gauge_batch(gauge, Y)
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
    norms = _gauge_batch(gauge, X)
    unit = alg.dilate(1.0 / norms, X)
    return float(max(abs(f(u)) for u in unit))


def gauge_report(
    alg: GradedAlgebra,
    gauge: GaugeFn,
    samples: int,
    seed: int = 0,
    enforce_triangle: bool | None = None,
) -> dict:
    """Property-check report for one gauge: homogeneity, symmetry, triangle.

    ``triangle_violations`` counts sampled pairs with
    gauge(xy) > gauge(x) + gauge(y) + 1e-12; it is only a pass/fail criterion
    when ``enforce_triangle`` (defaults to True exactly for the quartic
    Heisenberg gauge, whose triangle inequality is exact).
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(samples, alg.dim))
    Y = rng.uniform(-3.0, 3.0, size=(samples, alg.dim))
    scales = rng.uniform(0.25, 4.0, size=samples)

    gX = _gauge_batch(gauge, X)
    homogeneity_max_err = float(np.max(np.abs(_gauge_batch(gauge, alg.dilate(scales, X))
                                              - scales * gX)))

    symmetry_max_err = float(np.max(np.abs(_gauge_batch(gauge, -X) - gX)))

    lhs = _gauge_batch(gauge, alg.multiply_batch(X, Y))
    rhs = gX + _gauge_batch(gauge, Y)
    excess = lhs - rhs
    triangle_violations = int(np.sum(excess > 1e-12))
    quasi = float(np.max(lhs / np.where(rhs > 0, rhs, np.inf)))

    sg = smooth_gauge(alg)
    lo, hi = equivalence_constants(alg, sg, gauge, samples, seed)

    if enforce_triangle is None:
        enforce_triangle = gauge is koranyi_norm
    passed = homogeneity_max_err <= 1e-12 and symmetry_max_err <= 1e-12
    if enforce_triangle:
        passed = passed and triangle_violations == 0

    return {
        "samples": int(samples),
        "seed": int(seed),
        "homogeneity_max_err": homogeneity_max_err,
        "symmetry_max_err": symmetry_max_err,
        "triangle_violations": triangle_violations,
        "quasi_triangle_constant": quasi,
        "equivalence_constants": {"lower": lo, "upper": hi, "reference": "smooth"},
        "triangle_enforced": bool(enforce_triangle),
        "passed": bool(passed),
    }
