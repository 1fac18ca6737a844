"""Homogeneous gauges and homogeneous distances.

A homogeneous gauge is a continuous 1-homogeneous symmetric function
vanishing only at the origin.  Two canonical instances are provided: the
smooth even-exponent gauge available on every graded group, and the
quartic norm on the Heisenberg group (which satisfies an exact triangle
inequality with respect to the group product).  A homogeneous distance is
``d(x, y) = gauge(x^{-1} y)``; left invariance and 1-homogeneity then hold
by construction and are monitored empirically.  The quartic-gauge distances
to the moving axis point (t, 0, 0) and to the whole first axis are the
coefficients of the non-uniqueness exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gates import InputError, all_passed, gate
from .groups import GradedAlgebra, inverse, is_heisenberg
from .scalarmin import minimize_convex_quartic

# one element (dim,) gives a number, (n, dim) rows one value per row, as for a coefficient;
# a tuple is one element, as the group law's evaluator returns it
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

    Where the sum leaves (2^-1000, inf), so that its largest term may not be
    a normal float (at step 7, N = 840 and x_1^840 alone overflows above
    2.33 and underflows below 0.43), the gauge is 2^e times the gauge of
    the element dilated by 2^-e, for the 2^e just above max_i
    |x_i|^(1/d_i): the dilated element's terms are at most 1, its largest
    at least 2^-N.  Called on one element or on the rows of an (n, dim)
    array; one element goes through the same array operations as a row, so
    a row's value is the value at that row, bit for bit.
    """

    algebra: GradedAlgebra
    exponent: int
    rhos: tuple

    def __call__(self, x: Sequence[float]):
        x = np.asarray(x, dtype=float)
        rhos, root = np.array(self.rhos), 1.0 / self.exponent
        # keepdims leaves an array for one element too, so its root is the
        # same array power as every row's: numpy's scalar power can differ
        # from its vectorised array loop in the last bit
        with np.errstate(over="ignore"):  # an overflowing row is summed again below
            rows = np.add.reduce(np.abs(x) ** rhos, axis=-1, keepdims=True)
        values = rows ** root
        normal = (rows > 2.0 ** -1000) & (rows < np.inf)  # false for a NaN too
        if not normal.all():
            x, degrees = np.abs(x), np.array(self.algebra.degrees)
            _, e = np.frexp(np.max(x ** (1.0 / degrees), axis=-1, keepdims=True))
            e = np.where(normal, 0, e)
            rows = np.add.reduce(np.ldexp(x, -e * degrees) ** rhos, axis=-1, keepdims=True)
            values = np.ldexp(rows ** root, e)
        return values[:, 0] if x.ndim > 1 else values[0]


def smooth_gauge(alg: GradedAlgebra) -> SmoothGauge:
    """The smooth gauge with the smallest admissible N (``minimal_even_exponent``)."""
    N = minimal_even_exponent(alg.degrees)
    return SmoothGauge(alg, N, tuple(N // d for d in alg.degrees))


def koranyi_norm(x: Sequence[float]):
    """Quartic gauge ((x1^2 + x2^2)^2 + x3^2)^(1/4) on the Heisenberg group.

    Called on one 3-vector (a float) or on the rows of an (n, 3) array; the
    fourth root is two correctly rounded square roots, so a row's value is
    the value at that row, bit for bit.  A tuple is one 3-vector of floats,
    as the group law's evaluator returns it, and is read as it is.
    """
    if type(x) is tuple:
        x1, x2, x3 = x
        sqrt = math.sqrt
    else:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (3,) or x.ndim > 2:
            raise ValueError("the quartic Heisenberg gauge is defined on 3-vectors")
        x1, x2, x3 = x.tolist() if x.ndim == 1 else x.T
        sqrt = math.sqrt if x.ndim == 1 else np.sqrt
    h = x1 * x1 + x2 * x2
    return sqrt(sqrt(h * h + x3 * x3))


def distance_to_axis_point(t, x):
    """Quartic-gauge distance from (t, 0, 0); uniformly 1-Lipschitz in x.

    A coefficient in the sense of ``fields``: x is a point or (n, 3) rows.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0] - t, x[..., 1], x[..., 2] - t * x[..., 1]
    h = x1 * x1 + x2 * x2
    return np.sqrt(np.sqrt(h * h + x3 * x3))


def distance_to_axis(x):
    """Distance to the whole first axis: inf over s of the distance to (s,0,0).

    Shifting the minimisation variable turns the objective into the convex
    quartic family (s^2 + b^2)^2 + (b s + c)^2 with b = -x2, c = x3 - x1 x2,
    minimised in closed form (relative error below 1e-14 against an exact
    oracle, down to |x2| = 1e-170; see scalarmin).  On the axis's own plane
    x2 = 0, and wherever x2^2 underflows, the value is the limit |c|^(1/2).
    x is one point or (n, 3) rows.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    _, fmin = minimize_convex_quartic(-x2, x3 - x1 * x2)
    return np.sqrt(np.sqrt(fmin))


@dataclass(frozen=True)
class HomogeneousDistance:
    """Left-invariant distance d(x, y) = gauge(x^{-1} y).

    It carries no quasi-triangle constant: that constant is 1 for the quartic
    Heisenberg gauge, whose triangle inequality is exact, and only an observed
    value for the smooth gauge, which ``gauge_report`` samples as its
    ``quasi_triangle_constant``.
    """

    algebra: GradedAlgebra
    gauge: GaugeFn

    def __call__(self, x: Sequence[float], y: Sequence[float]):
        """d(x, y) of two elements, or one distance per row when either is an
        (n, dim) array of rows; a (dim,) argument is paired with every row.

        Two elements are multiplied on Python floats, and the gauge gets the
        law's tuple; x^{-1} is -x in exponential coordinates.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        alg = self.algebra
        if x.ndim == y.ndim == 1:
            if x.shape != (alg.dim,) or y.shape != (alg.dim,):
                raise ValueError(f"expected elements of length {alg.dim}")
            return self.gauge(alg._product(*(-x).tolist(), *y.tolist()))
        return self.gauge(alg.multiply_batch(inverse(x), y))

    def from_point(self, point: Sequence[float]):
        """The coefficient (t, x) -> d(point, x), for x one element or rows.

        point^{-1}, the law and the gauge are bound once, and x is not
        checked: each call makes the operations of ``__call__`` in its order,
        so it returns the same bits."""
        alg, gauge = self.algebra, self.gauge
        neg = inverse(point)
        product, neg_floats = alg._product, neg.tolist()

        def distance(t, x):
            if x.ndim == 1:
                return gauge(product(*neg_floats, *x.tolist()))
            return gauge(alg.multiply_batch(neg, x))

        return distance


def default_distance(alg: GradedAlgebra) -> HomogeneousDistance:
    """Quartic norm on the Heisenberg preset, smooth gauge otherwise."""
    return HomogeneousDistance(alg, koranyi_norm if is_heisenberg(alg) else smooth_gauge(alg))


# --------------------------------------------------------------------------- sampled checks


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
    X = rng.uniform(-1.0, 1.0, size=(sample_count, alg.dim))
    X[np.all(X == 0.0, axis=1)] = 1.0  # vanishing samples are useless here
    v1 = g1(X)
    if not np.all(np.isfinite(v1)) or np.any(v1 <= 0):
        raise InputError("degenerate gauge: vanishing or non-finite on nonzero samples")
    unit = alg.dilate(1.0 / v1, X)
    ratios = g2(unit)
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise InputError("degenerate gauge ratio encountered (0 or infinity)")
    return float(ratios.min()), float(ratios.max())


def equivalence_kappa(alg: GradedAlgebra) -> float:
    """kappa = max(upper, 1/lower) of ``default_distance(alg)``'s gauge against
    the smooth gauge, in closed form.

    Heisenberg preset: 2^(1/4), as ((x1^2 + x2^2)^2 + x3^2) / (x1^4 + x2^4 +
    x3^2) lies in [1, 2] by (a + b)^2 <= 2 (a^2 + b^2); returned as the float
    just above it, since ``2 ** 0.25`` rounds below.  Any other algebra: 1,
    as the distance's gauge is the smooth gauge itself.
    """
    return math.nextafter(2 ** 0.25, math.inf) if is_heisenberg(alg) else 1.0


def gauge_report(
    alg: GradedAlgebra,
    gauge: GaugeFn,
    samples: int,
    seed: int = 0,
) -> dict:
    """Property-check report for one gauge: homogeneity, symmetry, triangle.

    ``triangle_violations`` counts sampled pairs with
    gauge(xy) > gauge(x) + gauge(y) + 1e-12; the largest such excess is a
    gate exactly for the quartic Heisenberg gauge, whose triangle inequality
    is exact.
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
    rows = [gate("homogeneity_max_err", homogeneity_max_err, "<=", 1e-12),
            gate("symmetry_max_err", symmetry_max_err, "<=", 1e-12)]
    if triangle_enforced:
        rows.append(gate("triangle_max_excess", float(np.max(excess)), "<=", 1e-12))

    return {
        "samples": int(samples),
        "seed": int(seed),
        "homogeneity_max_err": homogeneity_max_err,
        "symmetry_max_err": symmetry_max_err,
        "triangle_violations": triangle_violations,
        "quasi_triangle_constant": quasi,
        "equivalence_constants": {"lower": lo, "upper": hi, "reference": "smooth"},
        "triangle_enforced": triangle_enforced,
        "gates": rows,
        "passed": all_passed(rows),
    }
