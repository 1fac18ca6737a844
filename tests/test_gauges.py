import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horoflow.gauges import (HomogeneousDistance, default_distance, equivalence_constants,
                             equivalence_kappa, gauge_report, koranyi_norm,
                             smooth_gauge)
from horoflow.groups import GradedAlgebra, heisenberg
from horoflow.gauges import minimal_even_exponent

coords = st.floats(-10, 10, allow_nan=False)
vec3 = st.tuples(coords, coords, coords).map(np.array)


def test_minimal_even_exponent():
    assert minimal_even_exponent((1, 1, 2)) == 4
    assert minimal_even_exponent((1, 2, 3)) == 12
    assert minimal_even_exponent((1,)) == 2


def test_smooth_gauge_heisenberg_values(heis):
    g = smooth_gauge(heis)
    assert g.exponent == 4
    assert g.rhos == (4, 4, 2)
    assert g([1, 0, 0]) == pytest.approx(1.0)
    assert g([0, 0, 1]) == pytest.approx(1.0)


@given(vec3, st.floats(0.1, 5.0))
def test_smooth_gauge_homogeneity(x, r):
    alg = heisenberg()
    g = smooth_gauge(alg)
    lhs = g(alg.dilate(r, x))
    rhs = r * g(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(vec3)
def test_smooth_gauge_symmetry_and_positivity(x):
    g = smooth_gauge(heisenberg())
    assert g(x) == g(-x)
    assert g(x) >= 0
    if np.max(np.abs(x)) > 1e-6:  # below that, fourth powers underflow to 0
        assert g(x) > 0
    assert g(np.zeros(3)) == 0.0


def test_smooth_gauge_is_finite_at_step_seven():
    # N = 840 on the step-7 filiform group, so x_1^840 alone overflows above
    # 2.33 and underflows below 0.43
    alg = GradedAlgebra((2,) + (1,) * 6, {(0, k): {k + 1: 1} for k in range(1, 7)})
    g = smooth_gauge(alg)
    assert g.exponent == 840
    for c in (3.0, 1e-3):
        x = np.full(alg.dim, c)
        assert 0.0 < g(x) < np.inf
        assert g(alg.dilate(2.0, x)) == pytest.approx(2.0 * g(x), rel=1e-14)
        assert np.array_equal(g(np.stack([x, -x])), [g(x), g(x)])
        assert g(np.eye(alg.dim)[0] * c) == c  # on the first axis the gauge is |x_1|


def test_koranyi_values():
    assert koranyi_norm([3, 4, 0]) == pytest.approx(5.0)
    assert koranyi_norm([0, 0, 4]) == pytest.approx(2.0)
    for t in (-2.5, 0.0, 1.75):
        assert koranyi_norm([t, 0, 0]) == pytest.approx(abs(t))
    with pytest.raises(ValueError):
        koranyi_norm([1.0, 2.0])


def test_koranyi_triangle_inequality_bulk(heis):
    # exact group-product triangle inequality, 1e4 random pairs
    rng = np.random.default_rng(23)
    X = rng.uniform(-5, 5, (10_000, 3))
    Y = rng.uniform(-5, 5, (10_000, 3))
    lhs = koranyi_norm(heis.multiply_batch(X, Y))
    rhs = koranyi_norm(X) + koranyi_norm(Y)
    assert np.max(lhs - rhs) <= 1e-12


def test_distance_examples(heis, heis_dist):
    x = np.array([0.4, -1.2, 2.0])
    assert heis_dist(x, x) == 0.0
    assert heis_dist(np.zeros(3), np.array([1.0, 0, 0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        heis_dist(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("gauge", ["koranyi", "smooth"])
def test_distance_rows_equal_point_calls(heis, gauge):
    # rows on either side, or both: one distance per row, each equal to the
    # point call on that row, bit for bit
    d = HomogeneousDistance(heis, koranyi_norm if gauge == "koranyi" else smooth_gauge(heis))
    X, Y = np.random.default_rng(8).uniform(-3, 3, (2, 50, 3))
    assert np.array_equal(d(X, Y), [d(x, y) for x, y in zip(X, Y)])
    assert np.array_equal(d(X, Y[0]), [d(x, Y[0]) for x in X])
    assert np.array_equal(d(X[0], Y), [d(X[0], y) for y in Y])


@given(vec3, vec3, vec3)
def test_distance_left_invariance(z, x, y):
    d = default_distance(heisenberg())
    alg = d.algebra
    lhs = d(alg.multiply(z, x), alg.multiply(z, y))
    assert lhs == pytest.approx(d(x, y), rel=1e-9, abs=1e-12)


@given(vec3, vec3, st.floats(0.2, 4.0))
def test_distance_homogeneity(x, y, r):
    d = default_distance(heisenberg())
    alg = d.algebra
    lhs = d(alg.dilate(r, x), alg.dilate(r, y))
    assert lhs == pytest.approx(r * d(x, y), rel=1e-10, abs=1e-12)


@given(vec3, vec3)
def test_distance_symmetry(x, y):
    d = default_distance(heisenberg())
    assert d(x, y) == pytest.approx(d(y, x), rel=1e-12, abs=1e-13)


def test_equivalence_constants_identity(heis):
    g = smooth_gauge(heis)
    lo, hi = equivalence_constants(heis, g, g, 500, seed=1)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_equivalence_constants_smooth_vs_koranyi(heis):
    g = smooth_gauge(heis)
    lo, hi = equivalence_constants(heis, g, koranyi_norm, 4000, seed=1)
    # analytically the ratio lives in [1, 2^(1/4)], the infimum attained on
    # the axes; the sampled minimum approaches 1 from above
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert lo >= 1.0 - 1e-12
    assert lo <= hi <= 2 ** 0.25 + 1e-12
    assert hi >= 2 ** 0.25 - 1e-3


def test_kappa_is_the_float_just_above_the_fourth_root_of_two(heis):
    kappa = equivalence_kappa(heis)
    assert Fraction(kappa) ** 4 >= 2
    assert Fraction(math.nextafter(kappa, 0.0)) ** 4 < 2


def test_sampled_ratio_never_exceeds_kappa(heis):
    lo, hi = equivalence_constants(heis, smooth_gauge(heis), koranyi_norm, 100_000, seed=2)
    kappa = equivalence_kappa(heis)
    assert max(hi, 1.0 / lo) <= kappa * (1.0 + 1e-15)


def test_kappa_is_one_where_the_distance_uses_the_smooth_gauge():
    filiform = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    assert equivalence_kappa(filiform) == 1.0
    lo, hi = equivalence_constants(filiform, smooth_gauge(filiform),
                                   default_distance(filiform).gauge, 2000, seed=2)
    assert max(hi, 1.0 / lo) <= 1.0 + 1e-15


def test_equivalence_constants_dilation_invariant(heis):
    # constants are a function of the unit sphere only; rescaled sample boxes
    # reach the same sphere points, so a shared seed gives identical output
    g1 = smooth_gauge(heis)
    a = equivalence_constants(heis, g1, koranyi_norm, 1000, seed=5)

    scaled = lambda x: 3.0 * koranyi_norm(x)  # noqa: E731
    b = equivalence_constants(heis, g1, scaled, 1000, seed=5)
    assert b[0] == pytest.approx(3 * a[0], rel=1e-12)
    assert b[1] == pytest.approx(3 * a[1], rel=1e-12)


def test_equivalence_constants_degenerate_gauge(heis):
    g = smooth_gauge(heis)
    broken = lambda x: 0.0  # noqa: E731
    with pytest.raises(ValueError, match="degenerate"):
        equivalence_constants(heis, g, broken, 100, seed=0)


def test_quasi_triangle_constant_koranyi_is_one(heis):
    c = gauge_report(heis, koranyi_norm, 4000, seed=2)["quasi_triangle_constant"]
    assert c <= 1.0 + 1e-12
    assert c > 0.9  # near-equality cases are sampled


def test_smooth_gauge_quasi_constant_is_observed(heis):
    # no exact triangle inequality: the constant is only a sampled value
    c = gauge_report(heis, smooth_gauge(heis), 2000, seed=4)["quasi_triangle_constant"]
    assert 0.9 < c < 1.5


def test_domination_estimate_third_coordinate(heis):
    # |x3| is 2-homogeneous and |x3| <= sqrt((x1^2 + x2^2)^2 + x3^2) = N(x)^2
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3, 3, (200, 3)):
        assert abs(x[2]) <= (1.0 + 1e-12) * koranyi_norm(x) ** 2 + 1e-12


def test_gauge_report_shape_and_pass(heis):
    rep = gauge_report(heis, koranyi_norm, 2000, seed=9)
    for key in ("homogeneity_max_err", "symmetry_max_err", "triangle_violations",
                "equivalence_constants", "quasi_triangle_constant"):
        assert key in rep
    assert rep["triangle_violations"] == 0
    assert rep["passed"]
    rep2 = gauge_report(heis, smooth_gauge(heis), 2000, seed=9)
    assert rep2["passed"]  # triangle not enforced for the smooth gauge


def test_gauge_report_fails_a_gauge_off_homogeneity(heis):
    # the Koranyi gauge plus 1e-12 misses homogeneity by 1e-12 |1 - r|, up to
    # 3e-12 on the drawn scales r in [0.25, 4): above the gate of 1e-12
    rep = gauge_report(heis, lambda X: koranyi_norm(X) + 1e-12, 2000, seed=9)
    assert 1e-12 < rep["homogeneity_max_err"] < 1e-11
    assert rep["symmetry_max_err"] == 0.0
    assert not rep["passed"]


@pytest.mark.parametrize("name", ["koranyi", "smooth-heisenberg", "smooth-filiform"])
def test_gauge_report_homogeneity_matches_loop_oracle(name):
    # the report dilates and gauges all samples at once; the oracle is the
    # per-sample loop it replaced (the draws follow the report's order), and
    # a gauge or dilation of an array equals its scalar value row by row
    alg = (GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
           if name == "smooth-filiform" else heisenberg())
    gauge = koranyi_norm if name == "koranyi" else smooth_gauge(alg)
    rep = gauge_report(alg, gauge, 500, seed=13)
    rng = np.random.default_rng(13)
    X = rng.uniform(-3.0, 3.0, size=(500, alg.dim))
    rng.uniform(-3.0, 3.0, size=(500, alg.dim))
    scales = rng.uniform(0.25, 4.0, size=500)
    want = max(abs(gauge(alg.dilate(r, x)) - r * gauge(x)) for r, x in zip(scales, X))
    assert rep["homogeneity_max_err"] == want


def test_gauge_of_rows_equals_gauge_of_each_point(heis):
    fil = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    rng = np.random.default_rng(17)
    for alg, gauge in ((heis, koranyi_norm), (heis, smooth_gauge(heis)),
                       (fil, smooth_gauge(fil))):
        X = rng.uniform(-5.0, 5.0, size=(300, alg.dim))
        assert gauge(X).tolist() == [gauge(x) for x in X]
