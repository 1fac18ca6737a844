import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horoflow import (GradedAlgebra, equivalence_constants, gauge_report, heisenberg,
                      koranyi_distance, koranyi_norm, smooth_distance,
                      smooth_gauge)
from horoflow.gauges import (estimate_quasi_triangle_constant,
                             homogeneous_domination_constant,
                             minimal_even_exponent)

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


@given(vec3, vec3, vec3)
def test_distance_left_invariance(z, x, y):
    d = koranyi_distance()
    alg = d.algebra
    lhs = d(alg.multiply(z, x), alg.multiply(z, y))
    assert lhs == pytest.approx(d(x, y), rel=1e-9, abs=1e-12)


@given(vec3, vec3, st.floats(0.2, 4.0))
def test_distance_homogeneity(x, y, r):
    d = koranyi_distance()
    alg = d.algebra
    lhs = d(alg.dilate(r, x), alg.dilate(r, y))
    assert lhs == pytest.approx(r * d(x, y), rel=1e-10, abs=1e-12)


@given(vec3, vec3)
def test_distance_symmetry(x, y):
    d = koranyi_distance()
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
    c = estimate_quasi_triangle_constant(heis, koranyi_norm, 4000, seed=2)
    assert c <= 1.0 + 1e-12
    assert c > 0.9  # near-equality cases are sampled


def test_smooth_distance_records_quasi_constant(heis):
    d = smooth_distance(heis)
    assert d.quasi_triangle_constant is None
    d2 = smooth_distance(heis, quasi_samples=2000, seed=4)
    assert d2.quasi_triangle_constant is not None
    assert 0.9 < d2.quasi_triangle_constant < 1.5


def test_domination_estimate_third_coordinate(heis):
    # |x3| is 2-homogeneous; its constant against the quartic gauge is 1
    g = koranyi_norm
    C = homogeneous_domination_constant(heis, lambda x: x[2], 2.0, g, 4000, seed=3)
    assert C <= 1.0 + 1e-12
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3, 3, (200, 3)):
        assert abs(x[2]) <= (C + 1e-12) * koranyi_norm(x) ** 2 + 1e-12


def test_gauge_report_shape_and_pass(heis):
    rep = gauge_report(heis, koranyi_norm, 2000, seed=9)
    for key in ("homogeneity_max_err", "symmetry_max_err", "triangle_violations",
                "equivalence_constants", "quasi_triangle_constant"):
        assert key in rep
    assert rep["triangle_violations"] == 0
    assert rep["passed"]
    rep2 = gauge_report(heis, smooth_gauge(heis), 2000, seed=9)
    assert rep2["passed"]  # triangle not enforced for the smooth gauge


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
