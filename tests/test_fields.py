import math
from fractions import Fraction

import numpy as np
import pytest

from horoflow import (Box, GradedAlgebra, TestFunction, apply_derivation,
                      compute_p, derivation_of, estimate_lipschitz,
                      evaluate_field, field_from_spec, frame_field, heisenberg,
                      horizontal_field, horizontal_gradient, koranyi_distance,
                      left_invariant_frame, recover_coefficients)
from horoflow.counterexample import counterexample_field
from horoflow.fields import (NonHorizontalDerivationError, coordinate_function,
                             translated_coordinate_functions)
from horoflow.gauges import homogeneous_domination_constant, koranyi_norm
from horoflow.poly import Poly, evaluator


def P(terms):
    return Poly(3, terms)


def test_heisenberg_frame_exact_symbolic(heis):
    # zero-tolerance check of the three frame rows
    x1 = compute_p(heis, 1)
    assert x1.rows == (P({(0, 0, 0): 1}), P({}), P({(0, 1, 0): -1}))
    x2 = compute_p(heis, 2)
    assert x2.rows == (P({}), P({(0, 0, 0): 1}), P({(1, 0, 0): 1}))
    x3 = compute_p(heis, 3)
    assert x3.rows == (P({}), P({}), P({(0, 0, 0): 1}))


def test_frame_identity_block_on_step3():
    fil = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    frame= left_invariant_frame(fil)
    d = fil.degrees
    for f in frame:
        i = f.index - 1
        for j, row in enumerate(f.rows):
            if d[j] < d[i]:
                assert row.is_zero
            elif d[j] == d[i]:
                expected = Poly(4, {(0, 0, 0, 0): 1}) if i == j else Poly.zero(4)
                assert row == expected


def test_frame_graded_homogeneity_symbolic():
    # every monomial of p_i^j has weighted degree d_j - d_i (weights = degrees)
    fil = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    d = fil.degrees
    for f in left_invariant_frame(fil):
        i = f.index - 1
        for j, row in enumerate(f.rows):
            degs = row.weighted_degrees(d)
            assert degs in (frozenset(), frozenset({d[j] - d[i]}))


@pytest.mark.parametrize("layers, brackets", [
    ((2, 1), {(0, 1): {2: 2}}),
    ((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    ((3, 1, 1), {(0, 1): {3: 1}, (0, 2): {3: 2}, (1, 2): {3: 3},
                 (0, 3): {4: 1}, (1, 3): {4: 3}, (2, 3): {4: 3}}),
    ((2, 1, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}),
], ids=["heisenberg", "filiform", "3-1-1", "filiform-step4"])
def test_frame_rows_are_the_law_derivative_at_the_identity(layers, brackets):
    # row j of X_i is d(law_j)/dy_i at (x, 0): compared exactly at rational x
    alg = GradedAlgebra(layers, brackets)
    q = alg.dim
    rng = np.random.default_rng(7)
    for i in range(1, q + 1):
        rows = compute_p(alg, i).rows
        derivs = [law_j.diff(q + i - 1) for law_j in alg.law]
        for num in rng.integers(-40, 41, size=(10, q)):
            x = [Fraction(int(k), 7) for k in num]
            for row, deriv in zip(rows, derivs):
                assert row.evaluate_exact(x) == deriv.evaluate_exact(x + [0] * q)


def test_compute_p_index_range(heis):
    with pytest.raises(ValueError):
        compute_p(heis, 0)
    with pytest.raises(ValueError):
        compute_p(heis, 4)


def test_evaluate_field_examples(heis):
    b = counterexample_field(heis, "time")
    assert np.allclose(evaluate_field(b, 0.0, np.zeros(3)), [1, 0, 0])

    zero = horizontal_field(heis, (lambda t, x: 0.0, lambda t, x: 0.0))
    assert np.allclose(evaluate_field(zero, 1.0, np.array([2.0, 3, 4])), 0)

    x2_only = horizontal_field(heis, (lambda t, x: 0.0, lambda t, x: 1.0))
    assert np.allclose(evaluate_field(x2_only, 0.0, np.array([1.0, 0, 0])), [0, 1, 1])


def test_field_horizontality_flag(heis):
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 0.0))
    assert b.is_horizontal
    g = frame_field(heis, (lambda t, x: 1.0,), (3,))
    assert not g.is_horizontal
    with pytest.raises(ValueError):
        horizontal_field(heis, (lambda t, x: 1.0,))
    with pytest.raises(ValueError):
        frame_field(heis, (lambda t, x: 1.0,), (7,))


def _product(f, g):
    return TestFunction(
        lambda x: f.value(x) * g.value(x),
        lambda x: f.value(x) * np.asarray(g.gradient(x)) + g.value(x) * np.asarray(f.gradient(x)),
    )


def test_derivation_on_coordinates(heis):
    b = horizontal_field(heis, (lambda t, x: 3.0, lambda t, x: x[..., 0]))
    eta1 = coordinate_function(heis, 1)
    x = np.array([0.7, -0.2, 1.4])
    assert apply_derivation(b, eta1, x) == pytest.approx(3.0)
    const = TestFunction(lambda x: 42.0, lambda x: np.zeros(3))
    assert apply_derivation(b, const, x) == 0.0


def test_derivation_leibniz_rule(heis, rng):
    b = horizontal_field(
        heis, (lambda t, x: np.sin(x[..., 1]), lambda t, x: x[..., 0] * x[..., 2])
    )
    f = TestFunction(lambda x: x[0] ** 2 + x[2], lambda x: np.array([2 * x[0], 0.0, 1.0]))
    g = TestFunction(lambda x: math.cos(x[1]), lambda x: np.array([0.0, -math.sin(x[1]), 0.0]))
    for x in rng.uniform(-2, 2, (25, 3)):
        lhs = apply_derivation(b, _product(f, g), x)
        rhs = f.value(x) * apply_derivation(b, g, x) + g.value(x) * apply_derivation(b, f, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_derivation_chain_rule(heis, rng):
    b = horizontal_field(heis, (lambda t, x: x[..., 1], lambda t, x: 1.0))
    f1 = coordinate_function(heis, 1)
    f2 = TestFunction(lambda x: x[2] ** 2, lambda x: np.array([0.0, 0.0, 2 * x[2]]))
    # F(u1, u2) = u1^2 u2 + u2
    composite = TestFunction(
        lambda x: f1.value(x) ** 2 * f2.value(x) + f2.value(x),
        lambda x: (
            2 * f1.value(x) * f2.value(x) * np.asarray(f1.gradient(x))
            + (f1.value(x) ** 2 + 1) * np.asarray(f2.gradient(x))
        ),
    )
    for x in rng.uniform(-2, 2, (25, 3)):
        lhs = apply_derivation(b, composite, x)
        rhs = (
            2 * f1.value(x) * f2.value(x) * apply_derivation(b, f1, x)
            + (f1.value(x) ** 2 + 1) * apply_derivation(b, f2, x)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_derivation_bound_holds(heis, rng):
    b = horizontal_field(heis, (lambda t, x: x[..., 1] ** 2, lambda t, x: np.cos(x[..., 0])))
    D = derivation_of(b)
    f = TestFunction(
        lambda x: math.sin(x[0]) + x[1] * x[2],
        lambda x: np.array([math.cos(x[0]), x[2], x[1]]),
    )
    for x in rng.uniform(-2, 2, (25, 3)):
        hg = horizontal_gradient(heis, f, x)
        assert abs(D(f, x)) <= D.bound(x) * np.linalg.norm(hg) + 1e-12


def test_recover_coefficients_example(heis):
    b = horizontal_field(heis, (lambda t, x: 3.0, lambda t, x: x[..., 0]))
    D = derivation_of(b)
    got = recover_coefficients(D, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(got, [3.0, 1.0], atol=1e-12)

    zero = horizontal_field(heis, (lambda t, x: 0.0, lambda t, x: 0.0))
    got = recover_coefficients(derivation_of(zero), np.array([0.5, -1.0, 2.0]))
    assert np.allclose(got, 0.0)


def test_recover_coefficients_roundtrip_hundred_points(heis):
    a1 = lambda t, x: np.sin(x[..., 0]) + x[..., 1] ** 2  # noqa: E731
    a2 = lambda t, x: np.cos(x[..., 1]) * x[..., 2]  # noqa: E731
    b = horizontal_field(heis, (a1, a2))
    D = derivation_of(b)
    rng = np.random.default_rng(31)
    for xbar in rng.uniform(-3, 3, (100, 3)):
        got = recover_coefficients(D, xbar)
        want = np.array([a1(0.0, xbar), a2(0.0, xbar)])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_nonhorizontal_derivation_rejected(heis):
    # vertical direction: D(f) = d f / d x3; the translated third coordinate
    # has vanishing horizontal gradient at xbar yet D reads 1 there
    from horoflow.fields import Derivation

    D = Derivation(
        heis,
        action=lambda f, x: float(np.asarray(f.gradient(x))[2]),
        bound=lambda x: 1.0,
    )
    xbar = np.array([0.4, -0.8, 0.3])
    etas = translated_coordinate_functions(heis, xbar)
    hg = horizontal_gradient(heis, etas[2], xbar)
    assert np.max(np.abs(hg)) <= 1e-14  # the bound right-hand side vanishes
    assert D(etas[2], xbar) == pytest.approx(1.0)
    with pytest.raises(NonHorizontalDerivationError):
        recover_coefficients(D, xbar)


def test_translated_coordinates_kronecker_property(heis, rng):
    frame = left_invariant_frame(heis)
    for xbar in rng.uniform(-2, 2, (10, 3)):
        etas = translated_coordinate_functions(heis, xbar)
        for j, eta in enumerate(etas):
            assert eta.value(xbar) == pytest.approx(0.0, abs=1e-13)
            grad = np.asarray(eta.gradient(xbar))
            for i, f in enumerate(frame):
                xi_eta = float(np.dot(grad, f.value(xbar)))
                assert xi_eta == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_estimate_lipschitz_constant_function(heis, heis_dist):
    box = Box((-1, -1, -1), (1, 1, 1))
    est = estimate_lipschitz(lambda x: 5.0, heis_dist, box, 200, seed=0)
    assert est == 0.0


def test_estimate_lipschitz_gauge_distance_is_one(heis, heis_dist):
    a = lambda x: heis_dist(np.zeros(3), x)  # noqa: E731
    box = Box((-2, -2, -2), (2, 2, 2))
    est = estimate_lipschitz(a, heis_dist, box, 3000, seed=1)
    # exact triangle inequality makes this 1-Lipschitz; sampling stays below
    assert est <= 1.0 + 1e-9
    assert est > 0.5


def test_third_coordinate_not_uniformly_lipschitz(heis, heis_dist):
    # exact pairwise ratio for (0,0,+1) vs (0,0,-1): |2| / sqrt(2) = sqrt(2)
    p, q = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    assert heis_dist(p, q) == pytest.approx(math.sqrt(2.0))
    ratio = abs(p[2] - q[2]) / heis_dist(p, q)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    a = lambda x: x[2]  # noqa: E731
    # shrinking the horizontal extent does not shrink the estimate ...
    for delta in (1.0, 1e-2, 1e-4):
        box = Box((-delta, -delta, -1.0), (delta, delta, 1.0))
        est = estimate_lipschitz(a, heis_dist, box, 4000, seed=2)
        assert est >= 1.0  # sqrt(2) in the sup; sampling reaches past 1
        assert est <= math.sqrt(2.0) * (1.0 + delta)
    # ... while growing the vertical extent grows it without bound (~sqrt(2H))
    ests = []
    for H in (1.0, 16.0, 256.0):
        box = Box((-1e-3, -1e-3, -H), (1e-3, 1e-3, H))
        ests.append(estimate_lipschitz(a, heis_dist, box, 4000, seed=3))
    assert ests[0] < ests[1] < ests[2]
    assert ests[2] > math.sqrt(256.0)


def test_frame_domination_constants(heis):
    # |p_i^j(x)| <= C ||x||^(d_j - d_i); on the Heisenberg preset the
    # off-diagonal rows are +-x_1, +-x_2, whose exact constant against the
    # quartic gauge is 1.  The sampled estimate approaches it from below.
    frame = left_invariant_frame(heis)
    d = heis.degrees
    rng = np.random.default_rng(6)
    pts = rng.uniform(-4, 4, (300, 3))
    for f in frame:
        i = f.index - 1
        for j, row in enumerate(f.rows):
            if row.is_zero or d[j] <= d[i]:
                continue
            lam = d[j] - d[i]
            C = homogeneous_domination_constant(
                heis, lambda x, _v=evaluator([row]): _v(*x)[0], lam, koranyi_norm, 2000, seed=7
            )
            assert 0.9 <= C <= 1.0 + 1e-12
            for x in pts:
                value = evaluator([row])(*x)[0]
                assert abs(value) <= (1.0 + 1e-12) * koranyi_norm(x) ** lam + 1e-12


def test_field_from_spec_forms(heis, heis_dist):
    spec = {
        "coefficients": [
            {"form": "constant", "value": 2.0},
            {"form": "monomial", "exponents": [1, 0, 0], "scale": -1.0},
        ]
    }
    b = field_from_spec(heis, spec)
    x = np.array([0.5, 1.0, 0.0])
    assert b.coefficients[0](0.0, x) == 2.0
    assert b.coefficients[1](0.0, x) == -0.5

    spec2 = {
        "coefficients": [
            {"form": "distance_to_point", "point": [0, 0, 0]},
            {"form": "axis_distance"},
        ]
    }
    b2 = field_from_spec(heis, spec2)
    assert b2.coefficients[0](0.0, x) == pytest.approx(heis_dist(np.zeros(3), x))
    from horoflow import distance_to_axis_point

    assert b2.coefficients[1](0.3, x) == pytest.approx(distance_to_axis_point(0.3, x))

    spec3 = {"coefficients": [{"form": "sin_coordinate", "index": 1}], "indices": [1]}
    b3 = field_from_spec(heis, spec3)
    assert b3.coefficients[0](0.0, x) == pytest.approx(math.sin(0.5))

    spec4 = {"coefficients": [{"form": "axis_distance_inf"}], "indices": [2]}
    b4 = field_from_spec(heis, spec4)
    from horoflow import distance_to_axis

    assert b4.coefficients[0](0.0, x) == pytest.approx(distance_to_axis(x))

    with pytest.raises(ValueError):
        field_from_spec(heis, {"coefficients": [{"form": "nope"}]})


# --------------------------------------------------------------------------- coefficient contract

FILIFORM = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})

SIX_FORMS = {
    "coefficients": [
        {"form": "constant", "value": -1.5},
        {"form": "monomial", "exponents": [2, 0, 1], "scale": 0.75},
        {"form": "distance_to_point", "point": [0.2, -0.4, 0.1]},
        {"form": "axis_distance"},
        {"form": "axis_distance_inf"},
        {"form": "sin_coordinate", "index": 3, "scale": 2.0},
    ],
    "indices": [1, 2, 1, 2, 2, 1],
}


def contract_rows(dim, n=200, seed=11):
    """Random rows plus rows on the first axis, at the origin and with
    signed zeros, where the closed forms take their special branches."""
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, dim))
    X[:5, 1:] = 0.0
    X[5] = 0.0
    X[6] = -0.0
    T = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, n)
    T[7] = X[7, 0]  # on the moving axis point
    return X, T


def assert_rows_equal_points(a, X, T):
    for t_rows, t_points in ((T, T), (0.3, np.full(len(T), 0.3))):
        rows = np.broadcast_to(a(t_rows, X), len(X))
        points = [a(t, x) for t, x in zip(t_points.tolist(), X)]
        assert np.array_equal(rows, points)


@pytest.mark.parametrize("k", range(6), ids=[c["form"] for c in SIX_FORMS["coefficients"]])
def test_json_forms_rows_equal_point_calls(heis, k):
    b = field_from_spec(heis, SIX_FORMS)
    assert_rows_equal_points(b.coefficients[k], *contract_rows(3))


def test_distance_to_point_rows_on_the_smooth_gauge():
    spec = {"coefficients": [{"form": "distance_to_point", "point": [0.3, 0.1, -0.2, 0.5]},
                             {"form": "monomial", "exponents": [0, 1, 0, 1]}]}
    b = field_from_spec(FILIFORM, spec)
    X, T = contract_rows(4)
    for a in b.coefficients:
        assert_rows_equal_points(a, X, T)


@pytest.mark.parametrize("variant", ["time", "autonomous"])
def test_exhibit_coefficients_rows_equal_point_calls(heis, variant):
    b = counterexample_field(heis, variant)
    X, T = contract_rows(3)
    for a in b.coefficients:
        assert_rows_equal_points(a, X, T)


def test_module_field_rows_equal_point_calls(heis):
    from horoflow import check_involutive, module_field

    mod = check_involutive(heis, [[0.6, 0.8, 0.0]])
    b = module_field(mod, (lambda t, x: np.sin(x[..., 0]) * (1.0 + t),))
    X, T = contract_rows(3)
    for a in b.coefficients:
        assert_rows_equal_points(a, X, T)
    ax = check_involutive(heis, [[1.0, 0.0, 0.0]])
    # the second frame coefficient sums no terms: a number for every row
    b = module_field(ax, (lambda t, x: x[..., 2] - t,))
    for a in b.coefficients:
        assert_rows_equal_points(a, X, T)


@pytest.mark.parametrize("make", [
    lambda alg: field_from_spec(alg, SIX_FORMS),
    lambda alg: counterexample_field(alg, "time"),
    lambda alg: counterexample_field(alg, "autonomous"),
    lambda alg: frame_field(alg, (lambda t, x: 0.0, lambda t, x: x[..., 1] * t), (2, 3)),
])
def test_evaluate_field_rows_equal_point_calls(heis, make):
    b = make(heis)
    X, T = contract_rows(3)
    rows = evaluate_field(b, T, X)
    assert rows.shape == X.shape
    assert np.array_equal(rows, [evaluate_field(b, t, x) for t, x in zip(T.tolist(), X)])


def test_frame_values_rows_equal_point_calls(heis):
    X, _ = contract_rows(3)
    for f in left_invariant_frame(heis) + left_invariant_frame(FILIFORM):
        x = X if f.rows[0].nvars == 3 else contract_rows(4)[0]
        assert np.array_equal(f.value(x), [f.value(row) for row in x])
