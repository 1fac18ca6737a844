import math
from fractions import Fraction

import numpy as np
import pytest

from horoflow.counterexample import counterexample_field
from horoflow.fields import (HorizontalField, NonHorizontalDerivationError, TestFunction,
                             apply_derivation, compute_p, coordinate_function, derivation_of,
                             evaluate_field, field_from_spec, horizontal_field,
                             horizontal_gradient, left_invariant_frame, recover_coefficients,
                             translated_coordinate_functions)
from horoflow.gauges import distance_to_axis, distance_to_axis_point, koranyi_norm
from horoflow.groups import GradedAlgebra
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
    b = counterexample_field("time")
    assert np.allclose(evaluate_field(b, 0.0, np.zeros(3)), [1, 0, 0])

    zero = horizontal_field(heis, (lambda t, x: 0.0, lambda t, x: 0.0))
    assert np.allclose(evaluate_field(zero, 1.0, np.array([2.0, 3, 4])), 0)

    x2_only = horizontal_field(heis, (lambda t, x: 0.0, lambda t, x: 1.0))
    assert np.allclose(evaluate_field(x2_only, 0.0, np.array([1.0, 0, 0])), [0, 1, 1])


def test_field_horizontality_flag(heis):
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 0.0))
    assert b.is_horizontal
    g = HorizontalField(heis, (lambda t, x: 1.0,), (3,))
    assert not g.is_horizontal
    with pytest.raises(ValueError):
        horizontal_field(heis, (lambda t, x: 1.0,))
    with pytest.raises(ValueError):
        HorizontalField(heis, (lambda t, x: 1.0,), (7,))


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


def test_derivation_at_a_time_is_the_gradient_against_that_velocity(heis):
    # D f(x) reads the coefficients at the derivation's time: it is grad f
    # against the velocity the flow integrates at t = 0.5, bit for bit
    b = horizontal_field(heis, (lambda t, x: 1.0 + t * x[..., 1],
                                lambda t, x: np.cos(t + x[..., 0])))
    f = TestFunction(lambda x: math.sin(x[0]) + x[1] * x[2],
                     lambda x: np.array([math.cos(x[0]), x[2], x[1]]))
    x = np.array([0.7, -0.2, 1.4])
    got = derivation_of(b, 0.5)(f, x)
    assert got == float(np.dot(f.gradient(x), evaluate_field(b, 0.5, x)))
    assert got != derivation_of(b)(f, x)


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


def test_derivation_just_off_horizontal_is_rejected(heis):
    # D f = grad f . (1, 0.5, 5e-8) at the origin, where the translated
    # coordinates are the coordinates: the third reads 5e-8, five times
    # HORIZONTAL_TOL at the bound scale 1
    from horoflow.fields import HORIZONTAL_TOL, Derivation

    v = np.array([1.0, 0.5, 5.0 * HORIZONTAL_TOL])
    D = Derivation(heis, action=lambda f, x: float(np.asarray(f.gradient(x)) @ v),
                   bound=lambda x: 1.0)
    with pytest.raises(NonHorizontalDerivationError, match="component 3 reads 5.000e-08"):
        recover_coefficients(D, np.zeros(3))
    v[2] = 0.5 * HORIZONTAL_TOL
    assert recover_coefficients(D, np.zeros(3)).tolist() == [1.0, 0.5]


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


def test_third_coordinate_not_uniformly_lipschitz(heis, heis_dist):
    # (0,0,-H)^{-1} (0,0,H) = (0,0,2H), whose quartic gauge is sqrt(2H); so
    # on the pair (0,0,+-H) the ratio |2H| / d = sqrt(2H) grows without bound
    ratios = []
    for H in (1.0, 16.0, 256.0):
        p, q = np.array([0.0, 0.0, H]), np.array([0.0, 0.0, -H])
        assert heis_dist(p, q) == math.sqrt(2.0 * H)
        ratios.append(abs(p[2] - q[2]) / heis_dist(p, q))
        assert ratios[-1] == pytest.approx(math.sqrt(2.0 * H), rel=1e-15)
    assert ratios[0] < ratios[1] < ratios[2]


def test_frame_domination_constants(heis):
    # |p_i^j(x)| <= C ||x||^(d_j - d_i); on the Heisenberg preset the
    # off-diagonal rows are +-x_1, +-x_2, and |x_k| <= N(x), so C = 1
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
    assert b2.coefficients[1](0.3, x) == pytest.approx(distance_to_axis_point(0.3, x))

    spec3 = {"coefficients": [{"form": "sin_coordinate", "index": 1}], "indices": [1]}
    b3 = field_from_spec(heis, spec3)
    assert b3.coefficients[0](0.0, x) == pytest.approx(math.sin(0.5))

    spec4 = {"coefficients": [{"form": "axis_distance_inf"}], "indices": [2]}
    b4 = field_from_spec(heis, spec4)
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
    b = counterexample_field(variant)
    X, T = contract_rows(3)
    for a in b.coefficients:
        assert_rows_equal_points(a, X, T)


def test_module_field_rows_equal_point_calls(heis):
    from horoflow.uniqueness import check_involutive, module_field

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
    lambda alg: counterexample_field("time"),
    lambda alg: counterexample_field("autonomous"),
    lambda alg: HorizontalField(alg, (lambda t, x: 0.0, lambda t, x: x[..., 1] * t), (2, 3)),
])
def test_evaluate_field_rows_equal_point_calls(heis, make):
    b = make(heis)
    X, T = contract_rows(3)
    rows = evaluate_field(b, T, X)
    assert rows.shape == X.shape
    assert np.array_equal(rows, [evaluate_field(b, t, x) for t, x in zip(T.tolist(), X)])


@pytest.mark.parametrize("coefficients", [
    (lambda t, x: 1.5, lambda t, x: 0.0),  # a number, and a zero skipped by points
    (lambda t, x: 0.0, lambda t, x: -0.0),  # every column a number
    (lambda t, x: 0.0 * x[..., 0], lambda t, x: -2.0),  # zeros of either sign per row
])
def test_evaluate_field_rows_with_number_and_zero_coefficients(heis, coefficients):
    b = horizontal_field(heis, coefficients)
    X, T = contract_rows(3)
    rows = evaluate_field(b, T, X)
    points = np.array([evaluate_field(b, t, x) for t, x in zip(T.tolist(), X)])
    # tobytes tells -0.0 from 0.0, which array_equal does not
    assert rows.shape == points.shape and rows.tobytes() == points.tobytes()


def test_frame_values_rows_equal_point_calls(heis):
    X, _ = contract_rows(3)
    for f in left_invariant_frame(heis) + left_invariant_frame(FILIFORM):
        x = X if f.rows[0].nvars == 3 else contract_rows(4)[0]
        assert np.array_equal(f.value(x), [f.value(row) for row in x])
