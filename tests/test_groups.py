from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from horoflow import (AlgebraValidationError, GradedAlgebra, algebra_from_json,
                      algebra_to_json, heisenberg, inverse)
from horoflow.poly import Poly

coords = st.floats(-10, 10, allow_nan=False)
vec3 = st.tuples(coords, coords, coords).map(np.array)


def closed_form_product(x, y):
    return np.array([
        x[0] + y[0],
        x[1] + y[1],
        x[2] + y[2] + x[0] * y[1] - x[1] * y[0],
    ])


def test_heisenberg_metadata(heis):
    assert heis.degrees == (1, 1, 2)
    assert heis.step == 2
    assert heis.layer_dims == (2, 1)
    assert heis.dim == 3


def test_bracket_constant_forced_by_printed_law():
    # Oracle: in a step-2 algebra the product is x + y + [x,y]/2 exactly, so
    # the printed third component x3 + y3 + (x1 y2 - x2 y1) forces
    # [e1, e2] = 2 e3.  Check symbolically for both candidate constants.
    expected_third = Poly(6, {
        (0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1,
        (1, 0, 0, 0, 1, 0): 1, (0, 1, 0, 1, 0, 0): -1,
    })
    for c, should_match in ((1, False), (2, True)):
        alg = GradedAlgebra((2, 1), {(0, 1): {2: c}})
        assert (alg.law[2] == expected_third) is should_match
    alg = heisenberg()
    assert alg.law[2] == expected_third
    assert np.allclose(alg.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 2])


def test_bracket_antisymmetry_and_grading(heis, rng):
    X = rng.uniform(-5, 5, 3)
    assert np.allclose(heis.bracket(X, X), 0)
    # d_3 + d_1 exceeds the step, so the bracket vanishes
    assert np.allclose(heis.bracket([0, 0, 1], [1, 0, 0]), 0)
    Y = rng.uniform(-5, 5, 3)
    assert np.allclose(heis.bracket(X, Y), -heis.bracket(Y, X))


FILIFORM = ((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
# layers (3,1,1) with every bracket allowed by the grading; Jacobi on
# (e1, e2, e3) reads [e2,e3]*[e1,e4] - [e1,e3]*[e2,e4] + [e1,e2]*[e3,e4]
# = 3*1 - 2*3 + 1*3 = 0
THREE_ONE_ONE = ((3, 1, 1), {(0, 1): {3: 1}, (0, 2): {3: 2}, (1, 2): {3: 3},
                             (0, 3): {4: 1}, (1, 3): {4: 3}, (2, 3): {4: 3}})


@pytest.mark.parametrize("layers, brackets",
                         [((2, 1), {(0, 1): {2: 2}}), FILIFORM, THREE_ONE_ONE],
                         ids=["heisenberg", "filiform", "3-1-1"])
def test_float_bracket_is_the_exact_bracket(layers, brackets):
    # eighths with small numerators keep every float operation exact, so the
    # float bracket must equal the rational one converted to float
    alg = GradedAlgebra(layers, brackets)
    rng = np.random.default_rng(5)
    for X, Y in rng.integers(-16, 17, (20, 2, alg.dim)) / 8:
        exact = alg.ring_bracket([Fraction(x) for x in X], [Fraction(y) for y in Y])
        assert np.array_equal(alg.bracket(X, Y), [float(v) for v in exact])
    # the same bracket over polynomials, evaluated at the last pair; a
    # coordinate no structure constant reaches comes back as the integer 0
    q = alg.dim
    sym = alg.ring_bracket([Poly.variable(2 * q, i) for i in range(q)],
                           [Poly.variable(2 * q, q + i) for i in range(q)])
    assert [(Poly.zero(2 * q) + p).evaluate_exact([*X, *Y]) for p in sym] == exact


def test_bracket_dimension_mismatch(heis):
    with pytest.raises(ValueError):
        heis.bracket([1, 0], [0, 1, 0])


def test_bch_printed_examples(heis):
    assert np.allclose(heis.multiply([1, 0, 0], [0, 1, 0]), [1, 1, 1])
    x = np.array([2.0, -1.0, 0.5])
    assert np.allclose(heis.multiply(x, np.zeros(3)), x)
    assert np.max(np.abs(heis.multiply(x, inverse(x)))) <= 1e-12


def test_heisenberg_law_on_thousand_pairs(heis):
    rng = np.random.default_rng(7)
    X = rng.uniform(-10, 10, (1000, 3))
    Y = rng.uniform(-10, 10, (1000, 3))
    prod = heis.multiply_batch(X, Y)
    closed = np.column_stack([
        X[:, 0] + Y[:, 0],
        X[:, 1] + Y[:, 1],
        X[:, 2] + Y[:, 2] + X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0],
    ])
    assert np.max(np.abs(prod - closed)) <= 1e-12


@given(vec3, vec3, vec3)
def test_associativity(x, y, z):
    alg = heisenberg()
    lhs = alg.multiply(alg.multiply(x, y), z)
    rhs = alg.multiply(x, alg.multiply(y, z))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@given(vec3, st.integers(-3, 3), st.integers(-3, 3))
def test_dilation_composition_exact_on_dyadic_scales(x, a, b):
    # scaling by 2**k is exact unless it underflows into the subnormals
    assume(np.all((x == 0.0) | (np.abs(x) >= 1e-300)))
    alg = heisenberg()
    r, s = 2.0**a, 2.0**b
    assert np.array_equal(alg.dilate(r, alg.dilate(s, x)), alg.dilate(r * s, x))


@given(vec3, st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_dilation_composition_general(x, r, s):
    alg = heisenberg()
    got = alg.dilate(r, alg.dilate(s, x))
    want = alg.dilate(r * s, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@given(vec3, vec3, st.floats(0.25, 2.0))
def test_dilation_is_group_automorphism(x, y, r):
    alg = heisenberg()
    lhs = alg.dilate(r, alg.multiply(x, y))
    rhs = alg.multiply(alg.dilate(r, x), alg.dilate(r, y))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_dilate_examples(heis):
    assert np.allclose(heis.dilate(2.0, [1, 1, 1]), [2, 2, 4])
    x = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(heis.dilate(1.0, x), x)
    with pytest.raises(ValueError):
        heis.dilate(0.0, x)
    with pytest.raises(ValueError):
        heis.dilate(-1.0, x)


def test_inverse_examples():
    assert np.array_equal(inverse([1.0, 2.0, 3.0]), [-1.0, -2.0, -3.0])
    assert np.array_equal(inverse(np.zeros(3)), np.zeros(3))


def test_dilate_rows_by_one_scale_or_one_scale_each(heis):
    X = np.array([[1.0, 1.0, 1.0], [0.5, -2.0, 3.0]])
    assert np.array_equal(heis.dilate(2.0, X), [[2, 2, 4], [1, -4, 12]])
    assert np.array_equal(heis.dilate([2.0, 0.5], X), [[2, 2, 4], [0.25, -1, 0.75]])
    with pytest.raises(ValueError):
        heis.dilate([2.0, 0.0], X)


def test_step3_filiform_associativity():
    fil = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, (50, 4))
    Y = rng.uniform(-2, 2, (50, 4))
    Z = rng.uniform(-2, 2, (50, 4))
    lhs = fil.multiply_batch(fil.multiply_batch(X, Y), Z)
    rhs = fil.multiply_batch(X, fil.multiply_batch(Y, Z))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_construction_rejects_bad_antisymmetry():
    with pytest.raises(AlgebraValidationError, match="antisymmetry"):
        GradedAlgebra((2, 1), {(0, 1): {2: 2}, (1, 0): {2: 2}})
    with pytest.raises(AlgebraValidationError, match="antisymmetry"):
        GradedAlgebra((2, 1), {(0, 0): {2: 1}})


def test_construction_rejects_bad_grading():
    # target degree 1 for a bracket of two degree-1 elements
    with pytest.raises(AlgebraValidationError, match="grading"):
        GradedAlgebra((2, 1), {(0, 1): {0: 1}})
    # bracket beyond the step
    with pytest.raises(AlgebraValidationError, match="grading"):
        GradedAlgebra((2, 1), {(0, 2): {1: 1}})


def test_construction_rejects_jacobi_violation():
    # layers (3,1,1): with [e1,e2]=e4, [e1,e4]=e5, [e2,e4]=e5 the triple
    # (e1,e2,e3) is fine, but adding [e3,e4]=e5 breaks Jacobi on (1,2,3)
    good = {(0, 1): {3: 1}, (0, 3): {4: 1}, (1, 3): {4: 1}}
    GradedAlgebra((3, 1, 1), good)  # sanity: this one is a Lie algebra
    bad = dict(good)
    bad[(2, 3)] = {4: 1}
    with pytest.raises(AlgebraValidationError) as exc:
        GradedAlgebra((3, 1, 1), bad)
    assert str(exc.value) == ("Jacobi identity violated on basis triple (0,1,2): "
                              "residual {4: '1'}")


def test_jacobi_accepts_float_constants_up_to_rounding():
    # layers (3,1,1): Jacobi on (e1, e2, e3) reads c p - b q + a r = 0, which
    # the float r = b q - c p meets only up to rounding
    b, q, c, p = 0.7, 0.3, 0.1, 0.9

    def algebra(r):
        return GradedAlgebra((3, 1, 1), {(0, 1): {3: 1.0}, (0, 2): {3: b}, (1, 2): {3: c},
                                         (0, 3): {4: p}, (1, 3): {4: q}, (2, 3): {4: r}})

    r = b * q - c * p
    residual = Fraction(c) * Fraction(p) - Fraction(b) * Fraction(q) + Fraction(r)
    assert 0 < abs(residual) < 1e-16
    algebra(r)
    with pytest.raises(AlgebraValidationError, match=r"Jacobi identity violated on basis "
                                                     r"triple \(0,1,2\): residual \{4: "):
        algebra(r + 1e-6)


def test_json_roundtrip_and_validation(heis):
    data = algebra_to_json(heis)
    again = algebra_from_json(data)
    assert again.layer_dims == heis.layer_dims
    assert np.allclose(
        again.multiply(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])), [1, 1, 1]
    )
    with pytest.raises(AlgebraValidationError, match="antisymmetry"):
        algebra_from_json({
            "layers": [2, 1],
            "brackets": [
                {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2}]},
                {"i": 2, "j": 1, "coeffs": [{"k": 3, "c": 2}]},
            ],
        })
    with pytest.raises(AlgebraValidationError):
        algebra_from_json({"brackets": []})


def test_multiply_batch_rows_equal_multiply(heis):
    fil = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})
    rng = np.random.default_rng(12)
    for alg in (heis, fil):
        X = rng.uniform(-10, 10, (200, alg.dim))
        Y = rng.uniform(-10, 10, (200, alg.dim))
        rows = alg.multiply_batch(X, Y)
        assert all(np.array_equal(r, alg.multiply(x, y)) for r, x, y in zip(rows, X, Y))
        # a single element multiplies every row
        tiled = np.tile(X[0], (200, 1))
        assert np.array_equal(alg.multiply_batch(X[0], Y), alg.multiply_batch(tiled, Y))
