import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from horoflow.gates import InputError
from horoflow.groups import (AlgebraValidationError, GradedAlgebra, algebra_from_json, heisenberg,
                             inverse, json_point)
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
    assert alg.ring_bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 2]


def test_bracket_antisymmetry_and_grading(heis, rng):
    X = rng.uniform(-5, 5, 3).tolist()
    assert np.allclose(heis.ring_bracket(X, X), 0)
    # d_3 + d_1 exceeds the step, so the bracket vanishes
    assert np.allclose(heis.ring_bracket([0, 0, 1], [1, 0, 0]), 0)
    Y = rng.uniform(-5, 5, 3).tolist()
    assert np.allclose(heis.ring_bracket(X, Y), np.negative(heis.ring_bracket(Y, X)))


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
        assert np.array_equal(alg.ring_bracket(X.tolist(), Y.tolist()), [float(v) for v in exact])
    # the same bracket over polynomials, evaluated at the last pair; a
    # coordinate no structure constant reaches comes back as the integer 0
    q = alg.dim
    sym = alg.ring_bracket([Poly.variable(2 * q, i) for i in range(q)],
                           [Poly.variable(2 * q, q + i) for i in range(q)])
    assert [(Poly.zero(2 * q) + p).evaluate_exact([*X, *Y]) for p in sym] == exact


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


def filiform(step):
    """[e1, e_k] = e_(k+1) for k = 2, ..., step: one generator of each degree above 1."""
    return ((2,) + (1,) * (step - 1), {(0, k): {k + 1: 1} for k in range(1, step)})


# the recursion's Bernoulli term B_2p first changes the law at step 2p + 2:
# at step 2p + 1 it is [Z_1, [... [Z_1, x + y]...]] = 0, as Z_1 = x + y
ORACLE_ALGEBRAS = {"heisenberg": ((2, 1), {(0, 1): {2: 2}}),
                   **{f"filiform-{s}": filiform(s) for s in range(3, 8)},
                   "3-1-1": THREE_ONE_ONE}
STEP_AT_MOST_4 = ["heisenberg", "filiform-3", "filiform-4", "3-1-1"]


def exact_samples(q, count, seed):
    """``count`` seeded triples of rational elements of length ``q``."""
    rng = np.random.default_rng(seed)
    return [[[Fraction(int(n), 4) for n in v] for v in triple]
            for triple in rng.integers(-8, 9, (count, 3, q))]


def exact_product(alg, x, y):
    return [p.evaluate_exact([*x, *y]) for p in alg.law]


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_law_is_a_group_law_with_one_parameter_subgroups_exactly(name):
    # associativity, the identity, inverse by negation and (sx)(tx) = (s+t)x,
    # together with the quadratic term x + y + [x,y]/2, fix the law in
    # exponential coordinates; every identity is checked in exact arithmetic
    alg = GradedAlgebra(*ORACLE_ALGEBRAS[name])
    q = alg.dim
    X = [Poly.variable(2 * q, i) for i in range(q)]
    Y = [Poly.variable(2 * q, q + i) for i in range(q)]
    quadratic = [Poly(2 * q, {e: c for e, c in p.terms.items() if sum(e) <= 2}) for p in alg.law]
    assert quadratic == [a + b + c * Fraction(1, 2)
                         for a, b, c in zip(X, Y, alg.ring_bracket(X, Y))]
    scales = np.random.default_rng(1).integers(-6, 7, (10, 2))
    for (x, y, z), (s, t) in zip(exact_samples(q, 10, seed=0), scales):
        assert exact_product(alg, exact_product(alg, x, y), z) \
            == exact_product(alg, x, exact_product(alg, y, z))
        assert exact_product(alg, x, [0] * q) == x
        assert exact_product(alg, x, [-c for c in x]) == [0] * q
        s, t = Fraction(int(s), 3), Fraction(int(t), 3)
        assert exact_product(alg, [s * c for c in x], [t * c for c in x]) \
            == [(s + t) * c for c in x]


@pytest.mark.parametrize("name", STEP_AT_MOST_4)
def test_law_is_the_bch_series_up_to_step_four(name):
    # log(exp x exp y) through commutator length 4, by ring_bracket over fractions
    alg = GradedAlgebra(*ORACLE_ALGEBRAS[name])
    assert alg.step <= 4
    br = alg.ring_bracket
    for x, y, _ in exact_samples(alg.dim, 10, seed=2):
        xy = br(x, y)
        bch = [a + b + Fraction(1, 2) * c + Fraction(1, 12) * (d - e) - Fraction(1, 24) * f
               for a, b, c, d, e, f in zip(x, y, xy, br(x, xy), br(y, xy), br(y, br(x, xy)))]
        assert exact_product(alg, x, y) == bch


def test_construction_rejects_bad_antisymmetry():
    with pytest.raises(AlgebraValidationError, match="antisymmetry"):
        GradedAlgebra((2, 1), {(0, 1): {2: 2}, (1, 0): {2: 2}})
    with pytest.raises(AlgebraValidationError, match="antisymmetry"):
        GradedAlgebra((2, 1), {(0, 0): {2: 1}})
    # a pair given in both orientations must agree, whichever comes first
    for pairs in ([((0, 1), {}), ((1, 0), {2: 1})], [((1, 0), {2: 1}), ((0, 1), {})]):
        with pytest.raises(AlgebraValidationError, match="antisymmetry"):
            GradedAlgebra((2, 1), dict(pairs))


def test_pair_in_both_orientations(heis):
    assert GradedAlgebra((2, 1), {(0, 1): {2: 2}, (1, 0): {2: -2}})._pairs == heis._pairs
    assert GradedAlgebra((2, 1), {(1, 0): {2: -2}})._pairs == heis._pairs
    # zero constants given both ways: no bracket at all
    assert GradedAlgebra((2, 1), {(0, 1): {2: 0}, (1, 0): {}})._pairs == {}


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


def free_step2(n):
    """The free step-2 algebra on n generators: [e_i, e_j] = e_(i,j), i < j."""
    pairs = itertools.combinations(range(n), 2)
    return (n, n * (n - 1) // 2), {pair: {n + k: 1} for k, pair in enumerate(pairs)}


@pytest.mark.parametrize("layers, brackets", [((40,), None), free_step2(12)],
                         ids=["abelian-40", "free-step2-12"])
def test_jacobi_check_visits_only_triples_holding_a_bracket(monkeypatch, layers, brackets):
    # a triple none of whose pairs brackets to nonzero has a zero cyclic sum,
    # so an abelian algebra is checked without computing one bracket; the
    # cyclic sums of the rest are read from the structure constants, so the
    # free algebra (dimension 78, 4,576 triples) makes no ring_bracket call
    calls = []
    ring_bracket = GradedAlgebra.ring_bracket
    monkeypatch.setattr(GradedAlgebra, "ring_bracket",
                        lambda self, X, Y: calls.append(1) or ring_bracket(self, X, Y))
    GradedAlgebra(layers, brackets)
    assert calls == []


def test_json_roundtrip_and_validation(heis):
    data = {"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2}]}]}
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


def test_json_refuses_a_repeated_coefficient_k():
    # the second entry for k = 3 would silently replace the first
    with pytest.raises(AlgebraValidationError,
                       match=r"duplicate coefficient k = 3 in bracket \(1,2\)"):
        algebra_from_json({"layers": [2, 1], "brackets": [
            {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 1}, {"k": 3, "c": 2}]}]})


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


def test_multiply_batch_edges_equal_multiply_bit_for_bit(heis):
    X = np.random.default_rng(13).uniform(-3.0, 3.0, (50, 3))
    X[0] = 0.0
    X[1] = -0.0
    X[2, 1:] = -0.0
    g = np.array([-0.5, -0.0, 1.25])

    def same(rows, want):
        want = np.array(want)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()

    same(heis.multiply_batch(g, X), [heis.multiply(g, x) for x in X])
    same(heis.multiply_batch(X, g), [heis.multiply(x, g) for x in X])
    same(heis.multiply_batch(g[None], X), [heis.multiply(g, x) for x in X])
    same(heis.multiply_batch(X, g[None]), [heis.multiply(x, g) for x in X])
    same(heis.multiply_batch(g[None], X[:1]), [heis.multiply(g, X[0])])
    same(heis.multiply_batch(X[1], g[None]), [heis.multiply(X[1], g)])
    same(heis.multiply_batch(X[:0], g), np.empty((0, 3)))


@pytest.mark.parametrize("shapes", [
    ((3,), (3,)),  # two elements: that is multiply
    ((4, 3), (5, 3)),  # row counts differ
    ((2, 4, 3), (3,)),
    ((4, 3), (2,)),
    ((2,), (4, 3)),
    ((4, 2), (4, 3)),
])
def test_multiply_batch_refuses_shapes_without_one_row_count(heis, shapes):
    X, Y = (np.ones(shape) for shape in shapes)
    with pytest.raises(ValueError):
        heis.multiply_batch(X, Y)


def test_json_point_reads_a_list_or_tuple_of_finite_numbers():
    assert json_point([1, 2.5, -0.0], 3, "p") == (1.0, 2.5, -0.0)
    assert json_point((1, 2), 2, "p") == (1.0, 2.0)
    for value, message in ((None, "p: expected a list of 2 numbers, not None"),
                           ([1, 2, 3], "p: expected a list of 2 numbers, not [1, 2, 3]"),
                           ([1, float("inf")], "p: expected a finite number, not inf"),
                           ([1, True], "p: expected a finite number, not True")):
        with pytest.raises(InputError) as info:
            json_point(value, 2, "p")
        assert str(info.value) == message
