"""Left-invariant frames, horizontal vector fields and derivations.

The left-invariant field with value e_i at the origin has polynomial
coefficients in graded coordinates, read exactly off the symbolic group law
x * y as its terms linear in y_i and free of the other y's.  A horizontal
field is a combination of the first-layer frame fields with scalar
coefficient functions; it induces a derivation on test functions, and
conversely the coefficients can be recovered from the derivation by
applying it to left-translated coordinate functions.

A coefficient is a pure function (t, x) -> value, where x is one point
(dim,) or an (n, dim) array of rows and t a number or an (n,) array; written
with x[..., i] and numpy functions, one formula serves both.  On rows it
returns one value per row (or one number for all), each equal to the point
call on that row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .domain import Box
from .gauges import HomogeneousDistance, default_distance
from .groups import GradedAlgebra, inverse, is_heisenberg
from .poly import Poly, evaluator

CoefficientFn = Callable[[object, np.ndarray], object]  # see the module docstring


@dataclass(frozen=True)
class LeftInvariantField:
    """Row of coefficient polynomials of one left-invariant frame field.

    ``rows[j]`` multiplies the j-th coordinate direction; the identity block
    (degree of target <= degree of index) is exactly the Kronecker delta and
    every other entry is a homogeneous polynomial of weighted degree
    d_j - d_i.
    """

    index: int  # 1-based basis index
    rows: tuple  # tuple[Poly, ...]

    @cached_property
    def _eval(self):
        """Float evaluator of the rows: ``_eval(*x)`` gives the field's coordinates at x."""
        return evaluator(self.rows)

    def value(self, x: Sequence[float]) -> np.ndarray:
        """The field at one point, or at each row of an (n, dim) array."""
        x = np.asarray(x, dtype=float)
        return np.stack([np.broadcast_to(v, x.shape[:-1]) for v in self._eval(*x.T)], axis=-1)


def compute_p(alg: GradedAlgebra, i: int) -> LeftInvariantField:
    """Coefficient polynomials of the left-invariant field with value e_i at 0."""
    q = alg.dim
    if not 1 <= i <= q:
        raise ValueError(f"basis index {i} out of range 1..{q}")
    # d/dy_i of x^a y^b at y = 0 vanishes unless b is the unit exponent of y_i
    unit_i = tuple(int(k == i - 1) for k in range(q))
    rows = tuple(Poly(q, {e[:q]: c for e, c in row.terms.items() if e[q:] == unit_i})
                 for row in alg.law)
    return LeftInvariantField(index=i, rows=rows)


def left_invariant_frame(alg: GradedAlgebra) -> tuple:
    """All q frame fields, computed once per algebra."""
    if "frame" not in alg._cache:
        alg._cache["frame"] = tuple(compute_p(alg, i) for i in range(1, alg.dim + 1))
    return alg._cache["frame"]


# --------------------------------------------------------------------------- fields


@dataclass(frozen=True)
class HorizontalField:
    """Vector field sum_i a_i(t, x) X_i over a subset of frame indices.

    ``indices`` are 1-based; the default constructor restricts them to the
    first layer, which is what makes the field horizontal.  Coefficients
    follow the contract in the module docstring.
    """

    algebra: GradedAlgebra
    coefficients: tuple
    indices: tuple

    def __post_init__(self):
        if len(self.coefficients) != len(self.indices):
            raise ValueError("one coefficient function per frame index")
        q = self.algebra.dim
        for i in self.indices:
            if not 1 <= i <= q:
                raise ValueError(f"frame index {i} out of range 1..{q}")

    @property
    def is_horizontal(self) -> bool:
        return all(i <= self.algebra.horizontal_dim for i in self.indices)

    @cached_property
    def _frame_rows(self) -> tuple:
        """Float evaluator of the frame field X_i of each coefficient."""
        frame = left_invariant_frame(self.algebra)
        return tuple(frame[i - 1]._eval for i in self.indices)


def horizontal_field(
    alg: GradedAlgebra,
    coefficients: Sequence[CoefficientFn],
) -> HorizontalField:
    """Field over the full first-layer frame (one coefficient per X_1..X_m)."""
    m = alg.horizontal_dim
    if len(coefficients) != m:
        raise ValueError(f"expected {m} coefficients for the first layer")
    return HorizontalField(alg, tuple(coefficients), tuple(range(1, m + 1)))


def frame_field(
    alg: GradedAlgebra,
    coefficients: Sequence[CoefficientFn],
    indices: Sequence[int],
) -> HorizontalField:
    """General frame combination; not necessarily horizontal."""
    return HorizontalField(alg, tuple(coefficients), tuple(int(i) for i in indices))


def evaluate_field(b: HorizontalField, t, x: Sequence[float]) -> np.ndarray:
    """Coordinate velocity sum_i a_i(t, x) * (frame row of X_i at x).

    ``x`` is one point, evaluated on Python floats, or (n, dim) rows; each
    result row equals the point call on that row, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    out = [0.0] * b.algebra.dim
    if x.ndim == 1:
        xs = x.tolist()
        for a, row in zip(b.coefficients, b._frame_rows):
            ai = float(a(t, x))
            if ai != 0.0:
                out = [o + ai * v for o, v in zip(out, row(*xs))]
        return np.array(out)
    # a zero coefficient adds a signed zero here where the point call skips
    # it; the sums start at +0.0, so the results agree
    for a, row in zip(b.coefficients, b._frame_rows):
        ai = a(t, x)
        out = [o + ai * v for o, v in zip(out, row(*x.T))]
    return np.stack([np.broadcast_to(o, len(x)) for o in out], axis=1)


# --------------------------------------------------------------------------- derivations


@dataclass(frozen=True)
class TestFunction:
    """Smooth scalar function supplied with its coordinate partial derivatives."""

    __test__ = False  # the mathematical kind, not the pytest kind

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Derivation:
    """Linear action on test functions, bounded by h(x) |horizontal gradient|."""

    algebra: GradedAlgebra
    action: Callable[[TestFunction, np.ndarray], float]
    bound: Callable[[np.ndarray], float]

    def __call__(self, f: TestFunction, x: Sequence[float]) -> float:
        return self.action(f, np.asarray(x, dtype=float))


def apply_derivation(
    b: HorizontalField, f: TestFunction, x: Sequence[float], t: float = 0.0
) -> float:
    """Directional derivative sum_i a_i(x) X_i f (x)."""
    x = np.asarray(x, dtype=float)
    frame = left_invariant_frame(b.algebra)
    xs = x.tolist()
    grad = np.asarray(f.gradient(x), dtype=float).tolist()
    total = 0.0
    for a, i in zip(b.coefficients, b.indices):
        ai = a(t, x)
        if ai != 0.0:
            total += ai * sum(g * v for g, v in zip(grad, frame[i - 1]._eval(*xs)))
    return total


def derivation_of(b: HorizontalField, t: float = 0.0) -> Derivation:
    if not b.is_horizontal:
        raise ValueError("only horizontal fields induce bounded derivations")

    def act(f: TestFunction, x: np.ndarray) -> float:
        return apply_derivation(b, f, x, t)

    def bound(x: np.ndarray) -> float:
        return float(math.sqrt(sum(a(t, x) ** 2 for a in b.coefficients)))

    return Derivation(b.algebra, act, bound)


def horizontal_gradient(alg: GradedAlgebra, f: TestFunction, x: Sequence[float]) -> np.ndarray:
    """(X_1 f, ..., X_m f) at x."""
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    grad = np.asarray(f.gradient(x), dtype=float).tolist()
    return np.array([
        sum(g * v for g, v in zip(grad, field._eval(*xs)))
        for field in left_invariant_frame(alg)[:alg.horizontal_dim]
    ])


def coordinate_function(alg: GradedAlgebra, j: int) -> TestFunction:
    """The j-th coordinate as a test function (1-based)."""
    q = alg.dim
    ej = np.zeros(q)
    ej[j - 1] = 1.0
    return TestFunction(lambda x: float(x[j - 1]), lambda x, _e=ej: _e)


def translated_coordinate_functions(alg: GradedAlgebra, xbar: Sequence[float]) -> list:
    """Coordinate functions composed with left translation by xbar^{-1}.

    These satisfy X_i(f_j)(xbar) = delta_ij, which is what makes coefficient
    recovery at xbar a plain readout.
    """
    q = alg.dim
    xbar_inv = inverse(xbar)
    # jacobian(*xbar_inv, *x)[j*q + k] is the y_k-derivative of the j-th product coordinate
    jacobian = evaluator([p.diff(q + k) for p in alg.law for k in range(q)])

    def make(j):
        def val(x):
            return float(alg.multiply(xbar_inv, x)[j])

        def grad(x):
            values = jacobian(*xbar_inv.tolist(), *np.asarray(x, dtype=float).tolist())
            return np.array(values[j * q:(j + 1) * q])

        return TestFunction(val, grad)

    return [make(j) for j in range(q)]


class NonHorizontalDerivationError(ValueError):
    """The derivation does not annihilate non-horizontal directions at the point."""


def recover_coefficients(
    D: Derivation, xbar: Sequence[float], tol: float = 1e-8
) -> np.ndarray:
    """First-layer coefficients of the unique horizontal field inducing D.

    Applies D to the left-translated coordinate functions at xbar; the
    entries beyond the first layer must vanish (up to ``tol`` against the
    bound scale) or the derivation is not horizontal.
    """
    alg = D.algebra
    xbar = np.asarray(xbar, dtype=float)
    etas = translated_coordinate_functions(alg, xbar)
    values = np.array([D(eta, xbar) for eta in etas])
    m = alg.horizontal_dim
    scale = max(1.0, float(D.bound(xbar)))
    bad = np.abs(values[m:]) > tol * scale
    if np.any(bad):
        k = int(np.argmax(np.abs(values[m:]))) + m + 1
        raise NonHorizontalDerivationError(
            f"derivation bound violated at the recovery point: component {k} "
            f"reads {values[k - 1]:.3e} where the horizontal gradient vanishes"
        )
    return values[:m]


# --------------------------------------------------------------------------- Lipschitz estimate


def estimate_lipschitz(
    a: Callable[[np.ndarray], float],
    dst: HomogeneousDistance,
    box: Box,
    samples: int,
    seed: int,
) -> float:
    """Sampled lower bound for the Lipschitz constant of ``a`` w.r.t. ``dst``.

    Draws ``samples`` independent pairs in the box; deterministic given the
    seed.  Being a max over finitely many ratios, the result never exceeds
    the true constant.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if box.dim != dst.algebra.dim:
        raise ValueError("box dimension does not match the algebra")
    rng = np.random.default_rng(seed)
    X = box.sample(rng, samples)
    Y = box.sample(rng, samples)
    d = dst.batch(X, Y)
    ok = d > 0
    gaps = np.abs([a(x) - a(y) for x, y in zip(X[ok], Y[ok])])
    return float(np.max(gaps / d[ok], initial=0.0))


# --------------------------------------------------------------------------- JSON field specs


def _finite(form: str, key: str, value) -> float:
    """``value`` as a finite float; else ValueError naming the form and key."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{form} {key} must be a finite number, not {value!r}")
    return v


def field_from_spec(alg: GradedAlgebra, spec: Mapping) -> HorizontalField:
    """Build a field from the JSON coefficient forms.

    Supported forms: ``constant``, ``monomial``, ``distance_to_point`` (in
    ``default_distance(alg)``), ``axis_distance`` (time-dependent distance
    to (t,0,0)), ``axis_distance_inf`` (distance to the whole first axis)
    and ``sin_coordinate``.  Anything richer requires the library API.  A
    non-object spec or entry, or a non-finite ``value``, ``scale`` or ``point``
    entry (or a ``point`` of the wrong length), raises ValueError.
    """
    # local import to avoid a cycle
    from .counterexample import distance_to_axis, distance_to_axis_point

    if not isinstance(spec, Mapping):
        raise ValueError(f"field spec must be an object, not {spec!r}")
    dst = default_distance(alg)
    coeffs = []
    for c in spec["coefficients"]:
        if not isinstance(c, Mapping):
            raise ValueError(f"coefficient entry must be an object, not {c!r}")
        form = c.get("form")
        if form == "constant":
            v = _finite(form, "value", c["value"])
            coeffs.append(lambda t, x, _v=v: _v)
        elif form == "monomial":
            expo = tuple(int(e) for e in c["exponents"])
            if len(expo) != alg.dim:
                raise ValueError("monomial exponents must have one entry per coordinate")
            scale = _finite(form, "scale", c.get("scale", 1.0))
            fn = evaluator([Poly(alg.dim, {expo: 1}) * scale])
            coeffs.append(lambda t, x, _f=fn: _f(*x.T)[0])
        elif form == "distance_to_point":
            point = np.asarray(c.get("point", np.zeros(alg.dim)), dtype=float)
            if point.shape != (alg.dim,) or not np.isfinite(point).all():
                raise ValueError(f"{form} point must be {alg.dim} finite numbers: {c['point']!r}")
            coeffs.append(lambda t, x, _p=point, _d=dst: _d(_p, x))
        elif form == "axis_distance":
            if not is_heisenberg(alg):
                raise ValueError("axis_distance form requires the Heisenberg preset")
            coeffs.append(distance_to_axis_point)
        elif form == "axis_distance_inf":
            if not is_heisenberg(alg):
                raise ValueError("axis_distance_inf form requires the Heisenberg preset")
            coeffs.append(lambda t, x: distance_to_axis(x))
        elif form == "sin_coordinate":
            idx = int(c.get("index", 1)) - 1
            if not 0 <= idx < alg.dim:
                raise ValueError(f"sin_coordinate index {idx + 1} out of range")
            scale = _finite(form, "scale", c.get("scale", 1.0))
            coeffs.append(lambda t, x, _i=idx, _s=scale: _s * np.sin(x.T[_i]))
        else:
            raise ValueError(f"unknown coefficient form {form!r}")
    indices = spec.get("indices")
    if indices is None:
        return horizontal_field(alg, coeffs)
    return frame_field(alg, coeffs, indices)
