"""Left-invariant frames, horizontal vector fields and derivations.

The left-invariant field with value e_i at the origin has polynomial
coefficients in graded coordinates, read exactly off the symbolic group law
x * y as its terms linear in y_i and free of the other y's.  A horizontal
field is a combination of the first-layer frame fields with scalar
coefficient functions; it induces a derivation on test functions, which are
exact polynomials (``Poly``): X_i f is polynomial arithmetic on the frame
rows, evaluated exactly and rounded once.  Conversely the coefficients are
read off the derivation applied to the left-translated coordinates, on
which the frame is exactly the Kronecker delta.

A coefficient is a pure function (t, x) -> value, where x is one point
(dim,) or an (n, dim) array of rows and t a number or an (n,) array; written
with x[..., i] and numpy functions, one formula serves both.  On rows it
returns one value per row (or one number for all), each equal to the point
call on that row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .gates import InputError
from .gauges import default_distance, distance_to_axis, distance_to_axis_point
from .groups import (GradedAlgebra, inverse, is_heisenberg, json_integer, json_number,
                     json_object, json_point)
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
            raise InputError("one coefficient function per frame index")
        q = self.algebra.dim
        for i in self.indices:
            if not 1 <= i <= q:
                raise InputError(f"frame index {i} out of range 1..{q}")

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
        raise InputError(f"expected {m} coefficients for the first layer")
    return HorizontalField(alg, tuple(coefficients), tuple(range(1, m + 1)))


# rows, at most, that ``evaluate_field`` evaluates one at a time on Python floats
# when t is one number: below the measured crossover with the array path (README)
POINT_ROWS = 6


def _point_velocity(b: HorizontalField, t, x: np.ndarray) -> list:
    """The velocity at one point x (dim,) on Python floats; a zero coefficient
    is skipped, and every sum starts at +0.0, as the rows path's do."""
    xs = x.tolist()
    out = None
    for a, row in zip(b.coefficients, b._frame_rows):
        ai = float(a(t, x))
        if ai != 0.0:
            if out is None:
                out = [0.0 + ai * v for v in row(*xs)]
            else:
                out = [o + ai * v for o, v in zip(out, row(*xs))]
    return [0.0] * b.algebra.dim if out is None else out


def evaluate_field(b: HorizontalField, t, x: Sequence[float]) -> np.ndarray:
    """Coordinate velocity sum_i a_i(t, x) * (frame row of X_i at x).

    ``x`` is one point, evaluated on Python floats, or (n, dim) rows; each
    result row equals the point call on that row, bit for bit.  With one
    number t, up to ``POINT_ROWS`` rows are evaluated as points, row by row.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(_point_velocity(b, t, x))
    if len(x) <= POINT_ROWS and np.ndim(t) == 0:
        rows = [_point_velocity(b, t, row) for row in x]
        return np.array(rows).reshape(len(x), b.algebra.dim)
    # a zero coefficient adds a signed zero here where the point call skips
    # it; the sums start at +0.0, so the results agree
    out = [0.0] * b.algebra.dim
    for a, row in zip(b.coefficients, b._frame_rows):
        ai = a(t, x)
        out = [o + ai * v for o, v in zip(out, row(*x.T))]
    rows = np.empty((len(x), len(out)))
    for j, o in enumerate(out):  # a number fills its whole column
        rows[:, j] = o
    return rows


# --------------------------------------------------------------------------- derivations


@dataclass(frozen=True)
class Derivation:
    """Linear action on polynomial test functions, bounded by h(x) |horizontal gradient|."""

    algebra: GradedAlgebra
    action: Callable[[Poly, np.ndarray], float]
    bound: Callable[[np.ndarray], float]

    def __call__(self, f: Poly, x: Sequence[float]) -> float:
        return self.action(f, np.asarray(x, dtype=float))


def frame_derivative(alg: GradedAlgebra, i: int, f: Poly) -> Poly:
    """X_i f = sum_j (row j of X_i) * df/dx_j, exactly (``i`` is 1-based)."""
    rows = left_invariant_frame(alg)[i - 1].rows
    return sum((row * f.diff(j) for j, row in enumerate(rows) if row), Poly.zero(alg.dim))


def apply_derivation(b: HorizontalField, f: Poly, x: Sequence[float], t: float = 0.0) -> float:
    """D f(x) = sum_i a_i(t, x) (X_i f)(x), each (X_i f)(x) exact and rounded once."""
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    return float(sum(float(a(t, x)) * float(frame_derivative(b.algebra, i, f).evaluate_exact(xs))
                     for a, i in zip(b.coefficients, b.indices)))


def derivation_of(b: HorizontalField, t: float = 0.0) -> Derivation:
    if not b.is_horizontal:
        raise ValueError("only horizontal fields induce bounded derivations")

    def bound(x: np.ndarray) -> float:
        return float(math.sqrt(sum(a(t, x) ** 2 for a in b.coefficients)))

    return Derivation(b.algebra, partial(apply_derivation, b, t=t), bound)


def horizontal_gradient(alg: GradedAlgebra, f: Poly, x: Sequence[float]) -> np.ndarray:
    """(X_1 f, ..., X_m f) at x, each exact and rounded once."""
    xs = np.asarray(x, dtype=float).tolist()
    return np.array([float(frame_derivative(alg, i, f).evaluate_exact(xs))
                     for i in range(1, alg.horizontal_dim + 1)])


def translated_coordinates(alg: GradedAlgebra, xbar: Sequence[float]) -> list:
    """The polynomials eta_j(x) = (xbar^{-1} x)_j: the law with x set to xbar^{-1}.

    xbar^{-1} = -xbar is exact, so X_i(eta_j)(xbar) = delta_ij holds exactly,
    which is what makes coefficient recovery at xbar a plain readout.
    """
    q = alg.dim
    z = [Fraction(v) for v in inverse(xbar).tolist()]
    etas = []
    for law_j in alg.law:
        terms: dict = {}
        for e, c in law_j.terms.items():
            terms[e[q:]] = terms.get(e[q:], 0) + c * math.prod(zk ** k for zk, k in zip(z, e[:q]))
        etas.append(Poly(q, terms))
    return etas


class NonHorizontalDerivationError(ValueError):
    """The derivation does not annihilate non-horizontal directions at the point."""


def recover_coefficients(D: Derivation, xbar: Sequence[float]) -> np.ndarray:
    """First-layer coefficients of the unique horizontal field inducing D.

    Applies D to the translated coordinates at xbar; an entry beyond the
    first layer that is not exactly 0 means the derivation is not horizontal.
    """
    alg = D.algebra
    xbar = np.asarray(xbar, dtype=float)
    values = np.array([D(eta, xbar) for eta in translated_coordinates(alg, xbar)])
    m = alg.horizontal_dim
    higher = np.abs(values[m:])
    if np.any(higher != 0.0):
        k = int(np.argmax(higher)) + m + 1
        raise NonHorizontalDerivationError(
            f"derivation bound violated at the recovery point: component {k} "
            f"reads {values[k - 1]:.3e} where the horizontal gradient vanishes"
        )
    return values[:m]


# --------------------------------------------------------------------------- JSON field specs

# largest exponent sum of a ``monomial`` spec: ``poly.evaluator`` writes a power as
# a product, and compile() recurses once per factor (past ~3,000 on Python 3.11)
MAX_MONOMIAL_DEGREE = 1000

# the keys each coefficient form reads
FORM_KEYS = {"constant": "form value", "monomial": "form exponents scale",
             "distance_to_point": "form point", "axis_distance": "form",
             "axis_distance_inf": "form", "sin_coordinate": "form index scale"}


def field_from_spec(alg: GradedAlgebra, spec: dict) -> HorizontalField:
    """Build a field from the JSON coefficient forms.

    Supported forms: ``constant``, ``monomial``, ``distance_to_point`` (in
    ``default_distance(alg)``), ``axis_distance`` (time-dependent distance
    to (t,0,0)), ``axis_distance_inf`` (distance to the whole first axis)
    and ``sin_coordinate``.  Anything richer requires the library API.  A
    non-object spec or entry, a ``value``, ``scale`` or ``point`` entry that
    ``json_number`` refuses, an ``exponents`` entry, ``index`` or ``indices``
    entry that ``json_integer`` refuses, monomial exponents that are negative
    or sum above ``MAX_MONOMIAL_DEGREE``, or a ``point`` of the wrong length
    raises InputError naming the form and key; so does a key that the spec
    (``coefficients``, ``indices``) or an entry (``FORM_KEYS``) does not read.
    """
    json_object(spec, "coefficients indices", "field spec")
    dst = default_distance(alg)
    coeffs = []
    for c in spec["coefficients"]:
        if not isinstance(c, dict):
            raise InputError(f"coefficient entry must be an object, not {c!r}")
        form = c.get("form")
        if not (isinstance(form, str) and form in FORM_KEYS):
            raise InputError(f"unknown coefficient form {form!r}")
        json_object(c, FORM_KEYS[form], form)
        if form == "constant":
            v = json_number(c["value"], f"{form} value")
            coeffs.append(lambda t, x, _v=v: _v)
        elif form == "monomial":
            expo = tuple(json_integer(e, f"{form} exponents") for e in c["exponents"])
            if len(expo) != alg.dim:
                raise InputError("monomial exponents must have one entry per coordinate")
            if min(expo) < 0 or sum(expo) > MAX_MONOMIAL_DEGREE:
                raise InputError(f"{form} exponents: expected non-negative integers summing "
                                 f"to at most {MAX_MONOMIAL_DEGREE}, not {list(expo)}")
            scale = json_number(c.get("scale", 1.0), f"{form} scale")
            fn = evaluator([Poly(alg.dim, {expo: 1}) * scale])
            coeffs.append(lambda t, x, _f=fn: _f(*x.T)[0])
        elif form == "distance_to_point":
            point = json_point(c.get("point", [0.0] * alg.dim), alg.dim, f"{form} point")
            coeffs.append(dst.from_point(point))
        elif form in ("axis_distance", "axis_distance_inf"):
            if not is_heisenberg(alg):
                raise InputError(f"{form} form requires the Heisenberg preset")
            coeffs.append(distance_to_axis_point if form == "axis_distance"
                          else lambda t, x: distance_to_axis(x))
        else:  # sin_coordinate
            idx = json_integer(c.get("index", 1), f"{form} index") - 1
            if not 0 <= idx < alg.dim:
                raise InputError(f"sin_coordinate index {idx + 1} out of range")
            scale = json_number(c.get("scale", 1.0), f"{form} scale")
            coeffs.append(lambda t, x, _i=idx, _s=scale: _s * np.sin(x.T[_i]))
    indices = spec.get("indices")
    if indices is None:
        return horizontal_field(alg, coeffs)
    return HorizontalField(alg, tuple(coeffs), tuple(json_integer(i, "indices") for i in indices))
