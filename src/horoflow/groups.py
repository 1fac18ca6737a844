"""Graded nilpotent Lie algebras and the group law they induce.

A `GradedAlgebra` is defined by layer dimensions and sparse structure
constants.  The group product in exponential coordinates of the first kind
is the Baker-Campbell-Hausdorff series, which truncates exactly at
commutator length equal to the step, so the law is a polynomial map.  We
build that polynomial once (exact rational arithmetic) and evaluate it for
all numeric products.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .poly import Poly, Scalar, _frac, evaluator


class AlgebraValidationError(ValueError):
    """Structure constants violate a required identity."""


# --------------------------------------------------------------------------- BCH


def _bernoulli(m: int) -> list:
    """B_0, ..., B_m from sum_{k <= j} C(j+1, k) B_k = 0 (so B_1 = -1/2)."""
    B = [Fraction(1)]
    for j in range(1, m + 1):
        B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B


# --------------------------------------------------------------------------- algebra


class GradedAlgebra:
    """Graded nilpotent Lie algebra in a fixed graded basis.

    Parameters
    ----------
    layer_dims:
        dimension of each layer, first layer first; the step is ``len(layer_dims)``.
    brackets:
        sparse structure constants ``{(i, j): {k: c}}`` with 0-based indices,
        meaning [e_i, e_j] = sum_k c * e_k.  Only one orientation of each pair
        is required; if both are given they must be antisymmetric.

    All identities (antisymmetry, grading, Jacobi) are validated at
    construction with exact rational arithmetic.
    """

    def __init__(
        self,
        layer_dims: Sequence[int],
        brackets: Mapping[tuple, Mapping[int, Scalar]] | None = None,
    ):
        layer_dims = tuple(int(n) for n in layer_dims)
        if not layer_dims or any(n < 0 for n in layer_dims) or layer_dims[-1] == 0:
            raise AlgebraValidationError(f"bad layer dimensions {layer_dims}")
        self.layer_dims = layer_dims
        self.step = len(layer_dims)
        self.dim = sum(layer_dims)
        self.degrees = tuple(j + 1 for j, n in enumerate(layer_dims) for _ in range(n))
        self.horizontal_dim = layer_dims[0]

        self._pairs = self._canonicalize(brackets or {})
        self._validate_grading()
        self._validate_jacobi()
        self._cache: dict = {}

    # ----------------------------------------------------------------- validation

    def _canonicalize(self, brackets) -> dict[tuple, dict[int, Fraction]]:
        """Each pair as (i, j) with i < j and its nonzero constants; a pair given
        in both orientations must agree up to sign."""
        q = self.dim
        pairs: dict[tuple, dict[int, Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            i, j = int(i), int(j)
            if not (0 <= i < q and 0 <= j < q):
                raise AlgebraValidationError(f"bracket index ({i},{j}) out of range")
            vec = {int(k): _frac(c) for k, c in coeffs.items() if _frac(c) != 0}
            for k in vec:
                if not 0 <= k < q:
                    raise AlgebraValidationError(f"bracket target e_{k} out of range")
            if i == j:
                if vec:
                    raise AlgebraValidationError(
                        f"antisymmetry violated: [e_{i},e_{i}] must vanish"
                    )
                continue
            canon = vec if i < j else {k: -c for k, c in vec.items()}
            if pairs.setdefault((min(i, j), max(i, j)), canon) != canon:
                raise AlgebraValidationError(
                    f"antisymmetry violated between ({i},{j}) and ({j},{i})"
                )
        return {pair: vec for pair, vec in pairs.items() if vec}

    def _validate_grading(self) -> None:
        d = self.degrees
        for (i, j), vec in self._pairs.items():
            for k, c in vec.items():
                if d[i] + d[j] > self.step:
                    raise AlgebraValidationError(
                        f"grading violated: [e_{i},e_{j}] should vanish beyond step, "
                        f"found coefficient {c} on e_{k}"
                    )
                if d[k] != d[i] + d[j]:
                    raise AlgebraValidationError(
                        f"grading violated: [e_{i},e_{j}] has component on e_{k} "
                        f"of degree {d[k]} != {d[i] + d[j]}"
                    )

    def _validate_jacobi(self) -> None:
        pairs = self._pairs
        exact = all(c.denominator == 1 for vec in pairs.values() for c in vec.values())
        tol = Fraction(0) if exact else Fraction(1, 10**12)

        def bracket(a, b):  # [e_a, e_b] as {k: c}, one lookup in _pairs
            if a < b:
                return pairs.get((a, b), {})
            return {k: -c for k, c in pairs.get((b, a), {}).items()}

        # a triple holding no pair of _pairs has a zero cyclic sum; the rest
        # are visited in combinations order
        triples = sorted({tuple(sorted((a, b, c)))
                          for a, b in pairs for c in range(self.dim) if c not in (a, b)})
        for i, j, k in triples:
            cyclic: dict[int, Fraction] = {}  # [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c in bracket(y, z).items():
                    for n, d in bracket(x, m).items():
                        cyclic[n] = cyclic.get(n, 0) + c * d
            bad = {n: str(v) for n, v in sorted(cyclic.items()) if abs(v) > tol}
            if bad:
                raise AlgebraValidationError(
                    f"Jacobi identity violated on basis triple ({i},{j},{k}): residual {bad}"
                )

    # ----------------------------------------------------------------- brackets

    def ring_bracket(self, X: Sequence, Y: Sequence) -> list:
        """[X, Y] from the structure constants, for coordinates in any ring.

        Entries may be floats, `Fraction`s or `Poly`s; a coordinate no
        structure constant reaches is the integer 0.
        """
        out = [0] * self.dim
        for (i, j), vec in self._pairs.items():
            cross = X[i] * Y[j] - X[j] * Y[i]
            for k, c in vec.items():
                out[k] = out[k] + cross * c
        return out

    # ----------------------------------------------------------------- group law

    @cached_property
    def law(self) -> tuple:
        """Group product as ``dim`` polynomials in 2*dim variables (x then y).

        The BCH series is Z_1 + Z_2 + ..., with Z_n its part of commutator
        length n, built by Varadarajan's recursion (Lie Groups, Lie Algebras,
        and Their Representations, 1984, 2.15): Z_1 = X + Y and
            (n+1) Z_{n+1} = 1/2 [X - Y, Z_n] + sum_{p >= 1} B_2p / (2p)!
                  sum_{k_1 + ... + k_2p = n} [Z_k1, [... [Z_k2p, X + Y] ...]].
        Z_n lies in layers >= n, so the series ends exactly at the step.  Each
        round is scaled once, by 1 / (2n + 2), after summing twice its terms.
        """
        q = self.dim
        X = [Poly.variable(2 * q, i) for i in range(q)]
        Y = [Poly.variable(2 * q, q + i) for i in range(q)]
        law = [a + b for a, b in zip(X, Y)]
        Z = [None, law]
        B = _bernoulli(self.step - 1)
        for n in range(1, self.step):  # X - Y is rebuilt each round: a step-1 law builds none
            acc = self.ring_bracket([a - b for a, b in zip(X, Y)], Z[n])
            for p in range(1, n // 2 + 1):
                weight = 2 * B[2 * p] / math.factorial(2 * p)
                # compositions k_1 + ... + k_2p = n as 2p - 1 cut points
                for cuts in itertools.combinations(range(1, n), 2 * p - 1):
                    ends = (0, *cuts, n)
                    nested = Z[1]
                    for j in reversed(range(2 * p)):
                        nested = self.ring_bracket(Z[ends[j + 1] - ends[j]], nested)
                    acc = [a + v * weight for a, v in zip(acc, nested)]
            Z.append([a * Fraction(1, 2 * n + 2) for a in acc])
            law = [a + z for a, z in zip(law, Z[-1])]
        return tuple(law)

    @cached_property
    def _product(self):
        """Float evaluator of the law: ``_product(*x, *y)`` gives the product's coordinates."""
        return evaluator(self.law)

    def multiply(self, x: Sequence[float], y: Sequence[float]) -> np.ndarray:
        """Group product of two elements in graded coordinates."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"expected elements of length {self.dim}")
        return np.array(self._product(*x.tolist(), *y.tolist()))

    def multiply_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Group product row-wise on (n, dim) arrays; a (dim,) factor or a
        (1, dim) row multiplies every row.

        Each row equals ``multiply`` on that row, bit for bit: a (dim,) factor
        enters the law as numbers, which round as its broadcast rows would.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        q = self.dim
        # besides the shapes that meet every row, at most one (n, dim) shape;
        # two (dim,) elements are multiply's job
        shapes = {X.shape, Y.shape} - {(q,), (1, q)}
        shape = shapes.pop() if len(shapes) == 1 else (1, q)
        if shapes or len(shape) != 2 or shape[1] != q or X.ndim + Y.ndim < 3:
            raise ValueError(f"expected (n, {q}) arrays with one row count, "
                             f"not {X.shape} and {Y.shape}")
        out = np.empty(shape)
        for j, column in enumerate(self._product(*X.T, *Y.T)):
            out[:, j] = column
        return out

    def dilate(self, r, x) -> np.ndarray:
        """Intrinsic dilation: coordinate i scales by r**degree(i).

        ``x`` is one element or an (n, dim) array; for an array, ``r`` is one
        scale or one scale per row.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("dilation scale must be positive")
        return np.asarray(x, dtype=float) * r[..., None] ** np.array(self.degrees)

    def __repr__(self) -> str:
        return f"GradedAlgebra(layers={self.layer_dims}, dim={self.dim}, step={self.step})"


# --------------------------------------------------------------------------- module-level ops


def inverse(x: Sequence[float]) -> np.ndarray:
    """Group inverse; coordinate negation in exponential coordinates."""
    return -np.asarray(x, dtype=float)


def heisenberg() -> GradedAlgebra:
    """Three-dimensional Heisenberg group preset.

    Structure constant [e1, e2] = 2 e3 is the unique choice for which the
    exponential-coordinate product has third component
    x3 + y3 + (x1 y2 - x2 y1).
    """
    return GradedAlgebra((2, 1), {(0, 1): {2: 2}})


def is_heisenberg(alg: GradedAlgebra) -> bool:
    return (
        alg.layer_dims == (2, 1)
        and alg._pairs == {(0, 1): {2: Fraction(2)}}
    )


# --------------------------------------------------------------------------- JSON interface


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (a string or boolean
    is not); else ValueError naming ``what``."""
    with contextlib.suppress(OverflowError, TypeError):  # a huge int, a non-number
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise ValueError(f"{what}: expected a finite number, not {value!r}")


def json_integer(value, what: str) -> int:
    """``value`` as an int if it is an integral finite JSON number (``3.0``
    reads as 3), read whole; else ValueError naming ``what``."""
    json_number(value, what)
    if value != int(value):
        raise ValueError(f"{what}: expected an integer, not {value!r}")
    return int(value)


def json_object(value, keys: str, what: str, unknown: str = "") -> dict:
    """``value`` if it is a JSON object with no key outside the names in ``keys``;
    else ValueError, "bad <what>: ..." or "<unknown, or 'unknown <what> keys'> [...]"."""
    if not isinstance(value, dict):
        raise ValueError(f"bad {what}: expected an object, not {value!r}")
    outside = sorted(set(value) - set(keys.split()))
    if outside:
        raise ValueError(f"{unknown or f'unknown {what} keys'} {outside}")
    return value


def algebra_from_json(data: str | dict) -> GradedAlgebra:
    """Load a group spec ``{"layers": [...], "brackets": [...]}`` (1-based indices).

    Layers and indices are read by ``json_integer``, coefficients by
    ``json_number`` and kept as given, so an integer constant stays exact.
    The spec, each bracket and each coefficient refuse an unknown key.
    """
    if isinstance(data, str):
        data = json.loads(data)
    json_object(data, "layers brackets", "group spec")
    if not (isinstance(data.get("layers"), list) and isinstance(data.get("brackets", []), list)):
        raise AlgebraValidationError(
            "group spec must be an object with a 'layers' list and an optional 'brackets' list")
    layers = [json_integer(n, "group spec layers") for n in data["layers"]]
    brackets: dict[tuple, dict[int, Scalar]] = {}
    for entry in data.get("brackets", []):
        json_object(entry, "i j coeffs", "group spec bracket")
        try:
            i, j = (json_integer(entry[key], f"group spec bracket {key}") - 1 for key in "ij")
            coeffs = {}
            for c in entry["coeffs"]:
                json_object(c, "k c", "group spec bracket coefficient")
                json_number(c["c"], "group spec bracket c")
                k = json_integer(c["k"], "group spec bracket k") - 1
                if k in coeffs:
                    raise AlgebraValidationError(
                        f"duplicate coefficient k = {k + 1} in bracket ({i + 1},{j + 1})")
                coeffs[k] = c["c"]
        except (KeyError, TypeError) as exc:
            raise AlgebraValidationError(f"malformed bracket entry {entry!r}") from exc
        key = (i, j)
        if key in brackets:
            raise AlgebraValidationError(f"duplicate bracket entry for ({i + 1},{j + 1})")
        brackets[key] = coeffs
    return GradedAlgebra(layers, brackets)
