"""Graded nilpotent Lie algebras and the group law they induce.

A `GradedAlgebra` is defined by layer dimensions and sparse structure
constants.  The group product in exponential coordinates of the first kind
is the Baker-Campbell-Hausdorff series, which truncates exactly at
commutator length equal to the step, so the law is a polynomial map.  We
build that polynomial once (exact rational arithmetic) and evaluate it for
all numeric products.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .poly import Poly, Scalar, _frac, evaluator


class AlgebraValidationError(ValueError):
    """Structure constants violate a required identity."""


# --------------------------------------------------------------------------- BCH words


@lru_cache(maxsize=None)
def _dynkin_words(max_len: int) -> tuple:
    """Right-nested bracket words with rational weights for log(exp X exp Y).

    Words are tuples over {0, 1} (0 = first argument, 1 = second), to be read
    as [w0, [w1, [... wk]]].  Weights follow the Dynkin expansion with all
    commutator lengths above ``max_len`` dropped; for a nilpotent algebra of
    step <= max_len the truncation is exact.  Words whose two innermost
    letters coincide are omitted (their bracket vanishes identically).
    """
    weights: dict[tuple, Fraction] = {}

    def blocks(remaining: int, n_left: int):
        # sequences of (r_i, s_i) with r_i + s_i >= 1 summing to <= remaining
        if n_left == 0:
            yield ()
            return
        for r in range(remaining + 1):
            for s in range(remaining - r + 1):
                if r + s == 0 or r + s > remaining - (n_left - 1):
                    continue
                for rest in blocks(remaining - r - s, n_left - 1):
                    yield ((r, s),) + rest

    for n in range(1, max_len + 1):
        sign = Fraction((-1) ** (n - 1), n)
        for comp in blocks(max_len, n):
            total = sum(r + s for r, s in comp)
            denom = total
            for r, s in comp:
                denom *= math.factorial(r) * math.factorial(s)
            word = tuple(
                letter for r, s in comp for letter in (0,) * r + (1,) * s
            )
            weights[word] = weights.get(word, Fraction(0)) + sign / denom

    pruned = {}
    for word, w in weights.items():
        if w == 0:
            continue
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket [a, a] = 0
        pruned[word] = w
    return tuple(sorted(pruned.items()))


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
        q = self.dim
        pairs: dict[tuple, dict[int, Fraction]] = {}
        seen: dict[tuple, dict[int, Fraction]] = {}
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
            seen[(i, j)] = vec
        for (i, j), vec in seen.items():
            if (j, i) in seen:
                other = seen[(j, i)]
                keys = set(vec) | set(other)
                if any(vec.get(k, Fraction(0)) != -other.get(k, Fraction(0)) for k in keys):
                    raise AlgebraValidationError(
                        f"antisymmetry violated between ({i},{j}) and ({j},{i})"
                    )
            a, b = (i, j) if i < j else (j, i)
            canon = vec if i < j else {k: -c for k, c in vec.items()}
            if (a, b) in pairs:
                if pairs[(a, b)] != canon:
                    raise AlgebraValidationError(
                        f"antisymmetry violated between ({i},{j}) and ({j},{i})"
                    )
            elif canon:
                pairs[(a, b)] = canon
        return pairs

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
        exact = all(
            c.denominator == 1 for vec in self._pairs.values() for c in vec.values()
        )
        tol = Fraction(0) if exact else Fraction(1, 10**12)
        unit = [[int(a == b) for b in range(self.dim)] for a in range(self.dim)]
        br = self.ring_bracket
        for i, j, k in itertools.combinations(range(self.dim), 3):
            x, y, z = unit[i], unit[j], unit[k]
            cyclic = zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))
            bad = {n: str(v) for n, v in enumerate(map(sum, cyclic)) if abs(v) > tol}
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

    def bracket(self, X: Sequence[float], Y: Sequence[float]) -> np.ndarray:
        """Lie bracket of two algebra elements in the graded basis."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != (self.dim,) or Y.shape != (self.dim,):
            raise ValueError(f"expected vectors of length {self.dim}")
        return np.array(self.ring_bracket(X.tolist(), Y.tolist()), dtype=float)

    # ----------------------------------------------------------------- group law

    @property
    def law(self) -> tuple:
        """Group product as ``dim`` polynomials in 2*dim variables (x then y)."""
        if "law" not in self._cache:
            q = self.dim
            X = [Poly.variable(2 * q, i) for i in range(q)]
            Y = [Poly.variable(2 * q, q + i) for i in range(q)]
            acc = [X[i] + Y[i] for i in range(q)]
            for word, weight in _dynkin_words(self.step):
                if len(word) < 2:
                    continue
                vecs = [X if letter == 0 else Y for letter in word]
                nested = vecs[-1]
                for v in reversed(vecs[:-1]):
                    nested = self.ring_bracket(v, nested)
                    if all(p == 0 for p in nested):
                        break
                else:
                    acc = [acc[i] + nested[i] * weight for i in range(q)]
            self._cache["law"] = tuple(acc)
        return self._cache["law"]

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
        """Group product row-wise on (n, dim) arrays; a (dim,) factor multiplies every row.

        Each row equals ``multiply`` on that row, bit for bit.
        """
        X, Y = np.broadcast_arrays(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) arrays")
        return np.column_stack(self._product(*X.T, *Y.T))

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


def algebra_from_json(data: str | dict) -> GradedAlgebra:
    """Load a group spec ``{"layers": [...], "brackets": [...]}`` (1-based indices)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "layers" not in data:
        raise AlgebraValidationError("group spec must be an object with a 'layers' key")
    layers = data["layers"]
    brackets: dict[tuple, dict[int, Fraction]] = {}
    for entry in data.get("brackets", []):
        try:
            i, j = int(entry["i"]) - 1, int(entry["j"]) - 1
            coeffs = {int(c["k"]) - 1: c["c"] for c in entry["coeffs"]}
        except (KeyError, TypeError) as exc:
            raise AlgebraValidationError(f"malformed bracket entry {entry!r}") from exc
        key = (i, j)
        if key in brackets:
            raise AlgebraValidationError(f"duplicate bracket entry for ({i + 1},{j + 1})")
        brackets[key] = coeffs
    return GradedAlgebra(layers, brackets)


def algebra_to_json(alg: GradedAlgebra) -> dict:
    return {
        "layers": list(alg.layer_dims),
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": [{"k": k + 1, "c": float(c)} for k, c in sorted(vec.items())],
            }
            for (i, j), vec in sorted(alg._pairs.items())
        ],
    }
