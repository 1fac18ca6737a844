"""Exact sparse multivariate polynomials over the rationals.

Deliberately small: only what symbolic group-law manipulation needs
(ring arithmetic, partial derivatives, evaluation, weighted degrees).
Coefficients are `fractions.Fraction`, so every identity that is rational in
the structure constants stays exact; binary floats convert to fractions
without loss.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Mapping, Sequence, Union

Scalar = Union[int, float, Fraction]


def _frac(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class Poly:
    """Polynomial in ``nvars`` variables stored as {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                c = _frac(coeff)
                if c == 0:
                    continue
                expo = tuple(int(e) for e in expo)
                if len(expo) != self.nvars:
                    raise ValueError(f"exponent tuple {expo} does not match nvars={self.nvars}")
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                clean[expo] = clean.get(expo, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Poly":
        """The polynomial of the terms a ring operation built: exponent tuples
        of ``nvars`` non-negative ints mapped to ``Fraction``s, so only zero
        coefficients are dropped."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # ------------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): 1})

    # ------------------------------------------------------------------ predicates

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, float, Fraction)):
            c = _frac(other)
            if c == 0:
                return self.is_zero
            return self.terms == {(0,) * self.nvars: c}
        return NotImplemented

    __hash__ = None  # mutable-ish dict payload; never used as a key

    # ------------------------------------------------------------------ ring ops

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, float, Fraction)):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return Poly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else -_frac(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, float, Fraction)):
            c = _frac(other)
            return Poly._of(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return Poly._of(self.nvars, out)

    __rmul__ = __mul__

    # ------------------------------------------------------------------ calculus

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable ``i``."""
        out: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            de = tuple(de)
            out[de] = out[de] + c * e[i] if de in out else c * e[i]
        return Poly._of(self.nvars, out)

    # ------------------------------------------------------------------ evaluation

    def evaluate_exact(self, xs: Sequence[Scalar]) -> Fraction:
        total = Fraction(0)
        vals = [_frac(x) for x in xs]
        for e, c in self.terms.items():
            v = c
            for i, p in enumerate(e):
                if p:
                    v *= vals[i] ** p
            total += v
        return total

    # ------------------------------------------------------------------ structure

    def weighted_degrees(self, weights: Sequence[int]) -> frozenset:
        """Set of weighted monomial degrees sum_i w_i * e_i over the support."""
        return frozenset(sum(w * p for w, p in zip(weights, e)) for e in self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}" if p == 1 else f"x{i}^{p}" for i, p in enumerate(e) if p)
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return "Poly(" + " + ".join(parts) + ")"


def evaluator(polys: Sequence[Poly]) -> Callable[..., tuple]:
    """The float evaluator of ``polys``, compiled from generated source.

    The result takes the coordinates unpacked: ``f(*x.tolist())`` at one point
    or ``f(*X.T)`` on the rows of an (n, nvars) array, and returns one value
    per polynomial.  Each value is 0.0 plus the terms in sorted exponent order,
    a term being its coefficient times one factor per unit of exponent, so a
    float and an array argument round identically.  A constant polynomial
    yields a float, also for array arguments.
    """
    names = [f"x{i}" for i in range(polys[0].nvars)]
    values = []
    for p in polys:
        terms = ["0.0"]
        for e, c in sorted(p.terms.items()):
            factors = [names[i] for i, k in enumerate(e) for _ in range(k)]
            if not factors or c != 1:
                factors.insert(0, repr(float(c)))
            terms.append("*".join(factors))
        values.append(" + ".join(terms))
    source = f"def f({', '.join(names)}):\n    return ({', '.join(values)},)\n"
    namespace: dict = {}
    exec(compile(source, "<poly evaluator>", "exec"), namespace)
    return namespace["f"]
