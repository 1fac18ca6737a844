"""Numerical monitors for the two uniqueness mechanisms.

Equilibrium route: when the coefficient sizes vanish at least linearly (in
the graded sense) toward a point, trajectories cannot escape faster than a
Gronwall envelope; we estimate the degeneracy constant by scale-swept
sampling and certify the envelope on integrated trajectories.

Involutive route: a field spanned by commuting first-layer directions
confines every solution to the left coset of the spanned subspace, where
the dynamics reduce to a classical Lipschitz ODE in few variables; we check
the confinement defect and compare the reduced solve against the full one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .domain import Box
from .fields import HorizontalField, frame_field, left_invariant_frame
from .flow import CauchyProblem, IntegratorConfig, Trajectory, integrate
from .gauges import (HomogeneousDistance, default_distance, equivalence_constants,
                     smooth_gauge)
from .groups import GradedAlgebra, inverse
from .poly import _frac
from .stepping import NonFiniteRHSError, solve_to_grid


class ConditionNotCertified(RuntimeError):
    """The degeneracy condition failed to certify; the monitor refuses to run."""


class NotInvolutiveError(ValueError):
    """A pair of the proposed basis fields fails to commute."""


# --------------------------------------------------------------------------- equilibrium


@dataclass(frozen=True)
class EquilibriumCondition:
    equilibrium_point: tuple
    estimated_c: float
    scale_maxima: tuple  # max ratio per shrinking sample scale
    certified: bool
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "equilibrium_point": list(self.equilibrium_point),
            "estimated_c": self.estimated_c,
            "scale_maxima": list(self.scale_maxima),
            "certified": self.certified,
            "samples": self.samples,
            "seed": self.seed,
        }


def verify_equilibrium_condition(
    field: HorizontalField,
    xbar: Sequence[float],
    box: Box,
    samples: int,
    seed: int,
    distance: HomogeneousDistance | None = None,
    time_samples: Sequence[float] = (0.0,),
    scales: int = 6,
    growth_factor: float = 2.0,
) -> EquilibriumCondition:
    """Estimate the degeneracy constant by sampling, swept toward the point.

    The ratio at a sample x is sum_i |a_i(t,x)|^(1/d_i) divided by d(x, xbar).
    Samples are pulled toward the equilibrium point by dyadic dilations; a
    field that does not degenerate there shows ratios growing across scales,
    in which case the condition is reported uncertified (the estimate is
    then a lower bound that grows beyond any threshold as scales increase).
    A non-finite ratio raises `NonFiniteRHSError`.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    alg = field.algebra
    dst = distance or default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)
    rng = np.random.default_rng(seed)
    rel = alg.multiply_batch(inverse(xbar), box.sample(rng, samples))
    powers = [1.0 / alg.degrees[i - 1] for i in field.indices]

    scale_maxima = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(scales):
            XS = alg.multiply_batch(xbar, alg.dilate(2.0 ** (-k), rel))
            worst = 0.0
            for xs, d in zip(XS, dst.batch(XS, xbar)):
                if d == 0.0:
                    continue
                for t in map(float, time_samples):
                    val = sum(abs(a(t, xs)) ** p for a, p in zip(field.coefficients, powers)) / d
                    if not math.isfinite(val):
                        raise NonFiniteRHSError(t, "field coefficient non-finite at "
                                                   f"t = {t:.12g}, x = {xs.tolist()}")
                    worst = max(worst, val)
            scale_maxima.append(worst)

    estimated_c = max(scale_maxima)
    first = scale_maxima[0]
    certified = not (scale_maxima[-1] > growth_factor * max(first, 1e-300))
    return EquilibriumCondition(
        tuple(xbar), float(estimated_c), tuple(scale_maxima), certified, samples, seed
    )


@dataclass(frozen=True)
class StabilityReport:
    ratios: tuple
    initial_distances: tuple
    certified_bound: float
    kappa: float
    c_integral: float
    passed: bool
    equilibrium_deviation: float | None  # set when some start equals the point

    def as_dict(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "initial_distances": list(self.initial_distances),
            "certified_bound": self.certified_bound,
            "kappa": self.kappa,
            "c_integral": self.c_integral,
            "passed": self.passed,
            "equilibrium_deviation": self.equilibrium_deviation,
        }


def stability_monitor(
    field: HorizontalField,
    xbar: Sequence[float],
    cond: EquilibriumCondition,
    initial_points: Sequence[Sequence[float]],
    cfg: IntegratorConfig = IntegratorConfig(),
    horizon: float = 1.0,
    distance: HomogeneousDistance | None = None,
    c_profile: Callable[[float], float] | None = None,
    kappa_samples: int = 4000,
    seed: int = 0,
) -> StabilityReport:
    """Integrate from each start and compare growth against the Gronwall bound.

    The certified bound is kappa * exp(kappa * integral of the degeneracy
    constant), with kappa the empirical equivalence constant between the
    smooth gauge and the active distance (the constant the Gronwall argument
    routes through).
    """
    if not cond.certified or not math.isfinite(cond.estimated_c):
        raise ConditionNotCertified(
            "degeneracy condition not certified: ratios grow toward the "
            f"equilibrium point (scale maxima {list(cond.scale_maxima)})"
        )
    alg = field.algebra
    dst = distance or default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)

    lo, hi = equivalence_constants(alg, smooth_gauge(alg), dst.gauge, kappa_samples, seed)
    kappa = max(hi, 1.0 / lo)
    if c_profile is None:
        c_integral = cond.estimated_c * horizon
    else:
        ts = np.linspace(0.0, horizon, 2049)
        c_integral = float(np.trapezoid([c_profile(t) for t in ts], ts))
    bound = kappa * math.exp(kappa * c_integral)

    ratios = []
    dists = []
    eq_dev = None
    for x0 in initial_points:
        x0 = np.asarray(x0, dtype=float)
        d0 = dst(x0, xbar)
        tr = integrate(CauchyProblem(field, tuple(x0), horizon), cfg, with_residual=False)
        dev = float(np.max(dst.batch(tr.states, xbar)))
        if d0 == 0.0:
            eq_dev = max(eq_dev or 0.0, dev)
            ratios.append(1.0)
        else:
            ratios.append(dev / d0)
        dists.append(d0)
    passed = max(ratios) <= bound
    return StabilityReport(
        tuple(ratios), tuple(dists), float(bound), float(kappa),
        float(c_integral), bool(passed), eq_dev,
    )


# --------------------------------------------------------------------------- involutive


@dataclass(frozen=True)
class InvolutiveModule:
    algebra: GradedAlgebra
    basis: tuple  # tuple of length-q tuples, first-layer supported
    projector: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.basis)

    def span_matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=float).T  # (q, r)

    def sigma(self, x: Sequence[float]):
        """Euclidean distance from the spanned subspace, of one point or of each row."""
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - x @ self.projector.T, axis=-1)

    def project(self, x: Sequence[float]) -> np.ndarray:
        return self.projector @ np.asarray(x, dtype=float)


def check_involutive(alg: GradedAlgebra, basis: Sequence[Sequence[float]]) -> InvolutiveModule:
    """Build the commuting-module data, or report the first non-commuting pair.

    Basis vectors are the values of the fields at the identity; they must be
    supported on the first layer.  Brackets are checked exactly through the
    structure constants (rational arithmetic).
    """
    if not basis:
        raise ValueError("need at least one basis field")
    q, m = alg.dim, alg.horizontal_dim
    vecs = [np.asarray(v, dtype=float) for v in basis]
    for v in vecs:
        if v.shape != (q,):
            raise ValueError(f"basis vector has wrong length {v.shape}")
        if np.any(v[m:] != 0.0):
            raise ValueError("basis field is not horizontal (support beyond the first layer)")
    V = np.array(vecs).T
    if np.linalg.matrix_rank(V) < len(vecs):
        raise ValueError("basis fields are linearly dependent")

    exact = [[_frac(float(c)) for c in v] for v in vecs]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            acc: dict[int, Fraction] = {}
            for (i, j), vec in alg._pairs.items():
                cross = exact[a][i] * exact[b][j] - exact[a][j] * exact[b][i]
                if cross:
                    for k, c in vec.items():
                        acc[k] = acc.get(k, Fraction(0)) + cross * c
            nonzero = {k: v for k, v in acc.items() if v != 0}
            if nonzero:
                pretty = " + ".join(f"({v})e_{k + 1}" for k, v in sorted(nonzero.items()))
                raise NotInvolutiveError(
                    f"basis fields {a + 1} and {b + 1} do not commute: bracket = {pretty}"
                )

    Q, _ = np.linalg.qr(V)
    projector = Q @ Q.T
    mod = InvolutiveModule(alg, tuple(tuple(float(c) for c in v) for v in vecs), projector)
    _validate_module_samples(mod)
    return mod


def _validate_module_samples(mod: InvolutiveModule, tol: float = 1e-12) -> None:
    # the restriction of each basis field to the span must be the constant vector,
    # and the group law must restrict to vector addition
    alg = mod.algebra
    frame = left_invariant_frame(alg)
    V = mod.span_matrix()
    rng = np.random.default_rng(12345)
    S = rng.uniform(-2.0, 2.0, size=(8, mod.rank)) @ V.T
    S1, S2 = S[:4], S[4:]
    add_defect = np.max(np.abs(alg.multiply_batch(S1, S2) - (S1 + S2)))
    if add_defect > tol:
        raise AssertionError(f"span is not additively closed: defect {add_defect:g}")
    for v in mod.basis:
        val = sum(v[i] * frame[i].value(S1) for i in range(alg.dim) if v[i] != 0.0)
        if np.max(np.abs(val - np.asarray(v))) > tol:
            raise AssertionError("basis field is not constant along the span")


def confinement_check(
    tr: Trajectory, mod: InvolutiveModule, x0: Sequence[float]
) -> float:
    """Largest distance of x0^{-1} gamma(t) from the spanned subspace."""
    return float(np.max(mod.sigma(mod.algebra.multiply_batch(inverse(x0), tr.states))))


def module_field(
    mod: InvolutiveModule, coefficients: Sequence[Callable[[float, np.ndarray], float]]
) -> HorizontalField:
    """Ambient field sum_j a_j Y_j expressed over the first-layer frame."""
    alg = mod.algebra
    m = alg.horizontal_dim
    basis = mod.basis

    def frame_coeff(i):
        def total(t, x):
            return sum(a(t, x) * v[i] for a, v in zip(coefficients, basis) if v[i] != 0.0)
        return total

    return frame_field(alg, tuple(frame_coeff(i) for i in range(m)), tuple(range(1, m + 1)))


def reduced_solve(
    mod: InvolutiveModule,
    coefficients: Sequence[Callable[[float, np.ndarray], float]],
    x0: Sequence[float],
    horizon: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Solve the coset-reduced system and lift it back to the group.

    On the coset x0 * span, writing the moving point as x0 * (V theta), the
    coordinates satisfy the classical ODE theta_j' = a_j(t, x0 * (V theta)),
    to which standard Lipschitz theory applies.
    """
    alg = mod.algebra
    if len(coefficients) != mod.rank:
        raise ValueError("one coefficient per basis field")
    x0 = np.asarray(x0, dtype=float)
    V = mod.span_matrix()

    def rhs(t, theta):
        point = alg.multiply(x0, V @ theta)
        return np.array([a(t, point) for a in coefficients])

    grid = np.linspace(0.0, horizon, cfg.dense_output_grid)
    sol = solve_to_grid(
        rhs, grid, np.zeros(mod.rank),
        method=cfg.method, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol,
        max_step=cfg.max_step, min_step=cfg.min_step,
    )
    lifted = alg.multiply_batch(x0, sol.states @ V.T)
    meta = {
        "method": cfg.method,
        "abs_tol": cfg.abs_tol,
        "rel_tol": cfg.rel_tol,
        "reduced_rank": mod.rank,
        "exited": False,
        "exit_time": None,
        **sol.stats.as_dict(),
    }
    return Trajectory(sol.times, lifted, meta)
