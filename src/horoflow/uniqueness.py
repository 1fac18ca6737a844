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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import Box
from .fields import (CoefficientFn, HorizontalField, evaluate_field, frame_field,
                     left_invariant_frame)
from .flow import Trajectory
from .gauges import HomogeneousDistance, default_distance, equivalence_kappa
from .groups import GradedAlgebra, inverse
from .poly import _frac
from .stepping import IntegratorConfig, NonFiniteRHSError, solve_to_grid


class ConditionNotCertified(RuntimeError):
    """The degeneracy condition failed to certify; the monitor refuses to run."""


class NotInvolutiveError(ValueError):
    """A pair of the proposed basis fields fails to commute."""


# --------------------------------------------------------------------------- equilibrium

# The degeneracy sweep: SCALES dyadic dilations toward the point, refused when
# the ratio maximum grows more than GROWTH_FACTOR-fold.  A coefficient that
# does not vanish at the point doubles its ratio at every halving, 32-fold
# across the sweep; one that vanishes linearly keeps it bounded.
SCALES = 6
GROWTH_FACTOR = 2.0


@dataclass(frozen=True)
class EquilibriumCondition:
    equilibrium_point: tuple
    estimated_c: float
    scale_maxima: tuple  # max ratio per shrinking sample scale
    certified: bool
    samples: int
    seed: int


def verify_equilibrium_condition(
    field: HorizontalField,
    xbar: Sequence[float],
    box: Box,
    samples: int,
    seed: int,
    distance: HomogeneousDistance | None = None,
    time_samples: Sequence[float] = (0.0,),
) -> EquilibriumCondition:
    """Estimate the degeneracy constant by sampling, swept toward the point.

    The ratio at a sample x is sum_i |a_i(t,x)|^(1/d_i) divided by d(x, xbar).
    Samples are pulled toward the equilibrium point by ``SCALES`` dyadic
    dilations; a field that does not degenerate there shows ratios growing
    across scales, and when the last scale's maximum exceeds
    ``GROWTH_FACTOR`` times the first's the condition is reported
    uncertified (the estimate is then a lower bound that grows beyond any
    threshold as scales increase).  Both are fixed so that every report
    certifies by one rule.  A non-finite ratio raises `NonFiniteRHSError`.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    alg = field.algebra
    dst = distance or default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)
    rng = np.random.default_rng(seed)
    rel = alg.multiply_batch(inverse(xbar), box.sample(rng, samples))
    powers = [1.0 / alg.degrees[i - 1] for i in field.indices]

    times = [float(t) for t in time_samples]
    scale_maxima = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(SCALES):
            XS = alg.multiply_batch(xbar, alg.dilate(2.0 ** (-k), rel))
            d = dst.batch(XS, xbar)
            keep = d != 0.0  # a sample at the point itself has no ratio
            # ratios[sample, time], so the first non-finite entry in reading
            # order is the first in sample-major order
            ratios = np.column_stack([
                sum(np.abs(a(t, XS)) ** p for a, p in zip(field.coefficients, powers)) / d
                for t in times
            ])[keep]
            bad = ~np.isfinite(ratios)
            if bad.any():
                row, col = divmod(int(np.argmax(bad)), len(times))
                raise NonFiniteRHSError(times[col], "field coefficient non-finite at "
                                                    f"t = {times[col]:.12g}, "
                                                    f"x = {XS[keep][row].tolist()}")
            scale_maxima.append(float(np.max(ratios, initial=0.0)))

    estimated_c = max(scale_maxima)
    first = scale_maxima[0]
    certified = not (scale_maxima[-1] > GROWTH_FACTOR * max(first, 1e-300))
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


def stability_monitor(
    field: HorizontalField,
    xbar: Sequence[float],
    cond: EquilibriumCondition,
    initial_points: Sequence[Sequence[float]],
    cfg: IntegratorConfig = IntegratorConfig(),
    horizon: float = 1.0,
    distance: HomogeneousDistance | None = None,
    c_profile: Callable[[np.ndarray], object] | None = None,
    seed: int = 0,
) -> StabilityReport:
    """Integrate from each start and compare growth against the Gronwall bound.

    All starts advance as one (starts, dim) solve whose error norm is the max
    over every entry, so no start meets a looser tolerance than it would
    alone.  ``c_profile`` maps an array of times to the degeneracy constant
    at each.  The certified bound is kappa * exp(kappa * integral of the
    degeneracy constant), with kappa the empirical equivalence constant
    between the smooth gauge and the active distance (the constant the
    Gronwall argument routes through; see ``gauges.equivalence_kappa``).
    """
    if not cond.certified or not math.isfinite(cond.estimated_c):
        raise ConditionNotCertified(
            "degeneracy condition not certified: ratios grow toward the "
            f"equilibrium point (scale maxima {list(cond.scale_maxima)})"
        )
    alg = field.algebra
    dst = distance or default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)
    starts = np.array(initial_points, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != alg.dim:
        raise ValueError("initial point dimension does not match the algebra")

    kappa = equivalence_kappa(alg, dst.gauge, seed)
    if c_profile is None:
        c_integral = cond.estimated_c * horizon
    else:
        ts = np.linspace(0.0, horizon, 2049)
        c = np.broadcast_to(c_profile(ts), ts.shape)
        c_integral = float((np.diff(ts) * (c[1:] + c[:-1]) / 2.0).sum())  # trapezoid rule
    bound = kappa * math.exp(kappa * c_integral)

    sol = solve_to_grid(lambda t, x: evaluate_field(field, t, x),
                        np.linspace(0.0, horizon, cfg.dense_output_grid), starts, cfg)
    dists = dst.batch(starts, xbar)
    devs = dst.batch(sol.states.reshape(-1, alg.dim), xbar).reshape(sol.states.shape[:2]).max(0)
    at_point = dists == 0.0
    ratios = np.where(at_point, 1.0, devs / np.where(at_point, 1.0, dists))
    eq_dev = float(np.max(devs[at_point])) if at_point.any() else None
    passed = np.max(ratios) <= bound
    return StabilityReport(
        tuple(ratios.tolist()), tuple(dists.tolist()), float(bound), float(kappa),
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

    exact = [[_frac(c) for c in v.tolist()] for v in vecs]
    for a, b in itertools.combinations(range(len(vecs)), 2):
        pretty = " + ".join(f"({v})e_{k + 1}"
                            for k, v in enumerate(alg.ring_bracket(exact[a], exact[b])) if v != 0)
        if pretty:
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
    mod: InvolutiveModule, coefficients: Sequence[CoefficientFn]
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
    coefficients: Sequence[CoefficientFn],
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
    sol = solve_to_grid(rhs, grid, np.zeros(mod.rank), cfg)
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
