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
from typing import Sequence

import numpy as np

from .domain import Box
from .fields import CoefficientFn, HorizontalField, evaluate_field, horizontal_field
from .gates import InputError, all_passed, gate
from .gauges import default_distance, equivalence_kappa
from .groups import GradedAlgebra, inverse
from .poly import _frac
from .stepping import IntegratorConfig, NonFiniteRHSError, Trajectory, solve_to_grid


class ConditionNotCertified(RuntimeError):
    """The degeneracy condition failed to certify; the monitor refuses to run."""


class NotInvolutiveError(InputError):
    """A pair of the proposed basis fields fails to commute."""


# --------------------------------------------------------------------------- equilibrium

# The degeneracy sweep: SCALES dyadic dilations toward the point, refused when
# the ratio maximum grows more than GROWTH_FACTOR-fold.  A coefficient that
# does not vanish at the point doubles its ratio at every halving, 32-fold
# across the sweep; one that vanishes linearly keeps it bounded.
SCALES = 6
GROWTH_FACTOR = 2.0


def verify_equilibrium_condition(
    field: HorizontalField,
    xbar: Sequence[float],
    box: Box,
    samples: int,
    seed: int,
    time_samples: Sequence[float] = (0.0,),
) -> dict:
    """Estimate the degeneracy constant by sampling, swept toward the point.

    The ratio at a sample x is sum_i |a_i(t,x)|^(1/d_i) divided by d(x, xbar),
    with d the algebra's ``default_distance``.
    Samples are pulled toward the equilibrium point by ``SCALES`` dyadic
    dilations; a field that does not degenerate there shows ratios growing
    across scales, and when the last scale's maximum exceeds
    ``GROWTH_FACTOR`` times the first's the condition is reported
    uncertified (the estimate is then a lower bound that grows beyond any
    threshold as scales increase).  Both are fixed so that every report
    certifies by one rule.  A non-finite ratio raises `NonFiniteRHSError`.
    Returns the ``equilibrium`` report's ``condition`` block.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    alg = field.algebra
    dst = default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)
    rng = np.random.default_rng(seed)
    rel = alg.multiply_batch(inverse(xbar), box.sample(rng, samples))
    powers = [1.0 / alg.degrees[i - 1] for i in field.indices]

    times = [float(t) for t in time_samples]
    scale_maxima = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(SCALES):
            XS = alg.multiply_batch(xbar, alg.dilate(2.0 ** (-k), rel))
            d = dst(XS, xbar)
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
                raise NonFiniteRHSError(f"field coefficient non-finite at t = {times[col]:.12g}, "
                                        f"x = {XS[keep][row].tolist()}", times[col])
            scale_maxima.append(float(np.max(ratios, initial=0.0)))

    rows = [gate("last_scale_maximum", scale_maxima[-1], "<=",
                 GROWTH_FACTOR * max(scale_maxima[0], 1e-300))]
    return {"equilibrium_point": tuple(xbar), "estimated_c": max(scale_maxima),
            "scale_maxima": tuple(scale_maxima),  # max ratio per shrinking sample scale
            "gates": rows, "certified": all_passed(rows), "samples": samples, "seed": seed}


def stability_monitor(
    field: HorizontalField,
    xbar: Sequence[float],
    cond: dict,
    initial_points: Sequence[Sequence[float]],
    cfg: IntegratorConfig = IntegratorConfig(),
    horizon: float = 1.0,
) -> dict:
    """Integrate from each start and compare growth against the Gronwall bound.

    All starts advance as one (starts, dim) solve whose error norm is the max
    over every entry, so no start meets a looser tolerance than it would
    alone.  The certified bound is kappa * exp(kappa * c * horizon), with c
    the estimated degeneracy constant and kappa the closed-form equivalence
    constant between the smooth gauge and the algebra's ``default_distance``
    (the constant the Gronwall argument routes through; see
    ``gauges.equivalence_kappa``).
    A start at the point itself has no ratio: its ratio reads 1.0, and the
    monitor fails when it moves farther than ``cfg.gate_tol`` from the
    point (``equilibrium_deviation``); a genuine equilibrium stays put to
    the bit.  Returns the report's ``stability`` block.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if not cond["certified"] or not math.isfinite(cond["estimated_c"]):
        raise ConditionNotCertified(
            "degeneracy condition not certified: ratios grow toward the "
            f"equilibrium point (scale maxima {list(cond['scale_maxima'])})"
        )
    alg = field.algebra
    dst = default_distance(alg)
    xbar = np.asarray(xbar, dtype=float)
    starts = np.array(initial_points, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != alg.dim:
        raise ValueError("initial point dimension does not match the algebra")

    kappa = equivalence_kappa(alg)
    c_integral = cond["estimated_c"] * horizon
    try:
        bound = kappa * math.exp(kappa * c_integral)
    except OverflowError:  # an inf bound certifies nothing: the report cannot hold it
        bound = math.inf

    sol = solve_to_grid(lambda t, x: evaluate_field(field, t, x),
                        np.linspace(0.0, horizon, cfg.dense_output_grid), starts, cfg)
    dists = dst(starts, xbar)
    devs = dst(sol.states.reshape(-1, alg.dim), xbar).reshape(sol.states.shape[:2]).max(0)
    at_point = dists == 0.0
    ratios = np.where(at_point, 1.0, devs / np.where(at_point, 1.0, dists))
    eq_dev = float(np.max(devs[at_point])) if at_point.any() else None
    rows = [gate("max_ratio", float(np.max(ratios)), "<=", bound)]
    if eq_dev is not None:
        rows.append(gate("equilibrium_deviation", eq_dev, "<=", cfg.gate_tol))
    return {"ratios": tuple(ratios.tolist()), "initial_distances": tuple(dists.tolist()),
            "certified_bound": float(bound), "kappa": float(kappa),
            "c_integral": float(c_integral), "gates": rows, "passed": all_passed(rows),
            "equilibrium_deviation": eq_dev}  # set when some start equals the point


# --------------------------------------------------------------------------- involutive


@dataclass(frozen=True)
class InvolutiveModule:
    algebra: GradedAlgebra
    basis: tuple  # tuple of length-q tuples, first-layer supported
    projector: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.basis)

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
        raise InputError("need at least one basis field")
    q, m = alg.dim, alg.horizontal_dim
    vecs = [np.asarray(v, dtype=float) for v in basis]
    for v in vecs:
        if v.shape != (q,):
            raise InputError(f"basis vector has wrong length {v.shape}")
        if np.any(v[m:] != 0.0):
            raise InputError("basis field is not horizontal (support beyond the first layer)")
    V = np.array(vecs).T
    if np.linalg.matrix_rank(V) < len(vecs):
        raise InputError("basis fields are linearly dependent")

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
    return InvolutiveModule(alg, tuple(tuple(float(c) for c in v) for v in vecs), projector)


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
    basis = mod.basis

    def frame_coeff(i):
        def total(t, x):
            return sum(a(t, x) * v[i] for a, v in zip(coefficients, basis) if v[i] != 0.0)
        return total

    return horizontal_field(alg, [frame_coeff(i) for i in range(alg.horizontal_dim)])


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
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    x0 = np.asarray(x0, dtype=float)
    V = np.array(mod.basis, dtype=float).T  # (q, r)

    def rhs(t, theta):
        point = alg.multiply(x0, V @ theta)
        return np.array([a(t, point) for a in coefficients])

    grid = np.linspace(0.0, horizon, cfg.dense_output_grid)
    sol = solve_to_grid(rhs, grid, np.zeros(mod.rank), cfg)
    return Trajectory(sol.times, alg.multiply_batch(x0, sol.states @ V.T), sol.stats)
