"""Two solutions from one initial point: the non-uniqueness exhibit.

On the Heisenberg group the field X_1 + a(t,x) X_2, with a the quartic-gauge
distance from the moving axis point (t,0,0), annihilates the straight line
(t,0,0), so that line is one solution from the origin.  A second solution is
built by rescaling the transverse coordinates: with

    x2 = t^3 u / 18,   x3 = t^4 (2u - v) / 36,

the pair (u, v) satisfies a singular system whose kernel 1/t is regularized
to 1/(t + eps).  Solving a ladder of regularized systems and passing to the
small-eps limit produces the second solution; proof-grade bounds (sign
retention, exponential mix bound, linear envelopes) are monitored along
every rung; a violated bound means a failed solve or, for the integral-form
residual (a Simpson sum), too coarse an output grid.

The autonomous variant replaces a by the distance to the whole axis; its
scaled form extends continuously to t = 0 via a one-dimensional convex
minimisation with closed form sqrt(v) at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .fields import HorizontalField, horizontal_field
from .flow import residual as flow_residual
from .gauges import distance_to_axis, distance_to_axis_point, koranyi_norm
from .groups import heisenberg
from .scalarmin import minimize_convex_quartic
from .stepping import IntegratorConfig, Trajectory, integral_defect, solve_to_grid

# positive root of 8 w^2 + 2 w - 3 = 0: u + w v obeys the exponential bound
MIX_WEIGHT_UPPER = 0.5
# cancels the linear terms in the lower envelope of u + w v
MIX_WEIGHT_LOWER = 0.75

MONITOR_TOL = 1e-9
# a ladder converges when its last Cauchy gap is at most GAP_TOL, and every
# rung solve runs six decades below it (absolute and relative tolerance)
GAP_TOL = 1e-6
RUNG_TOL = 1e-12
# the verdict needs the two solutions apart by this multiple of the worse
# flow residual, so that their separation cannot be a numerical artifact
SEPARATION_FACTOR = 1e4


class MonitorViolation(RuntimeError):
    """A proven bound failed along a numerical solution: an integrator failure,
    or, for the integral-form residual, Simpson error of too coarse a grid."""


# --------------------------------------------------------------------------- coefficients


def scaled_axis_distance_with_minimizer(t, u, v) -> tuple:
    """Scaled axis distance of the rescaled curve, with the inner minimiser.

    Value 6 * inf_s ((s^2 + (t u/18)^2)^2 + (v/36 + s t u/18)^2)^(1/4), which
    is inf_r ((r^2 + w^2)^2 + (w r + v)^2)^(1/4) with r = 6 s and w = t u/3.
    At t = 0 the minimum is v^2 and the value is sqrt(|v|) exactly (the square
    root of a rounded square is exact), so the start (u, v) = (1, 1) is
    stationary.  Arguments may be arrays that broadcast together.
    """
    r, fmin = minimize_convex_quartic(t * u / 3.0, v)
    return np.sqrt(np.sqrt(fmin))[()], r / 6.0


def scaled_axis_distance(t, u, v):
    """The value of ``scaled_axis_distance_with_minimizer`` alone."""
    return np.sqrt(np.sqrt(minimize_convex_quartic(t * u / 3.0, v)[1]))


def counterexample_field(variant: str = "time") -> HorizontalField:
    """X_1 + a X_2 on the Heisenberg preset, with a the (time-dependent or
    autonomous) axis distance."""
    one = lambda t, x: 1.0
    if variant == "time":
        coeff = distance_to_axis_point
    elif variant == "autonomous":
        coeff = lambda t, x: distance_to_axis(x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return horizontal_field(heisenberg(), (one, coeff))


# --------------------------------------------------------------------------- the (u, v) system


def uv_rhs(variant: str, eps, t, y) -> np.ndarray:
    """((-3u + 3G)/(t+eps), (-4v + 4u)/(t+eps)) at states y = (..., (u, v)).

    G is the variant's drive: the scaled distance to the axis point ("time")
    or to the whole axis ("autonomous").  eps = 0 is the singular limit
    system; eps may also hold one epsilon >= 0 per row of a (rungs, 2) state.
    """
    u, v = y[..., 0], y[..., 1]
    den = t + eps
    # eps >= 0 (solve_regularized checks it), so a positive float t needs no test
    if not (isinstance(t, float) and t > 0.0) and np.less_equal(den, 0.0).any():
        raise ZeroDivisionError("right-hand side undefined at t + epsilon = 0")
    if variant == "time":
        w = t * u / 3.0
        w2 = w * w
        g = np.sqrt(np.sqrt(w2 * w2 + v * v))
    else:
        g = scaled_axis_distance(t, u, v)
    out = np.empty_like(y)
    out[..., 0] = (-3.0 * u + 3.0 * g) / den
    out[..., 1] = (-4.0 * v + 4.0 * u) / den
    return out


# --------------------------------------------------------------------------- regularized solves


@dataclass(frozen=True)
class UVSolution:
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    epsilon: float
    variant: str
    stats: dict  # StepStats of the solve; the same for every rung of one ladder


def solve_regularized(variant: str, epsilons: Sequence[float], tau: float,
                      grid_points: int) -> list[UVSolution]:
    """Integrate the regularized rungs for all ``epsilons`` as one solve.

    The rungs advance together as one (rungs, 2) state on a shared step
    sequence whose error norm is the max over every rung, so no rung meets a
    looser tolerance than it would alone; each returned UVSolution carries
    the stats of that shared solve.  Every solve runs at ``RUNG_TOL`` and
    returns its states on ``grid_points`` equally spaced times.
    """
    if variant not in ("time", "autonomous"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = np.asarray(epsilons, dtype=float)
    if not np.all(eps > 0):
        raise ValueError("regularized solve needs epsilon > 0")
    if tau > 1.0:
        raise ValueError("rung horizon must not exceed 1")
    cfg = IntegratorConfig(abs_tol=RUNG_TOL, rel_tol=RUNG_TOL)
    sol = solve_to_grid(partial(uv_rhs, variant, eps), np.linspace(0.0, tau, grid_points),
                        np.ones((len(eps), 2)), cfg)
    stats = sol.stats.as_dict()
    return [UVSolution(sol.times, sol.states[:, i, 0], sol.states[:, i, 1],
                       float(e), variant, dict(stats))
            for i, e in enumerate(eps)]


def rung_monitor_report(uv: UVSolution) -> dict:
    """The proof-bound monitors of one rung: its ``ladder.rungs`` report entry."""
    eps, tau = uv.epsilon, float(uv.times[-1])
    failures = []
    # every check is written so that a NaN fails it

    min_u, min_v = float(np.min(uv.u)), float(np.min(uv.v))
    if not min_u >= -MONITOR_TOL:
        failures.append("sign_u")
    if not min_v >= -MONITOR_TOL:
        failures.append("sign_v")

    # the comparison-lemma envelopes u + w v <= (3/2) e^(t+eps) and
    # v <= 1 + c_hat (t+eps), with c_hat the sup of (3/2)(e^s - 1)/s over the
    # window; that quotient increases, so the sup sits at s = tau + eps
    s = uv.times + eps
    mix_margin = float(np.min(1.5 * np.exp(s) - (uv.u + MIX_WEIGHT_UPPER * uv.v)))
    if not mix_margin >= -MONITOR_TOL:
        failures.append("mix_exponential_bound")

    c_hat = 1.5 * (math.exp(tau + eps) - 1.0) / (tau + eps)
    lin_margin = float(np.min((1.0 + c_hat * s) - uv.v))
    if not lin_margin >= -MONITOR_TOL:
        failures.append("v_linear_envelope")

    du0, dv0 = uv_rhs(uv.variant, eps, 0.0, np.ones(2)).tolist()
    stationarity = (abs(du0), abs(dv0))
    if not all(x <= 1e-12 for x in stationarity):
        failures.append("stationarity_at_zero")

    res = singular_integral_residual(uv)
    # integral-form defect should track the stepper tolerance, not the bounds;
    # flag only wild values.  Simpson error on a coarse output grid counts too:
    # autonomous eps = 2.4e-5, tau = 0.2 reads 1.1e-6 on 256 points, although
    # the solve matches a 16x finer grid to 4e-15 (and reads 8.7e-9 there)
    if not res <= 1e-6:
        failures.append("integral_residual")

    lower_margin = c5 = sigma_sup = fvals = None
    crossing_const = c_hat
    if uv.variant == "autonomous":
        fvals, svals = scaled_axis_distance_with_minimizer(uv.times, uv.u, uv.v)
        sigma_sup = float(np.max(np.abs(svals)))
        c5 = max(c_hat, 2.0 * float(np.max(np.abs(uv.u))) * sigma_sup)
        crossing_const = c5

    # window up to the first crossing of v = const (t+eps): the lower
    # envelopes are only guaranteed there
    window = uv.v - crossing_const * (uv.times + eps) > 0.0
    stop = len(uv.times) if bool(np.all(window)) else int(np.argmin(window))
    sl = slice(0, max(stop, 1))

    if uv.variant == "autonomous":
        lower_margin = float(np.min(
            fvals[sl] - (uv.v[sl] - c5 * (uv.times[sl] + eps))
        ))
        if not lower_margin >= -MONITOR_TOL:
            failures.append("axis_term_lower_bound")

    lower_mix = uv.u[sl] + MIX_WEIGHT_LOWER * uv.v[sl]
    lower_env = (1.0 + MIX_WEIGHT_LOWER) - 3.0 * crossing_const * (uv.times[sl] + eps)
    lower_mix_margin = float(np.min(lower_mix - lower_env))
    if not lower_mix_margin >= -MONITOR_TOL:
        failures.append("mix_lower_envelope")

    crossing_time = crossing_threshold = None
    if stop < len(uv.times):
        crossing_time = float(uv.times[stop])
        crossing_threshold = 1.0 / (26.0 * crossing_const)
        if not crossing_time >= crossing_threshold - MONITOR_TOL:
            failures.append("first_crossing_too_early")

    return {
        "epsilon": eps, "variant": uv.variant, "min_u": min_u, "min_v": min_v,
        "mix_bound_margin": mix_margin, "lower_mix_margin": lower_mix_margin,
        "linear_envelope_margin": lin_margin, "exp_linear_constant": c_hat,
        "stationarity": stationarity,  # |du|, |dv| of the right-hand side at (0, 1, 1)
        "integral_residual": res,
        "crossing_time": crossing_time, "crossing_threshold": crossing_threshold,
        # the next three are None except on the autonomous variant
        "lower_bound_margin": lower_margin, "lower_bound_constant": c5, "minimizer_sup": sigma_sup,
        "failures": tuple(failures), "passed": not failures,
    }


def singular_integral_residual(uv: UVSolution, as_limit: bool = False) -> float:
    """Defect of the integral identity with kernel 1/(t + eps).

    With ``as_limit`` the data is checked against the singular system itself
    (eps = 0): the quadrature starts at the first positive grid time, since
    the kernel is only integrable against the actual solution there, and the
    approach to the initial value at 0 is reported separately.
    """
    eps = 0.0 if as_limit else uv.epsilon
    start = 1 if as_limit else 0
    t = uv.times[start:]
    y = np.column_stack([uv.u[start:], uv.v[start:]])
    return integral_defect(uv_rhs(uv.variant, eps, t, y), t, y)


# --------------------------------------------------------------------------- epsilon ladder


@dataclass(frozen=True)
class LadderSpec:
    eps0: float = 0.1
    ratio: float = 0.5
    count: int = 14
    tau: float = 0.3
    grid_points: int = 2048

    def __post_init__(self):
        if not 0 < self.eps0 <= 0.1:
            raise ValueError("eps0 must lie in (0, 0.1]")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 4:
            raise ValueError("need at least 4 rungs")
        if not 0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.grid_points < 8:  # the fewest points flow.residual integrates
            raise ValueError("grid_points must be at least 8")

    @property
    def epsilons(self) -> tuple:
        return tuple(self.eps0 * self.ratio**k for k in range(self.count))


def gap_convergence(gaps: Sequence[float]) -> tuple[int, bool]:
    """Start of the strictly decreasing tail of the Cauchy gaps, and whether
    they converged: the last gap is at most ``GAP_TOL`` and at least the last
    three gaps decrease strictly (``LadderSpec.count >= 4`` gives three)."""
    k0 = len(gaps) - 1
    while k0 > 0 and gaps[k0] < gaps[k0 - 1]:
        k0 -= 1
    return k0, bool(gaps[-1] <= GAP_TOL and k0 <= len(gaps) - 3)


def run_epsilon_ladder(spec: LadderSpec = LadderSpec(), variant: str = "time") -> tuple:
    """Solve the rung family on a common grid and measure the Cauchy gaps.

    ``spec`` is the whole configuration: the grid is ``spec.grid_points``
    times on [0, spec.tau], and all rungs are one solve at the fixed
    ``RUNG_TOL`` (see ``solve_regularized``).  Rung monitors are hard
    requirements: a violated proof bound aborts the ladder.  Gaps that stop
    decreasing are non-convergence (``gap_convergence``); the last rung is
    still the limit candidate, never silently replaced.  Returns the rungs'
    UVSolutions, largest epsilon first, and the report's ``ladder`` block.
    """
    solutions = solve_regularized(variant, spec.epsilons, spec.tau, spec.grid_points)
    reports = [rung_monitor_report(uv) for uv in solutions]
    for rep in reports:
        if not rep["passed"]:
            raise MonitorViolation(
                f"proof-bound monitor failed on rung eps={rep['epsilon']:g}: "
                f"{', '.join(rep['failures'])}"
            )

    gaps = [float(max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.v - b.v))))
            for a, b in zip(solutions, solutions[1:])]
    decreasing_from, converged = gap_convergence(gaps)

    return solutions, {
        "variant": variant,
        "epsilons": [uv.epsilon for uv in solutions],
        "sup_differences": gaps,
        "converged": converged,
        "gaps_decreasing_from": decreasing_from,
        "limit_residual": singular_integral_residual(solutions[-1], as_limit=True),
        "gap_tol": GAP_TOL,
        "tau": spec.tau,
        "rungs": reports,
    }


# --------------------------------------------------------------------------- reconstruction


def reconstruct_trajectory(uv: UVSolution) -> Trajectory:
    """Lift a (u, v) solution back to the group: (t, t^3 u/18, t^4 (2u-v)/36)."""
    t = uv.times
    t2 = t * t
    states = np.column_stack([
        t,
        t2 * t * uv.u / 18.0,
        t2 * t2 * (2.0 * uv.u - uv.v) / 36.0,
    ])
    return Trajectory(t.copy(), states)


def trivial_trajectory(tau: float, n: int) -> Trajectory:
    t = np.linspace(0.0, tau, n)
    return Trajectory(t, np.column_stack([t, np.zeros(n), np.zeros(n)]))


def build_nonuniqueness_report(solutions: Sequence[UVSolution], ladder: dict) -> tuple:
    """Turn a finished ladder (``run_epsilon_ladder``'s pair) into the exhibit
    report; the last rung is the limit.

    Returns (report dict, reconstructed trajectory).  The verdict asserts
    that two certified near-solutions of one Cauchy problem stay apart by at
    least ``SEPARATION_FACTOR`` times the worse residual, i.e. the
    separation cannot be a numerical artifact.
    """
    variant = ladder["variant"]
    field = counterexample_field(variant)
    alg = field.algebra

    gamma = reconstruct_trajectory(solutions[-1])
    straight = trivial_trajectory(ladder["tau"], len(gamma.times))
    res_trivial = flow_residual(straight, field)
    res_nontrivial = flow_residual(gamma, field)

    rel = alg.multiply_batch(-straight.states, gamma.states)
    separation = koranyi_norm(rel)
    max_sep = float(np.max(separation))

    worst_res = max(res_trivial, res_nontrivial)
    sep_ok = max_sep >= SEPARATION_FACTOR * worst_res
    gamma2_at_tau = float(gamma.states[-1, 1])

    verdict = bool(ladder["converged"] and sep_ok and gamma2_at_tau > 0.0)
    report = {
        "variant": variant,
        "ladder": ladder,
        "residual_trivial": res_trivial,
        "residual_nontrivial": res_nontrivial,
        "max_separation": max_sep,
        "separation_factor_required": SEPARATION_FACTOR,
        "separation_margin": max_sep - SEPARATION_FACTOR * worst_res,
        "separation": separation.tolist(),
        "gamma2_at_tau": gamma2_at_tau,
        "nonuniqueness_certified": verdict,
    }
    return report, gamma


def nonuniqueness_report(variant: str = "time", spec: LadderSpec = LadderSpec()) -> dict:
    """Run the full exhibit pipeline and return the report."""
    report, _ = build_nonuniqueness_report(*run_epsilon_ladder(spec, variant))
    return report
