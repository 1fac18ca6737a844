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
from .gates import all_passed, gate
from .gauges import default_distance, distance_to_axis, distance_to_axis_point
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
    else:  # scaled_axis_distance_with_minimizer's value, without the minimiser
        g = np.sqrt(np.sqrt(minimize_convex_quartic(t * u / 3.0, v)[1]))
    out = np.empty_like(y)
    out[..., 0] = (-3.0 * u + 3.0 * g) / den
    out[..., 1] = (-4.0 * v + 4.0 * u) / den
    return out


# --------------------------------------------------------------------------- regularized solves


def solve_regularized(variant: str, epsilons: Sequence[float], tau: float,
                      grid_points: int) -> Trajectory:
    """Integrate the regularized rungs for all ``epsilons`` as one solve.

    The rungs advance together as one (rungs, 2) state on a shared step
    sequence whose error norm is the max over every entry, so no rung meets a
    looser tolerance than it would alone.  The solve runs at ``RUNG_TOL`` and
    returns its states, of shape (grid_points, rungs, 2), on ``grid_points``
    equally spaced times; rung i is ``states[:, i]``.
    """
    if variant not in ("time", "autonomous"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = np.asarray(epsilons, dtype=float)
    if not np.all(eps > 0):
        raise ValueError("regularized solve needs epsilon > 0")
    if tau > 1.0:
        raise ValueError("rung horizon must not exceed 1")
    cfg = IntegratorConfig(abs_tol=RUNG_TOL, rel_tol=RUNG_TOL)
    return solve_to_grid(partial(uv_rhs, variant, eps), np.linspace(0.0, tau, grid_points),
                         np.ones((len(eps), 2)), cfg)


def rung_monitor_report(variant: str, eps: float, times: np.ndarray, uv: np.ndarray) -> dict:
    """The proof-bound monitors of one rung, its (grid, 2) states ``uv`` at
    ``times``: its ``ladder.rungs`` report entry."""
    tau = float(times[-1])
    u, v = uv.T
    min_u, min_v = float(np.min(u)), float(np.min(v))
    rows = [gate("sign_u", min_u, ">=", -MONITOR_TOL), gate("sign_v", min_v, ">=", -MONITOR_TOL)]

    # the comparison-lemma envelopes u + w v <= (3/2) e^(t+eps) and
    # v <= 1 + c_hat (t+eps), with c_hat the sup of (3/2)(e^s - 1)/s over the
    # window; that quotient increases, so the sup sits at s = tau + eps
    s = times + eps
    mix_margin = float(np.min(1.5 * np.exp(s) - (u + MIX_WEIGHT_UPPER * v)))
    c_hat = 1.5 * (math.exp(tau + eps) - 1.0) / (tau + eps)
    lin_margin = float(np.min((1.0 + c_hat * s) - v))
    drift = np.abs(uv_rhs(variant, eps, 0.0, np.ones(2)))
    res = singular_integral_residual(variant, eps, times, uv)
    rows += [gate("mix_exponential_bound", mix_margin, ">=", -MONITOR_TOL),
             gate("v_linear_envelope", lin_margin, ">=", -MONITOR_TOL),
             # np.max, unlike max, keeps a NaN
             gate("stationarity_at_zero", float(np.max(drift)), "<=", 1e-12),
             # integral-form defect should track the stepper tolerance, not the
             # bounds; flag only wild values.  Simpson error on a coarse output
             # grid counts too: autonomous eps = 2.4e-5, tau = 0.2 reads 1.1e-6
             # on 256 points, although the solve matches a 16x finer grid to
             # 4e-15 (and reads 8.7e-9 there)
             gate("integral_residual", res, "<=", 1e-6)]

    lower_margin = c5 = sigma_sup = fvals = None
    crossing_const = c_hat
    if variant == "autonomous":
        fvals, svals = scaled_axis_distance_with_minimizer(times, u, v)
        sigma_sup = float(np.max(np.abs(svals)))
        c5 = max(c_hat, 2.0 * float(np.max(np.abs(u))) * sigma_sup)
        crossing_const = c5

    # window up to the first crossing of v = const (t+eps): the lower
    # envelopes are only guaranteed there
    window = v - crossing_const * (times + eps) > 0.0
    stop = len(times) if bool(np.all(window)) else int(np.argmin(window))
    sl = slice(0, max(stop, 1))

    if variant == "autonomous":
        lower_margin = float(np.min(fvals[sl] - (v[sl] - c5 * (times[sl] + eps))))
        rows.append(gate("axis_term_lower_bound", lower_margin, ">=", -MONITOR_TOL))

    lower_mix = u[sl] + MIX_WEIGHT_LOWER * v[sl]
    lower_env = (1.0 + MIX_WEIGHT_LOWER) - 3.0 * crossing_const * (times[sl] + eps)
    lower_mix_margin = float(np.min(lower_mix - lower_env))
    rows.append(gate("mix_lower_envelope", lower_mix_margin, ">=", -MONITOR_TOL))

    crossing_time = crossing_threshold = None
    if stop < len(times):
        crossing_time = float(times[stop])
        crossing_threshold = 1.0 / (26.0 * crossing_const)
        rows.append(gate("first_crossing_too_early", crossing_time, ">=",
                         crossing_threshold - MONITOR_TOL))

    return {
        "epsilon": eps, "variant": variant, "min_u": min_u, "min_v": min_v,
        "mix_bound_margin": mix_margin, "lower_mix_margin": lower_mix_margin,
        "linear_envelope_margin": lin_margin, "exp_linear_constant": c_hat,
        "stationarity": tuple(drift.tolist()),  # |du|, |dv| of the right-hand side at (0, 1, 1)
        "integral_residual": res,
        "crossing_time": crossing_time, "crossing_threshold": crossing_threshold,
        # the next three are None except on the autonomous variant
        "lower_bound_margin": lower_margin, "lower_bound_constant": c5, "minimizer_sup": sigma_sup,
        "gates": rows, "failures": tuple(r["name"] for r in rows if not r["passed"]),
        "passed": all_passed(rows),
    }


def singular_integral_residual(variant: str, eps: float, times: np.ndarray,
                               uv: np.ndarray) -> float:
    """Defect of the integral identity with kernel 1/(t + eps) on one rung's
    (grid, 2) states ``uv`` at ``times``.

    With eps = 0 the data is checked against the singular system itself: the
    quadrature starts at the first positive grid time, since the kernel is
    only integrable against the actual solution there, and the approach to
    the initial value at 0 is reported separately.
    """
    start = 0 if eps > 0 else 1
    t, y = times[start:], uv[start:]
    return integral_defect(uv_rhs(variant, eps, t, y), t, y)


# --------------------------------------------------------------------------- epsilon ladder


# the rungs' epsilons are EPS0 * EPS_RATIO**k, k < count: each rung halves
# the last, the ratio the Richardson step 2 y(eps) - y(2 eps) assumes
EPS0, EPS_RATIO = 0.1, 0.5


@dataclass(frozen=True)
class LadderSpec:
    count: int = 14
    tau: float = 0.3
    grid_points: int = 2048

    def __post_init__(self):
        if self.count < 4:
            raise ValueError("need at least 4 rungs")
        if not 0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.grid_points < 8:  # the fewest points flow.residual integrates
            raise ValueError("grid_points must be at least 8")

    @property
    def epsilons(self) -> tuple:
        return tuple(EPS0 * EPS_RATIO**k for k in range(self.count))


def gap_convergence(gaps: Sequence[float]) -> tuple[int, list]:
    """Start of the strictly decreasing tail of the Cauchy gaps, and the gate
    rows of their convergence: the last gap is at most ``GAP_TOL`` and at
    least the last three gaps decrease strictly (``LadderSpec.count >= 4``
    gives three)."""
    k0 = len(gaps) - 1
    while k0 > 0 and gaps[k0] < gaps[k0 - 1]:
        k0 -= 1
    return k0, [gate("last_gap", gaps[-1], "<=", GAP_TOL),
                gate("gaps_decreasing_from", k0, "<=", len(gaps) - 3)]


def run_epsilon_ladder(spec: LadderSpec = LadderSpec(), variant: str = "time") -> tuple:
    """Solve the rung family on a common grid and measure the Cauchy gaps.

    ``spec`` is the whole configuration: the grid is ``spec.grid_points``
    times on [0, spec.tau], and all rungs are one solve at the fixed
    ``RUNG_TOL`` (see ``solve_regularized``).  Rung monitors are hard
    requirements: a violated proof bound aborts the ladder.  Gaps that stop
    decreasing are non-convergence (``gap_convergence``); the last rung is
    still the limit candidate, never silently replaced.  Returns the
    ladder's Trajectory, rungs largest epsilon first, and the report's
    ``ladder`` block.
    """
    sol = solve_regularized(variant, spec.epsilons, spec.tau, spec.grid_points)
    times, states = sol.times, sol.states
    reports = [rung_monitor_report(variant, eps, times, states[:, i])
               for i, eps in enumerate(spec.epsilons)]
    for rep in reports:
        if not rep["passed"]:
            raise MonitorViolation(
                f"proof-bound monitor failed on rung eps={rep['epsilon']:g}: "
                f"{', '.join(rep['failures'])}"
            )

    gaps = [float(np.max(np.abs(states[:, i] - states[:, i + 1])))
            for i in range(spec.count - 1)]
    decreasing_from, rows = gap_convergence(gaps)

    return sol, {
        "variant": variant,
        "epsilons": list(spec.epsilons),
        "sup_differences": gaps,
        "gates": rows,
        "converged": all_passed(rows),
        "gaps_decreasing_from": decreasing_from,
        "limit_residual": singular_integral_residual(variant, 0.0, times, states[:, -1]),
        "gap_tol": GAP_TOL,
        "tau": spec.tau,
        "rungs": reports,
    }


# --------------------------------------------------------------------------- reconstruction


def reconstruct_trajectory(t: np.ndarray, uv: np.ndarray) -> Trajectory:
    """Lift (grid, 2) states (u, v) at times t back to the group:
    (t, t^3 u/18, t^4 (2u-v)/36)."""
    t2 = t * t
    u, v = uv.T
    return Trajectory(t.copy(), np.column_stack([t, t2 * t * u / 18.0,
                                                 t2 * t2 * (2.0 * u - v) / 36.0]))


def trivial_trajectory(times: np.ndarray) -> Trajectory:
    """The straight solution (t, 0, 0) at ``times``."""
    return Trajectory(times, np.column_stack([times, np.zeros((len(times), 2))]))


def build_nonuniqueness_report(times: np.ndarray, limit: np.ndarray, ladder: dict) -> tuple:
    """Turn a finished ladder into the exhibit report: ``limit`` is its last
    rung's (grid, 2) states at ``times``, ``ladder`` its report block (both
    from ``run_epsilon_ladder``).

    Returns (report dict, reconstructed trajectory).  The verdict asserts
    that two certified near-solutions of one Cauchy problem stay apart by at
    least ``SEPARATION_FACTOR`` times the worse residual, i.e. the
    separation cannot be a numerical artifact.
    """
    variant = ladder["variant"]
    field = counterexample_field(variant)

    gamma = reconstruct_trajectory(times, limit)
    straight = trivial_trajectory(times)
    res_trivial = flow_residual(straight, field)
    res_nontrivial = flow_residual(gamma, field)

    separation = default_distance(field.algebra)(straight.states, gamma.states)
    max_sep = float(np.max(separation))

    worst_res = max(res_trivial, res_nontrivial)
    gamma2_at_tau = float(gamma.states[-1, 1])
    rows = [*ladder["gates"], gate("max_separation", max_sep, ">=", SEPARATION_FACTOR * worst_res),
            gate("gamma2_at_tau", gamma2_at_tau, ">", 0.0)]
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
        "gates": rows,
        "nonuniqueness_certified": all_passed(rows),
    }
    return report, gamma


def nonuniqueness_report(variant: str = "time", spec: LadderSpec = LadderSpec()) -> dict:
    """Run the full exhibit pipeline and return the report."""
    sol, ladder = run_epsilon_ladder(spec, variant)
    report, _ = build_nonuniqueness_report(sol.times, sol.states[:, -1], ladder)
    return report
