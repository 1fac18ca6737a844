"""The explicit stepper and the quadrature shared by every solve in the package.

The adaptive method is the Dormand-Prince 5(4) embedded pair.  Its step size
is set by the tolerance alone (capped by ``max_step`` and the horizon); every
output grid time an accepted step passes over is filled from the pair's own
fourth-order continuous extension (Hairer's ``contd5``), and the horizon is
reached by stretching the last step rather than by a sliver step.  Domain
exits are located by bisection on the same interpolant.

Local error is budgeted per unit time: a step of length h on a span of
length L may make an error of ``h / L`` times the tolerance, so the defects
of a whole solve add up to the tolerance scale (Shampine 1977, "error per
unit step").  The factor is floored at ``_BUDGET_FLOOR`` = 1 %: steps above
1 % of the span keep the per-unit-time budget, and shorter steps, which the
singular start t = 0 of the ε-ladder calls for, meet 1 % of the tolerance,
which stays well above rounding.  Without the floor the budget shrinks with
the step, so steps and budget drive each other down: at the ε-ladder's
tolerance of 1e-12 on a span of 0.3, a 5e-9 step would get a local
tolerance of about 2e-20, below the rounding of O(1) states.

Every solve takes its settings as one ``IntegratorConfig``, passed whole; the
config holds the only defaults of those settings and the only checks on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

RHS = Callable[[float, np.ndarray], np.ndarray]

# Dormand-Prince 5(4) tableau.  Stage s is A[s, :s] @ k[:s] over the stage
# slopes k; the last row of A doubles as the 5th-order weights (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
for _s, _row in enumerate((
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
), start=1):
    _DP_A[_s, :_s] = _row
_DP_B5 = _DP_A[6]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# weights of the quartic term of the continuous extension (Hairer's dopri5)
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9
_STRETCH = 1.01  # a last step within 1 % of the horizon is stretched onto it
_BUDGET_FLOOR = 0.01  # least share of the tolerance one step may spend (module docstring)


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = math.inf
    min_step: float = 1e-14
    dense_output_grid: int = 1025  # output grid points of a solve on [0, horizon]

    def __post_init__(self):
        # a bool is an int to Python, but never a tolerance, step or grid size
        for name in ("abs_tol", "rel_tol", "max_step", "min_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
        grid = self.dense_output_grid
        if isinstance(grid, bool) or not isinstance(grid, Integral):
            raise ValueError(f"dense_output_grid must be an integer, not {grid!r}")
        # written so that a NaN fails them
        if not (self.abs_tol > 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be positive")
        if not self.min_step <= self.max_step:
            raise ValueError("min_step must not exceed max_step")
        if self.dense_output_grid < 2:
            raise ValueError("dense output grid needs at least two points")


class StepUnderflowError(RuntimeError):
    """Step control drove the step below the configured minimum."""

    def __init__(self, t: float, message: str | None = None):
        self.time = t
        super().__init__(message or f"step size underflow near t = {t:.12g} "
                                    "(stiffness or a singular right-hand side)")


class NonFiniteRHSError(RuntimeError):
    def __init__(self, t: float, message: str | None = None):
        self.time = t
        super().__init__(message or f"right-hand side produced a non-finite value at t = {t:.12g}")


@dataclass
class StepStats:
    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    min_step: float = math.inf
    min_step_t: float = math.nan  # start time of the smallest step
    max_step: float = 0.0

    def record(self, h: float, t: float) -> None:
        h = float(h)
        self.steps += 1
        if h < self.min_step:
            self.min_step, self.min_step_t = h, float(t)
        self.max_step = max(self.max_step, h)

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "rhs_evals": self.rhs_evals,
            "min_step": self.min_step if self.steps else None,
            "min_step_t": self.min_step_t if self.steps else None,
            "max_step": self.max_step if self.steps else None,
        }


@dataclass
class GridSolution:
    times: np.ndarray
    states: np.ndarray
    stats: StepStats
    exited: bool = False
    exit_time: float | None = None


def _checked(f: RHS, t: float, y: np.ndarray, stats: StepStats) -> np.ndarray:
    out = np.asarray(f(t, y), dtype=float)
    stats.rhs_evals += 1
    if not np.isfinite(out).all():
        raise NonFiniteRHSError(t)
    return out


def dp5_dense(y: np.ndarray, y5: np.ndarray, h: float, k: np.ndarray):
    """Dormand-Prince continuous extension on one step of length h from y.

    ``k`` holds the seven stage slopes, k[6] being the FSAL slope f(t+h, y5).
    Returns a function of the step fraction theta (a number or a 1-D array)
    giving the fourth-order state at t + theta h, in Hairer's ``contd5`` form:
    it takes y and y5 at theta = 0 and 1, with slopes k[0] and k[6] there.
    """
    r2 = y5 - y
    r3 = h * k[0] - r2
    r4 = r2 - h * k[6] - r3
    r5 = h * (_DP_D @ k.reshape(7, -1)).reshape(y.shape)

    def at(theta):
        s = np.reshape(theta, np.shape(theta) + (1,) * y.ndim)
        s1 = 1.0 - s
        return y + s * (r2 + s1 * (r3 + s * (r4 + s1 * r5)))
    return at


def _exit_solution(grid, states, g, stats, inside, dense, a, b, tol=1e-10):
    """Truncate at the domain exit, bisected on ``dense(t)`` between a time a
    inside the domain and a time b outside it; grid[:g] were reached inside."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if inside(dense(mid)):
            a = mid
        else:
            b = mid
    t_exit = 0.5 * (a + b)
    times = np.append(grid[:g], t_exit)
    out = np.concatenate([states[:g], dense(t_exit)[None]])
    return GridSolution(times, out, stats, exited=True, exit_time=t_exit)


def solve_to_grid(
    f: RHS,
    grid: Sequence[float],
    y0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    inside: Callable[[np.ndarray], bool] | None = None,
) -> GridSolution:
    """Integrate y' = f(t, y) and return the states at every grid time.

    The state may have any shape; ``f`` receives and returns arrays of that
    shape.  A state of shape (m, d) advances m systems together on one step
    sequence whose error norm is the max over every entry, so each system
    meets the tolerance it would meet alone.  ``cfg.dense_output_grid`` is
    not read: the grid is given.

    The steps follow the tolerance, and grid states between step ends come
    from the step's continuous extension.  If ``inside`` is given and the
    solution leaves the region, the returned arrays are truncated at the exit
    time, located within 1e-10 by bisection on the last step's interpolant.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    y = np.array(y0, dtype=float)
    if inside is not None and not inside(y):
        raise ValueError("initial state is outside the domain")

    stats = StepStats()
    states = np.empty((len(grid),) + y.shape)
    states[0] = y
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_step, min_step = cfg.max_step, cfg.min_step
    t, t_end = float(grid[0]), float(grid[-1])
    span = t_end - t
    h = min(max_step, grid[1] - grid[0])
    k = np.empty((7,) + y.shape)
    kf = k.reshape(7, -1)  # flat view: stage s adds A[s, :s] @ kf[:s]
    # per stage s: its tableau row, the slopes it sums and its node c_s
    stages = [(s, _DP_A[s, :s], kf[:s], float(_DP_C[s])) for s in range(1, 7)]
    g = 1  # next grid time to fill

    # overflow and invalid operations in f surface as NonFiniteRHSError from
    # the per-evaluation check rather than as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        fcur = _checked(f, t, y, stats)
        while t < t_end:
            rest = t_end - t
            h_try = min(h, max_step)
            if _STRETCH * h_try >= rest and rest <= max_step:
                h_try = rest
            # one attempted step, repeated with smaller h on rejection; local
            # error is budgeted per unit time, floored at _BUDGET_FLOOR of the
            # tolerance so that short steps keep a budget above rounding
            while True:
                k[0] = fcur
                for s, a_s, k_s, c_s in stages:
                    ys = y + h_try * (a_s @ k_s).reshape(y.shape)
                    k[s] = _checked(f, t + c_s * h_try, ys, stats)
                y5 = y + h_try * (_DP_B5 @ kf).reshape(y.shape)
                err_vec = h_try * (_DP_E @ kf).reshape(y.shape)
                budget = max(h_try / span, _BUDGET_FLOOR)
                scale = (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))) * budget
                err = float((np.abs(err_vec) / scale).max())
                if err <= 1.0 or h_try <= min_step:
                    break
                stats.rejected += 1
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.25))
                h_try = max(h_try * min(factor, 1.0), min_step)
            if err > 1.0 and h_try <= min_step:
                raise StepUnderflowError(t)
            stats.record(h_try, t)

            t_new = t_end if h_try == rest else t + h_try
            j = int(np.searchsorted(grid, t_new, side="right"))  # grid[g:j] lie in (t, t_new]
            if j > g or inside is not None:
                dense = dp5_dense(y, y5, h_try, k)
            if j > g:
                states[g:j] = dense((grid[g:j] - t) / h_try)
                if grid[j - 1] == t_new:
                    states[j - 1] = y5
            if inside is not None:
                n_in = g
                while n_in < j and inside(states[n_in]):
                    n_in += 1
                if n_in < j or not inside(y5):
                    a = grid[n_in - 1] if n_in > g else t
                    b = grid[n_in] if n_in < j else t_new
                    return _exit_solution(grid, states, n_in, stats, inside,
                                          lambda s: dense((s - t) / h_try), a, b)

            # FSAL: the last stage is f(t+h, y5).  Copied, because the next
            # attempt overwrites k[6], and after a rejection k[0] must still be
            # f(t, y)
            fcur = k[6].copy()
            y, t, g = y5, t_new, j
            if err > 0:
                h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.25)))
            else:
                h = h_try * _MAX_FACTOR
    return GridSolution(grid.copy(), states, stats)


# --------------------------------------------------------------------------- quadrature


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples by composite Simpson pairing.

    Even cumulative indices agree with classical composite Simpson; odd
    indices take the first half of the pair's quadratic.  A trailing odd
    interval uses the quadratic through the last three points.  Handles
    non-uniform spacing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[:, None]
    n = len(x)
    out = np.zeros_like(y)
    if n == 2:
        out[1] = 0.5 * (x[1] - x[0]) * (y[0] + y[1])
    elif n > 2:
        # quadratics through the points (i, i+1, i+2) for even i, plus (n-3,
        # n-2, n-1) for a trailing odd interval, of which only the second half
        # is used; the running sum over the halves in grid order is the
        # cumulative integral
        i = np.arange(0, n - 2, 2)
        if n % 2 == 0:
            i = np.append(i, n - 3)
        h1 = (x[i + 1] - x[i])[:, None]
        h2 = (x[i + 2] - x[i])[:, None]
        f0, d1, d2 = y[i], y[i + 1] - y[i], y[i + 2] - y[i]
        den = h1 * h2 * (h2 - h1)
        a = (d2 * h1 - d1 * h2) / den
        b = (d1 * h2 * h2 - d2 * h1 * h1) / den

        def F(s):  # antiderivative of a s^2 + b s + f0 from 0
            s2 = s * s
            return a * (s2 * s) / 3.0 + b * s2 / 2.0 + f0 * s

        m = (n - 1) // 2  # full pairs
        I1 = F(h1)
        I2 = F(h2) - I1
        halves = np.empty((n - 1, y.shape[1]))
        halves[0 : 2 * m : 2] = I1[:m]
        halves[1 : 2 * m : 2] = I2[:m]
        if n % 2 == 0:
            halves[-1] = I2[-1]
        np.cumsum(halves, axis=0, out=out[1:])
    return out[:, 0] if single else out
