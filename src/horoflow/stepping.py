"""Explicit steppers and quadrature shared by every solve in the package.

The adaptive method is the Dormand-Prince 5(4) embedded pair; the fixed-step
method is classical RK4 (kept for order studies).  Both advance exactly onto
each requested output time, so grid states are true integration endpoints
rather than interpolants; cubic Hermite interpolation is used only to locate
domain exits inside a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


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
    max_step: float = 0.0

    def record(self, h: float) -> None:
        self.steps += 1
        self.min_step = min(self.min_step, h)
        self.max_step = max(self.max_step, h)

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "rhs_evals": self.rhs_evals,
            "min_step": self.min_step if self.steps else None,
            "max_step": self.max_step if self.steps else None,
        }


@dataclass
class GridSolution:
    times: np.ndarray
    states: np.ndarray
    stats: StepStats
    exited: bool = False
    exit_time: float | None = None


def hermite(t0: float, y0: np.ndarray, f0: np.ndarray,
            t1: float, y1: np.ndarray, f1: np.ndarray, t: float) -> np.ndarray:
    """Cubic Hermite interpolant on [t0, t1]."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _checked(f: RHS, t: float, y: np.ndarray, stats: StepStats) -> np.ndarray:
    out = np.asarray(f(t, y), dtype=float)
    stats.rhs_evals += 1
    if not np.isfinite(out).all():
        raise NonFiniteRHSError(t)
    return out


def _locate_exit(inside, t0, y0, f0, t1, y1, f1, tol=1e-10):
    """Bisect the Hermite interpolant for the domain boundary inside a step."""
    a, b = t0, t1
    while b - a > tol:
        mid = 0.5 * (a + b)
        if inside(hermite(t0, y0, f0, t1, y1, f1, mid)):
            a = mid
        else:
            b = mid
    t_exit = 0.5 * (a + b)
    return t_exit, hermite(t0, y0, f0, t1, y1, f1, t_exit)


def _exit_solution(grid, g, states, stats, inside, t0, y0, f0, t1, y1, f1):
    t_exit, y_exit = _locate_exit(inside, t0, y0, f0, t1, y1, f1)
    times = np.append(grid[:g], t_exit)  # grid points already reached, then the exit
    out = np.concatenate([states[:g], y_exit[None]])
    return GridSolution(times, out, stats, exited=True, exit_time=t_exit)


def solve_to_grid(
    f: RHS,
    grid: Sequence[float],
    y0: Sequence[float],
    method: str = "rk45",
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_step: float = math.inf,
    min_step: float = 1e-14,
    inside: Callable[[np.ndarray], bool] | None = None,
) -> GridSolution:
    """Integrate y' = f(t, y) hitting every grid time exactly.

    The state may have any shape; ``f`` receives and returns arrays of that
    shape.  A state of shape (m, d) advances m systems together on one step
    sequence whose error norm is the max over every entry, so each system
    meets the tolerance it would meet alone.

    If ``inside`` is given and the solution leaves the region, the returned
    arrays are truncated at the exit time (located within 1e-10 by bisection
    on the last step's Hermite interpolant).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    y = np.array(y0, dtype=float)
    if inside is not None and not inside(y):
        raise ValueError("initial state is outside the domain")
    if method not in ("rk45", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    stats = StepStats()
    states = np.empty((len(grid),) + y.shape)
    states[0] = y
    # overflow and invalid operations in f surface as NonFiniteRHSError from
    # the per-evaluation check rather than as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "rk4":
            return _rk4_to_grid(f, grid, y, states, stats, inside, max_step)
        return _dp45_to_grid(f, grid, y, states, stats, inside, max_step,
                             abs_tol, rel_tol, min_step)


def _dp45_to_grid(f, grid, y, states, stats, inside, max_step, abs_tol, rel_tol, min_step):
    t = float(grid[0])
    span = float(grid[-1] - grid[0])
    fcur = _checked(f, t, y, stats)
    h = min(max_step, grid[1] - grid[0])
    k = np.empty((7,) + y.shape)
    kf = k.reshape(7, -1)  # flat view: stage s adds A[s, :s] @ kf[:s]

    for g in range(1, len(grid)):
        target = float(grid[g])
        while t < target:
            clamped = min(h, max_step, target - t)
            if clamped <= 0:
                break
            h_try = clamped
            # one attempted step, repeated with smaller h on rejection;
            # local error is budgeted per unit time so the accumulated defect
            # over the whole horizon stays at the tolerance scale
            while True:
                k[0] = fcur
                for s in range(1, 7):
                    ys = y + h_try * (_DP_A[s, :s] @ kf[:s]).reshape(y.shape)
                    k[s] = _checked(f, t + _DP_C[s] * h_try, ys, stats)
                y5 = y + h_try * (_DP_B5 @ kf).reshape(y.shape)
                err_vec = h_try * (_DP_E @ kf).reshape(y.shape)
                scale = (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))) * (h_try / span)
                err = float((np.abs(err_vec) / scale).max())
                if err <= 1.0 or h_try <= min_step:
                    break
                stats.rejected += 1
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.25))
                h_try = max(h_try * min(factor, 1.0), min_step)
            if err > 1.0 and h_try <= min_step:
                raise StepUnderflowError(t)

            t_new = target if abs(t + h_try - target) <= 1e-15 * max(1.0, abs(target)) else t + h_try
            # FSAL: the last stage is f(t+h, y5).  Copied, because the next
            # attempt overwrites k[6], and after a rejection k[0] must still be
            # f(t, y); so must the start slope of the exit interpolant
            f_new = k[6].copy()
            stats.record(h_try)

            if inside is not None and not inside(y5):
                return _exit_solution(grid, g, states, stats, inside, t, y, fcur, t_new, y5, f_new)

            y = y5
            fcur = f_new
            t = t_new
            if err > 0:
                h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.25)))
            else:
                h = h_try * _MAX_FACTOR
        states[g] = y
    return GridSolution(grid.copy(), states, stats)


def _rk4_to_grid(f, grid, y, states, stats, inside, max_step):
    t = float(grid[0])
    for g in range(1, len(grid)):
        target = float(grid[g])
        while t < target:
            h = min(max_step, target - t)
            k1 = _checked(f, t, y, stats)
            k2 = _checked(f, t + 0.5 * h, y + 0.5 * h * k1, stats)
            k3 = _checked(f, t + 0.5 * h, y + 0.5 * h * k2, stats)
            k4 = _checked(f, t + h, y + h * k3, stats)
            y_new = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t_new = target if abs(t + h - target) <= 1e-15 * max(1.0, abs(target)) else t + h
            stats.record(h)
            if inside is not None and not inside(y_new):
                f_new = _checked(f, t_new, y_new, stats)
                return _exit_solution(grid, g, states, stats, inside, t, y, k1, t_new, y_new, f_new)
            y, t = y_new, t_new
        states[g] = y
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
            return a * s**3 / 3.0 + b * s**2 / 2.0 + f0 * s

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
