import math

import numpy as np
import pytest

import horoflow.stepping as stepping
from horoflow.counterexample import (RUNG_TOL, counterexample_field, reconstruct_trajectory,
                                     solve_regularized, trivial_trajectory, uv_rhs)
from horoflow.domain import Box
from horoflow.fields import evaluate_field, field_from_spec, horizontal_field
from horoflow.flow import CauchyProblem, integrate, residual
from horoflow.gates import InputError
from horoflow.stepping import (IntegratorConfig, NonFiniteRHSError, NonFiniteStateError,
                               StepStats, StepUnderflowError, Trajectory, cumulative_simpson,
                               solve_to_grid)
from horoflow.uniqueness import check_involutive, reduced_solve

CFG = IntegratorConfig(dense_output_grid=257)


def x1_field(heis):
    return horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 0.0))


def simpson_loop_oracle(y, x):
    """Reference cumulative Simpson: one interpolating quadratic per pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[:, None]
    n = len(x)
    out = np.zeros_like(y)
    if n == 2:
        out[1] = 0.5 * (x[1] - x[0]) * (y[0] + y[1])

    def quad_halves(t0, t1, t2, f0, f1, f2):
        # integrals of the interpolating quadratic over [t0,t1] and [t1,t2]
        h1, h2 = t1 - t0, t2 - t0
        den = h1 * h2 * (h2 - h1)
        a = ((f2 - f0) * h1 - (f1 - f0) * h2) / den
        b = ((f1 - f0) * h2 * h2 - (f2 - f0) * h1 * h1) / den

        def F(s):
            return a * s**3 / 3.0 + b * s**2 / 2.0 + f0 * s

        return F(h1) - F(0.0), F(h2) - F(h1)

    for i in range(0, n - 2, 2):
        I1, I2 = quad_halves(x[i], x[i + 1], x[i + 2], y[i], y[i + 1], y[i + 2])
        out[i + 1] = out[i] + I1
        out[i + 2] = out[i] + I1 + I2
    if n > 2 and (n - 1) % 2 == 1:
        _, I2 = quad_halves(x[n - 3], x[n - 2], x[n - 1], y[n - 3], y[n - 2], y[n - 1])
        out[n - 1] = out[n - 2] + I2
    return out[:, 0] if single else out


def contd8_oracle(y, y8, h, k):
    """dop853.f's dense output on one step of length h from y, as a function
    of the step fraction s (a number or a 1-D array): the CONT array its
    step loop fills, read back by its CONTD8.

    r3 is the Fortran's ydiff - h k4 - bspl, here 2 ydiff - h (k12 + k0) as
    the stepper rounds it; both are the same number in exact arithmetic."""
    ydiff = y8 - y
    bspl = h * k[0] - ydiff
    d = h * (stepping._D @ k.reshape(16, -1)).reshape((4,) + y.shape)
    con = (y, ydiff, bspl, 2.0 * ydiff - h * (k[12] + k[0]), *d)

    def at(s):
        s = np.reshape(s, np.shape(s) + (1,) * y.ndim)
        s1 = 1.0 - s
        conf = con[4] + s * (con[5] + s1 * (con[6] + s * con[7]))
        return con[0] + s * (con[1] + s1 * (con[2] + s * (con[3] + s1 * conf)))
    return at


def stepper_loop_oracle(f, grid, y0, cfg=IntegratorConfig(), inside=None):
    """Reference solve: the stepper's loop with each accepted step's grid
    states read from its own ``contd8_oracle`` at once, before the next step.
    Returns (times, states, stats, exit_time)."""
    grid = np.asarray(grid, dtype=float)
    y = np.array(y0, dtype=float)
    stats = StepStats()
    states = np.empty((len(grid),) + y.shape)
    states[0] = y
    t, t_end = float(grid[0]), float(grid[-1])
    h = min(cfg.max_step, float(grid[1] - grid[0]))
    k = np.empty((16,) + y.shape)
    kf = k.reshape(16, -1)

    def slope(s, t_s, x):
        k[s] = f(t_s, x)
        stats.rhs_evals += 1

    def stages(todo, t, y, h):
        for s in todo:
            ys = (stepping._A[s, :s] @ kf[:s]).reshape(y.shape) * h + y
            slope(s, t + stepping._C[s] * h, ys)

    slope(0, t, y)
    g = 1
    while t < t_end:
        rest = t_end - t
        h_try = min(h, cfg.max_step)
        if stepping._STRETCH * h_try >= rest:
            h_try = rest
        while True:
            stages(range(1, 12), t, y, h_try)
            est = h_try * (stepping._STEP_W @ kf[:12])
            y8 = y + est[0].reshape(y.shape)
            scale = ((cfg.abs_tol + cfg.rel_tol * np.maximum(abs(y), abs(y8)).ravel())
                     * max(h_try / (t_end - grid[0]), stepping._BUDGET_FLOOR))
            e5, e3 = (est[1:] / scale) * (est[1:] / scale)
            den = np.sqrt(e5 + 0.01 * e3)
            err = float((e5 / np.where(den > 0.0, den, 1.0)).max())
            t_new = t_end if h_try == rest else t + h_try
            j = int(np.searchsorted(grid, t_new, side="right"))
            if j > g or inside is not None:
                slope(12, t + h_try, y8)
                stages((13, 14, 15), t, y, h_try)
                r7 = h_try * (stepping._D[3] @ kf)
                err = max(err, stepping._DENSE_WEIGHT * float((np.abs(r7) / scale).max()))
            if err <= 1.0:
                break
            stats.rejected += 1
            h_try *= max(stepping._MIN_FACTOR, stepping._SAFETY * err ** -0.125)
        stats.record(h_try, t)
        dense = contd8_oracle(y, y8, h_try, k)
        states[g:j] = dense((grid[g:j] - t) / h_try)
        if j > g and grid[j - 1] == t_new:
            states[j - 1] = y8
        if not (j > g or inside is not None):
            slope(12, t + h_try, y8)
        if inside is not None:
            n_in = g
            while n_in < j and inside(states[n_in]):
                n_in += 1
            if n_in < j or not inside(y8):
                a = grid[n_in - 1] if n_in > g else t
                b = grid[n_in] if n_in < j else t_new
                while b - a > stepping._EXIT_TOL:
                    mid = 0.5 * (a + b)
                    a, b = (mid, b) if inside(dense((mid - t) / h_try)) else (a, mid)
                t_exit = 0.5 * (a + b)
                return (np.append(grid[:n_in], t_exit),
                        np.concatenate([states[:n_in], dense((t_exit - t) / h_try)[None]]),
                        stats, t_exit)
        k[0] = k[12]
        y, t, g = y8, t_new, j
        if err > 0:
            h = h_try * min(stepping._MAX_FACTOR,
                            max(stepping._MIN_FACTOR, stepping._SAFETY * err ** -0.125))
        else:
            h = h_try * stepping._MAX_FACTOR
    return grid, states, stats, None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 257])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_cumulative_simpson_matches_loop_oracle(n, uniform, columns):
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 1.5, n) if uniform else np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.normal(size=n if columns is None else (n, columns))
    got = cumulative_simpson(y, x)
    want = simpson_loop_oracle(y, x)
    assert got.shape == want.shape == y.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_cumulative_simpson_exact_on_cubics():
    t = np.linspace(0.0, 2.0, 9)
    y = t**3 - 2 * t
    got = cumulative_simpson(y, t)
    want = t**4 / 4 - t**2
    # quadratic pieces do not integrate cubics exactly, but pairing keeps the
    # composite error at the h^4 scale even on this coarse grid
    assert np.max(np.abs(got - want)) < 2e-3
    got_quad = cumulative_simpson(t**2, t)
    assert np.allclose(got_quad, t**3 / 3, atol=1e-13)


def test_cumulative_simpson_sine_accuracy():
    t = np.linspace(0.0, 1.0, 501)
    got = cumulative_simpson(np.sin(t), t)
    assert np.max(np.abs(got - (1 - np.cos(t)))) < 1e-11


def test_straight_line_solution(heis):
    tr = integrate(CauchyProblem(x1_field(heis), (0, 0, 0), 1.0), CFG)
    want = np.column_stack([tr.times, np.zeros(257), np.zeros(257)])
    assert np.max(np.abs(tr.states - want)) <= 1e-12
    assert tr.residual <= 1e-14


def test_diagonal_field_solution(heis):
    # Oracle: with both unit coefficients the vertical velocity is
    # x1' * x2 - ... = gamma_1 - gamma_2, which vanishes by symmetry, so the
    # solution is the Euclidean diagonal (t, t, 0).
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 1.0))
    tr = integrate(CauchyProblem(b, (0, 0, 0), 1.0), CFG)
    want = np.column_stack([tr.times, tr.times, np.zeros(len(tr.times))])
    assert np.max(np.abs(tr.states - want)) <= 1e-12


def test_counterexample_trivial_branch_has_zero_residual(heis):
    b = counterexample_field("time")
    t = np.linspace(0.0, 0.5, 257)
    trivial = Trajectory(t, np.column_stack([t, np.zeros(257), np.zeros(257)]))
    assert residual(trivial, b) <= 1e-14


def test_counterexample_solve_from_origin_is_a_solution(heis):
    # the straight line is unstable under this field: roundoff makes the
    # solver slide onto a nontrivial branch.  Whatever branch it lands on
    # must still be a solution (small residual) with first coordinate = t.
    b = counterexample_field("time")
    tr = integrate(CauchyProblem(b, (0, 0, 0), 0.5), CFG)
    assert np.max(np.abs(tr.states[:, 0] - tr.times)) <= 1e-12
    assert tr.residual <= 1e-8


def test_first_coordinate_is_time_for_unit_first_coefficient(heis):
    # any field with a_1 = 1 forces gamma_1(t) = t
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: np.sin(x[..., 2] + t)))
    tr = integrate(CauchyProblem(b, (0, 0, 0), 1.0), CFG)
    assert np.max(np.abs(tr.states[:, 0] - tr.times)) <= 1e-12


def test_residual_flags_non_solution(heis):
    b = x1_field(heis)
    t = np.linspace(0.0, 1.0, 65)
    frozen = Trajectory(t, np.zeros((65, 3)))
    res = residual(frozen, b)
    assert res == pytest.approx(1.0, rel=1e-10)  # defect |b| * T at the end


def test_residual_on_two_and_three_points_is_the_trapezoid_and_simpson_sum(heis):
    # x' = t^4 X1, and X1 = (1, 0, 0) where x2 = 0, so f = (t^4, 0, 0) on
    # every state below.  On t = 0, 2 the trapezoid sum is (2/2)(0 + 16) = 16
    # (the integral is 6.4).  On t = 0, 1, 2 Simpson's sum is
    # (2/6)(0 + 4 + 16) = 20/3, and the first half of its quadratic
    # 7 t^2 - 6 t is 7/3 - 3 = -2/3
    b = horizontal_field(heis, (lambda t, x: t**4, lambda t, x: 0.0))
    assert residual(Trajectory(np.array([0.0, 2.0]), np.zeros((2, 3))), b) == 16.0
    t = np.array([0.0, 1.0, 2.0])
    assert residual(Trajectory(t, np.zeros((3, 3))), b) == pytest.approx(20 / 3, rel=1e-15)
    states = np.zeros((3, 3))
    states[2, 0] = 20 / 3  # the end state meets Simpson's sum, the midpoint misses its half
    assert residual(Trajectory(t, states), b) == pytest.approx(2 / 3, rel=1e-14)


def test_residual_counterexample_adaptive_tolerance(heis):
    b = counterexample_field("time")
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10, dense_output_grid=513)
    x0 = (0.0, 0.05, 0.0)  # off the trivial branch, genuinely curved solve
    tr = integrate(CauchyProblem(b, x0, 0.5), cfg)
    assert tr.residual <= 1e-8


def per_point_residual(tr, field):
    """The integral-form residual with one field evaluation per grid point."""
    rhs = np.vstack([evaluate_field(field, t, x) for t, x in zip(tr.times, tr.states)])
    return float(np.max(np.abs(tr.states - tr.states[0] - cumulative_simpson(rhs, tr.times))))


@pytest.mark.parametrize("variant", ["time", "autonomous"])
def test_residual_equals_the_per_point_residual(heis, variant):
    b = counterexample_field(variant)
    tr = integrate(CauchyProblem(b, (0.0, 0.05, 0.0), 0.5), CFG)
    spec = {"coefficients": [{"form": "sin_coordinate", "index": 3, "scale": 2.0},
                             {"form": "distance_to_point", "point": [-0.838, 0.215, -0.247]}]}
    kinked = field_from_spec(heis, spec)
    free = integrate(CauchyProblem(kinked, (0.443, 0.011, 0.476), 2.0), CFG)
    for field, path in ((b, tr), (kinked, free)):
        assert residual(path, field) == per_point_residual(path, field)


def test_adaptive_residual_meets_tolerance_contract(heis):
    # error-per-unit-step control keeps the whole-horizon defect at the
    # tolerance scale; the default output grid keeps the Simpson check from
    # flooring the measurement
    b = horizontal_field(heis, (lambda t, x: 1.0 + x[..., 1] ** 2, lambda t, x: x[..., 0]))
    p = CauchyProblem(b, (0.1, 0.2, 0.0), 1.0)
    cfg = IntegratorConfig()
    adaptive = integrate(p, cfg)
    assert adaptive.residual <= 10 * cfg.abs_tol


def test_domain_exit_truncates_at_boundary(heis):
    box = Box((-1, -1, -1), (0.5, 1, 1))
    p = CauchyProblem(x1_field(heis), (0, 0, 0), 2.0, box)
    tr = integrate(p, CFG)
    assert tr.exited
    assert tr.exit_time == pytest.approx(0.5, abs=1e-9)
    assert tr.times[-1] == pytest.approx(0.5, abs=1e-9)
    assert tr.states[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert len(tr.times) < 257


def test_exited_is_read_from_the_exit_time():
    # a solve's exit is one fact: exited cannot disagree with exit_time
    times, states = np.linspace(0.0, 1.0, 3), np.zeros((3, 1))
    assert Trajectory(times, states, exit_time=0.5).exited
    assert Trajectory(times, states, exit_time=0.0).exited
    assert not Trajectory(times, states).exited
    assert not solve_to_grid(lambda t, y: np.array([1.0]), times, [0.0]).exited


def test_domain_exit_interpolates_with_the_step_start_slope():
    # y = t^2 is reproduced exactly by the step's continuous extension, which
    # starts from the step-start slope k[0], so the exit at sqrt(1/2) is found
    # to the bisection tolerance; an interpolant that took the step-end slope
    # at both ends misplaced it by 2.4e-3
    sol = solve_to_grid(lambda t, y: np.array([2.0 * t]), np.linspace(0.0, 1.0, 5), [0.0],
                        inside=lambda y: y[0] < 0.5)
    assert sol.exited
    assert sol.exit_time == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert sol.states[-1, 0] == pytest.approx(0.5, abs=1e-9)


# --------------------------------------------------------------------------- dense output


def test_dense_output_matches_step_ends_and_slopes():
    rng = np.random.default_rng(5)
    y, y8 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    k = rng.normal(size=(16, 3, 2))
    h = 0.37
    coef = np.empty((8, 3, 2))
    stepping._contd8_coefficients(y, y8, h, k, coef)

    def dense(theta):
        return stepping._contd8(np.reshape(theta, np.shape(theta) + (1, 1)), coef.__getitem__)
    assert np.allclose(dense(0.0), y, rtol=0, atol=1e-15)
    assert np.allclose(dense(1.0), y8, rtol=0, atol=1e-15)
    # the interpolant is a polynomial in theta, so a complex step gives its
    # theta-derivative to roundoff; its end slopes are the step-start slope
    # and the FSAL slope f(t+h, y8)
    for theta, slope in ((0.0, k[0]), (1.0, k[12])):
        d = dense(theta + 1e-30j).imag / 1e-30
        assert np.allclose(d, h * slope, rtol=0, atol=1e-14)
    # an array of fractions is one state per fraction
    both = dense(np.array([0.0, 1.0]))
    assert both.shape == (2, 3, 2)
    assert np.allclose(both, [y, y8], rtol=0, atol=1e-15)


def test_dense_grid_states_meet_the_tolerance_on_a_rotation():
    # y' = A y rotates; a 2049-point grid puts about 100 grid times inside
    # every step.  The interpolated states are 3.1e-10 off; without the
    # interpolant's own error test (``stepping`` docstring) the steps meet
    # the tolerance at their ends, and the states between them are 1.6e-9
    # off
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    grid = np.linspace(0.0, 2.0 * np.pi, 2049)
    sol = solve_to_grid(lambda t, y: rot @ y, grid, [1.0, 0.0],
                        IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8))
    assert sol.stats.steps < len(grid) // 10
    exact = np.column_stack([np.cos(grid), np.sin(grid)])
    assert np.max(np.abs(sol.states - exact)) <= 0.1 * 1e-8


def _rotation(t, y):
    return np.array([-y[1], y[0]])


@pytest.mark.parametrize("case", ["rotation-65", "rotation-2049", "ladder", "box-exit",
                                  "two-points", "step-ends-on-grid", "grid-at-every-4th-end"])
def test_block_fill_matches_loop_oracle(case):
    # grid states filled a block of steps at a time are the per-step fill's,
    # bit for bit, and so are the steps, the statistics and the exit
    quartic = Box((-1.0, -1.0), (2.0, 0.7**4))
    f, grid, y0, cfg, inside = {
        "rotation-65": (_rotation, np.linspace(0.0, 2.0 * np.pi, 65), [1.0, 0.0],
                        IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8), None),
        "rotation-2049": (_rotation, np.linspace(0.0, 2.0 * np.pi, 2049), [1.0, 0.0],
                          IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8), None),
        "ladder": (lambda t, y: uv_rhs("time", np.array([0.1, 0.05, 0.025]), t, y),
                   np.linspace(0.0, 0.2, 257), np.ones((3, 2)),
                   IntegratorConfig(abs_tol=RUNG_TOL, rel_tol=RUNG_TOL), None),
        "box-exit": (lambda t, y: np.array([1.0, 4.0 * t**3]), np.linspace(0.0, 1.0, 2049),
                     [0.0, 0.0], IntegratorConfig(), quartic.contains),
        "two-points": (lambda t, y: np.cos(t) * y, [0.0, 3.0], [1.0, 2.0], IntegratorConfig(),
                       None),
        # steps of max_step = the grid spacing: some step ends fall on a grid
        # time, where the step's end state, not its interpolant, is stored
        "step-ends-on-grid": (lambda t, y: np.cos(3.0 * t) * np.array([1.0, -2.0]),
                              np.linspace(0.0, 1.0, 41), [-0.1, 0.05],
                              IntegratorConfig(max_step=0.025), None),
        # steps of 1/32 on a grid 1/8 apart: a step fills nothing, or only
        # its own end
        "grid-at-every-4th-end": (lambda t, y: np.cos(t) * np.ones(2), np.linspace(0.0, 1.0, 9),
                                  [0.0, 0.0], IntegratorConfig(max_step=1 / 32), None),
    }[case]
    times, states, stats, exit_time = stepper_loop_oracle(f, grid, y0, cfg, inside)
    sol = solve_to_grid(f, grid, y0, cfg, inside)
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.states, states)
    assert sol.stats.as_dict() == stats.as_dict()
    assert sol.exit_time == exit_time
    assert sol.exited == (case == "box-exit")


def test_step_count_does_not_depend_on_the_grid():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    stats = [solve_to_grid(lambda t, y: rot @ y, np.linspace(0.0, 2.0 * np.pi, n), [1.0, 0.0],
                           IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)).stats
             for n in (65, 2049)]
    coarse, fine = stats
    assert abs(coarse.steps - fine.steps) <= 3
    assert abs(coarse.rhs_evals - fine.rhs_evals) <= 3 * 6


def test_box_exit_inside_a_long_step_fills_the_grid_before_it():
    # y = (t, t^4) is a quartic, which the seventh-order continuous extension
    # reproduces and a cubic Hermite interpolant does not.  Every step is
    # accepted at five times the last, so the exit at t = 0.7 falls inside a
    # step that spans hundreds of grid times
    box = Box((-1.0, -1.0), (2.0, 0.7**4))
    grid = np.linspace(0.0, 1.0, 2049)
    sol = solve_to_grid(lambda t, y: np.array([1.0, 4.0 * t**3]), grid, [0.0, 0.0],
                        inside=box.contains)
    assert sol.exited
    assert sol.stats.steps <= 8
    assert sol.stats.max_step > 200 * grid[1]
    reached = grid[grid < 0.7]
    assert np.array_equal(sol.times[:-1], reached)
    exact = np.column_stack([reached, reached**4])
    assert np.max(np.abs(sol.states[:-1] - exact)) <= 1e-12
    assert sol.exit_time == pytest.approx(0.7, abs=1e-8)
    assert abs(sol.states[-1, 1] - 0.7**4) <= 1e-8


def test_horizon_is_reached_without_a_sliver_step():
    # y = t^2 is solved exactly, so after the first step (the grid spacing
    # 0.2) the step grows to 1.0.  A remainder within 1 % of that step is
    # taken as one stretched step, as in dop853, even past max_step; a
    # longer one is not
    def steps(t_end, cfg=IntegratorConfig()):
        sol = solve_to_grid(lambda t, y: np.array([2.0 * t]), [0.0, 0.2, t_end], [0.0], cfg)
        assert sol.states[-1, 0] == pytest.approx(t_end**2, abs=1e-12)
        return sol.stats.steps, sol.stats.min_step

    assert steps(1.205) == (2, 0.2)
    assert steps(1.25) == (3, pytest.approx(0.05))
    assert steps(1.205, IntegratorConfig(max_step=1.0)) == (2, 0.2)
    # six steps of max_step = 1/6 leave a remainder one rounding unit past
    # max_step; it is stretched onto, not followed by a 1e-16 seventh step
    sol = solve_to_grid(lambda t, y: np.cos(t), np.linspace(0.0, 1.0, 7), [0.0],
                        IntegratorConfig(max_step=1 / 6))
    assert (sol.stats.steps, sol.stats.rhs_evals) == (6, 91)


@pytest.mark.parametrize("kw, match", [
    ({"dense_output_grid": True}, "dense_output_grid must be an integer"),
    ({"abs_tol": "x"}, "abs_tol must be a number"),
    ({"max_step": None}, "max_step must be a number"),
    ({"rel_tol": True}, "rel_tol must be a number"),
    ({"dense_output_grid": 100.5}, "must be an integer"),
    ({"abs_tol": 0.0}, "tolerances"),
    ({"rel_tol": math.nan}, "tolerances"),
    ({"max_step": math.nan}, "min_step"),
    ({"min_step": 1e-3, "max_step": 1e-4}, "min_step"),
    ({"dense_output_grid": 1}, "two points"),
])
def test_integrator_config_rejects_bad_values(kw, match):
    with pytest.raises(ValueError, match=match):
        IntegratorConfig(**kw)


def test_step_stats_are_plain_floats_with_the_time_of_the_smallest_step():
    st = StepStats()
    st.record(np.float64(0.5), np.float64(0.0))
    st.record(np.float64(0.25), np.float64(0.5))
    st.record(0.5, 0.75)
    d = st.as_dict()
    assert (d["min_step"], d["min_step_t"], d["max_step"]) == (0.25, 0.5, 0.5)
    assert all(type(d[key]) is float for key in ("min_step", "min_step_t", "max_step"))
    assert StepStats().as_dict()["min_step_t"] is None


def test_batched_state_matches_separate_solves():
    # a (3, 2) state is three uncoupled systems on one step sequence
    rates = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    grid = np.linspace(0.0, 1.0, 9)
    batched = solve_to_grid(lambda t, y: rates * y, grid, np.ones((3, 2)))
    assert batched.states.shape == (9, 3, 2)
    assert np.max(np.abs(batched.states - np.exp(np.multiply.outer(grid, rates)))) <= 1e-9
    for i, r in enumerate(rates):
        alone = solve_to_grid(lambda t, y: r * y, grid, np.ones(2))
        assert np.max(np.abs(batched.states[:, i] - alone.states)) <= 1e-9


def test_x0_outside_domain_rejected(heis):
    box = Box((-1, -1, -1), (1, 1, 1))
    with pytest.raises(ValueError, match="outside"):
        CauchyProblem(x1_field(heis), (2.0, 0, 0), 1.0, box)


def test_box_contains_its_corners_but_no_nan_or_infinity():
    box = Box((-1.0, -2.0, 0.0), (1.0, 2.0, 3.0))
    assert box.contains([-1.0, 2.0, 3.0]) and box.contains(np.array([1.0, -2.0, 0.0]))
    assert not box.contains([np.nextafter(1.0, 2.0), 0.0, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        assert not box.contains([0.0, bad, 1.0])


@pytest.mark.parametrize("lo, hi", [((0.0, math.nan), (1.0, 1.0)),
                                    ((0.0, 0.0), (math.nan, 1.0))], ids=["lo", "hi"])
def test_box_with_a_nan_bound_is_degenerate(lo, hi):
    # nan >= b is false, so a check written as a >= b would accept this box,
    # which contains no point
    with pytest.raises(InputError, match="degenerate box"):
        Box(lo, hi)


def test_box_with_infinite_bounds_holds_every_finite_point():
    box = Box((-math.inf, 0.0), (math.inf, math.inf))
    assert box.contains([-1e308, 0.0]) and box.contains([1e308, 1e308])


@pytest.mark.parametrize("lo, hi", [((-1,), (1,)), ((-1, -1), (1, 1))])
def test_box_of_another_dimension_is_refused(heis, lo, hi):
    # numpy would broadcast a one-sided box to the cube [-1, 1]^3
    with pytest.raises(ValueError, match="dimension %d .* length 3" % len(lo)):
        CauchyProblem(x1_field(heis), (0.0, 0.0, 0.0), 1.0, Box(lo, hi))


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_nonpositive_horizon_is_refused_by_name(heis, horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        CauchyProblem(x1_field(heis), (0.0, 0.0, 0.0), horizon)


def test_nan_coefficient_reported(heis):
    bad = horizontal_field(heis, (lambda t, x: math.nan, lambda t, x: 0.0))
    with pytest.raises(NonFiniteRHSError):
        integrate(CauchyProblem(bad, (0, 0, 0), 1.0), CFG)


@pytest.mark.parametrize("bad_call, node", [
    (5, 1.0 / 3.0),  # step stage 5
    (14, 0.2),  # stage 14 of the continuous extension, after the FSAL slope
])
def test_non_finite_rhs_reports_the_time_of_its_stage(bad_call, node):
    # the first step from t = 0.5 has h = 0.25, the grid spacing, and ends on a
    # grid time, so it evaluates the extension's stages too; evaluation 0 is
    # f(t, y0), evaluation s is stage s, and one NaN or infinite entry at any
    # stage ends the solve at that stage's time
    for bad in (math.nan, math.inf, -math.inf):
        calls = []

        def f(t, y):
            calls.append(t)
            out = -y
            if len(calls) == bad_call + 1:
                out[1, 0] = bad
            return out

        with pytest.raises(NonFiniteRHSError) as exc:
            solve_to_grid(f, np.linspace(0.5, 1.5, 5), np.ones((2, 3)))
        assert exc.value.time == 0.5 + node * 0.25
        assert calls[-1] == exc.value.time
        assert len(calls) == bad_call + 1


def test_finite_rhs_near_the_float_maximum_is_not_refused():
    # entries whose sums and squares overflow are still finite: every value of
    # the first step passes the finiteness test, and the solve goes on to the
    # FSAL slope, where this right-hand side stops it
    class Reached(Exception):
        pass

    huge = np.array([[1.5e308, 1.5e308, -1.5e308], [-1.5e308, -1.5e308, 1.5e308]])
    calls = []

    def f(t, y):
        calls.append(t)
        if len(calls) == 13:
            raise Reached
        return huge

    with pytest.raises(Reached):
        solve_to_grid(f, [0.0, 1.0], np.zeros((2, 3)))
    assert calls[-1] == 1.0


def test_overflowing_state_ends_the_solve():
    # a finite slope of 1e300 takes the state past the float maximum in the
    # first step, h = 2.5e9: its end state is infinite, so the solve stops at
    # that step's start rather than returning inf and NaN states
    with pytest.raises(NonFiniteStateError) as exc:
        solve_to_grid(lambda t, y: np.array([1e300]), np.linspace(0.0, 1e10, 5), [0.0])
    assert exc.value.time == 0.0
    assert isinstance(exc.value, NonFiniteRHSError)


def test_overflowing_grid_state_ends_the_solve():
    # the step from 4.25e7 to 1.7e8 ends on a finite 1.7e308, but its
    # interpolant overflows (2 dy is infinite) at the grid times inside it
    with pytest.raises(NonFiniteStateError) as exc:
        solve_to_grid(lambda t, y: np.array([1e300]), np.linspace(0.0, 1.7e8, 5), [0.0])
    assert exc.value.time == 4.25e7



@pytest.mark.parametrize("later", ["nan-slope", "overflowing-step-end"])
def test_an_earlier_overflowing_grid_state_is_the_failure_reported(later):
    # as above, the interpolant of the step from 4.25e7 to 1.7e8 overflows;
    # max_step lets the solve go on past it, into a NaN slope or a step end
    # past the float maximum.  Grid states are filled for a block of steps
    # at a time, and any later failure first fills the waiting steps, so
    # the solve still ends at the earlier step's start
    def f(t, y):
        return np.array([math.nan if later == "nan-slope" and t > 1.7e8 else 1e300])

    with pytest.raises(NonFiniteStateError) as exc:
        solve_to_grid(f, np.linspace(0.0, 3.4e8, 9), [0.0], IntegratorConfig(max_step=1.275e8))
    assert exc.value.time == 4.25e7


def test_box_exit_is_found_before_f_is_called_for_a_later_step():
    # with a domain every step's grid states are filled and tested before
    # the next step starts: past the exit at t = 0.7, f is called only by
    # the stages of the step from 0.51 to 1.95 that holds it (12 of its 15
    # evaluations), never by a later step of the horizon 10
    calls = []

    def f(t, y):
        calls.append(t)
        return np.array([1.0, 4.0 * t**3])

    box = Box((-1.0, -1.0), (20.0, 0.7**4))
    sol = solve_to_grid(f, np.linspace(0.0, 10.0, 2049), [0.0, 0.0], inside=box.contains)
    assert sol.exit_time == pytest.approx(0.7, abs=1e-8)
    assert sol.stats.rejected == 0 and sol.stats.rhs_evals == len(calls)
    first_late = next(i for i, c in enumerate(calls) if c > sol.exit_time)
    assert len(calls) - first_late < 15
    assert max(calls) <= sol.exit_time + sol.stats.max_step


def test_finite_states_near_the_float_maximum_are_not_refused():
    # states whose sums overflow are still finite, and so is a step that
    # ends at 1e308
    tr = solve_to_grid(lambda t, y: np.zeros(3), np.linspace(0.0, 1.0, 5), np.full(3, 1.7e308))
    assert np.all(tr.states == 1.7e308)
    tr = solve_to_grid(lambda t, y: np.array([1e300]), [0.0, 1e8], [0.0])
    assert tr.states[-1, 0] == pytest.approx(1e308, rel=1e-12)


def test_every_solve_returns_one_trajectory(heis):
    # the ladder's rungs are one solve with (grid, rungs, 2) states
    ladder = solve_regularized("time", [0.1, 0.05, 0.025], 0.2, 16)
    assert ladder.states.shape == (16, 3, 2)
    mod = check_involutive(heis, [[1.0, 0.0, 0.0]])
    solves = [
        ladder,
        integrate(CauchyProblem(x1_field(heis), (0, 0, 0), 1.0), CFG),
        reduced_solve(mod, [lambda t, x: 1.0], np.zeros(3), 1.0, CFG),
        reconstruct_trajectory(ladder.times, ladder.states[:, -1]),
        trivial_trajectory(ladder.times),
    ]
    assert all(type(tr) is Trajectory for tr in solves)


def test_step_underflow_reports_location(heis):
    # finite-time blow-up at gamma_1 -> 1.001 starves the step size
    steep = horizontal_field(
        heis, (lambda t, x: 1.0 / (1.001 - x[..., 0]), lambda t, x: 0.0)
    )
    cfg = IntegratorConfig(dense_output_grid=65, min_step=1e-10)
    with pytest.raises((StepUnderflowError, NonFiniteRHSError)) as exc:
        integrate(CauchyProblem(steep, (0, 0, 0), 1.0), cfg)
    assert 0.0 < exc.value.time <= 1.0


def test_trajectory_invariants(heis):
    tr = integrate(CauchyProblem(x1_field(heis), (0.5, 0.5, 0.5), 1.0), CFG)
    assert tr.times[0] == 0.0
    assert np.allclose(tr.states[0], [0.5, 0.5, 0.5])
    assert np.all(np.diff(tr.times) > 0)


def test_blow_up_raises_once_t_stops_moving():
    # x' = x^2 from x = 1 blows up at t = 1.  The steps follow the blow-up at
    # about 35 a decade of 1 - t; once a step no longer moves t, the solve
    # raises instead of stepping on at a frozen t, where 205,050 of 225,887
    # evaluations were spent before the guard
    calls = []

    def f(t, y):
        calls.append(t)
        return y * y

    with pytest.raises(StepUnderflowError) as exc:
        solve_to_grid(f, np.linspace(0.0, 2.0, 65), [1.0], IntegratorConfig(min_step=0.0))
    assert exc.value.time == pytest.approx(1.0, abs=1e-12)
    assert len(calls) < 10_000


def test_min_step_bounds_every_step():
    # the same blow-up with min_step = 1e-6: a step attempt shorter than
    # min_step raises, first try or retry, so the solve stops near
    # 1 - t = 1.4e-5 (2,470 evaluations) instead of following the blow-up
    # down to rounding (4.4e-16 after 5,965, when only retries were floored)
    calls = []

    def f(t, y):
        calls.append(t)
        return y * y

    with pytest.raises(StepUnderflowError) as exc:
        solve_to_grid(f, np.linspace(0.0, 2.0, 65), [1.0], IntegratorConfig(min_step=1e-6))
    assert 1e-5 < 1.0 - exc.value.time < 2e-5
    assert len(calls) < 3_000


def test_step_budget_counts_every_attempt(monkeypatch):
    # an oscillator over 20 periods, with rejected steps: a budget of exactly
    # its attempts lets it finish, one attempt less ends it where it stood
    def f(t, y):
        return np.array([y[1], -100.0 * y[0]])

    grid = np.linspace(0.0, 4.0 * math.pi, 65)
    stats = solve_to_grid(f, grid, [1.0, 0.0]).stats
    attempts = stats.steps + stats.rejected
    assert stats.rejected > 0 and attempts > 10
    monkeypatch.setattr(stepping, "MAX_STEP_ATTEMPTS", attempts)
    assert solve_to_grid(f, grid, [1.0, 0.0]).stats.as_dict() == stats.as_dict()
    monkeypatch.setattr(stepping, "MAX_STEP_ATTEMPTS", attempts - 1)
    with pytest.raises(stepping.StepBudgetError, match=f"{attempts - 1} attempts") as exc:
        solve_to_grid(f, grid, [1.0, 0.0])
    assert exc.value.kind == "step_budget"
    assert 0.0 < exc.value.time < grid[-1]
