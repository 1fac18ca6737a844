import math

import numpy as np
import pytest

from horoflow import (Box, CauchyProblem, IntegratorConfig, Trajectory,
                      heisenberg, horizontal_field, integrate, residual,
                      translate)
from horoflow.counterexample import counterexample_field
from horoflow.stepping import (NonFiniteRHSError, StepUnderflowError,
                               cumulative_simpson, solve_to_grid)

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
    b = counterexample_field(heis, "time")
    t = np.linspace(0.0, 0.5, 257)
    trivial = Trajectory(t, np.column_stack([t, np.zeros(257), np.zeros(257)]), {})
    assert residual(trivial, b) <= 1e-14


def test_counterexample_solve_from_origin_is_a_solution(heis):
    # the straight line is unstable under this field: roundoff makes the
    # solver slide onto a nontrivial branch.  Whatever branch it lands on
    # must still be a solution (small residual) with first coordinate = t.
    b = counterexample_field(heis, "time")
    tr = integrate(CauchyProblem(b, (0, 0, 0), 0.5), CFG)
    assert np.max(np.abs(tr.states[:, 0] - tr.times)) <= 1e-12
    assert tr.residual <= 1e-8


def test_first_coordinate_is_time_for_unit_first_coefficient(heis):
    # any field with a_1 = 1 forces gamma_1(t) = t
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: math.sin(x[2] + t)))
    tr = integrate(CauchyProblem(b, (0, 0, 0), 1.0), CFG)
    assert np.max(np.abs(tr.states[:, 0] - tr.times)) <= 1e-12


def test_residual_flags_non_solution(heis):
    b = x1_field(heis)
    t = np.linspace(0.0, 1.0, 65)
    frozen = Trajectory(t, np.zeros((65, 3)), {})
    res = residual(frozen, b)
    assert res == pytest.approx(1.0, rel=1e-10)  # defect |b| * T at the end


def test_residual_needs_enough_samples(heis):
    t = np.linspace(0.0, 1.0, 4)
    tr = Trajectory(t, np.zeros((4, 3)), {})
    with pytest.raises(ValueError, match="coarse"):
        residual(tr, x1_field(heis))


def test_residual_counterexample_adaptive_tolerance(heis):
    b = counterexample_field(heis, "time")
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10, dense_output_grid=513)
    x0 = (0.0, 0.05, 0.0)  # off the trivial branch, genuinely curved solve
    tr = integrate(CauchyProblem(b, x0, 0.5), cfg)
    assert tr.residual <= 1e-8


def test_translate_identity(heis):
    p = CauchyProblem(x1_field(heis), (0.2, 0.1, 0.0), 1.0)
    q = translate(p, np.zeros(3))
    assert np.allclose(q.x0, p.x0)
    tr_p = integrate(p, CFG)
    tr_q = integrate(q, CFG)
    assert np.max(np.abs(tr_p.states - tr_q.states)) <= 1e-12


def test_translate_straight_line(heis):
    # (0,1,0) * (t,0,0) = (t, 1, -t)
    p = CauchyProblem(x1_field(heis), (0, 0, 0), 1.0)
    q = translate(p, np.array([0.0, 1.0, 0.0]))
    tr = integrate(q, CFG)
    want = np.column_stack([tr.times, np.ones(len(tr.times)), -tr.times])
    assert np.max(np.abs(tr.states - want)) <= 1e-12


@pytest.mark.parametrize("make_field", [
    lambda alg: horizontal_field(alg, (lambda t, x: 1.0, lambda t, x: 0.0)),
    lambda alg: horizontal_field(alg, (lambda t, x: 1.0, lambda t, x: t)),
    lambda alg: counterexample_field(alg, "time"),
])
def test_translation_equivariance(heis, make_field):
    xbar = np.array([0.3, -0.4, 0.25])
    p = CauchyProblem(make_field(heis), (0.0, 0.1, 0.0), 0.5)
    direct = integrate(p, CFG)
    shifted = integrate(translate(p, xbar), CFG)
    moved = heis.multiply_batch(np.tile(xbar, (len(direct.states), 1)), direct.states)
    assert np.max(np.abs(shifted.states - moved)) <= 1e-8


def test_translate_counterexample_trivial_branch(heis):
    # the translated straight line is a solution of the translated problem:
    # its residual under the shifted coefficients vanishes identically
    b = counterexample_field(heis, "time")
    xbar = np.array([0.1, 0.7, -0.3])
    p = CauchyProblem(b, (0, 0, 0), 0.5)
    q = translate(p, xbar)
    t = np.linspace(0.0, 0.5, 257)
    line = np.column_stack([t, np.zeros(257), np.zeros(257)])
    moved = heis.multiply_batch(np.tile(xbar, (257, 1)), line)
    # the shifted coefficient reads the gauge of a roundoff-level group
    # difference, and the quartic root turns eps into sqrt(eps) ~ 1e-8;
    # that floor is intrinsic to the non-Euclidean-Lipschitz coefficient
    assert residual(Trajectory(t, moved, {}), q.field) <= 1e-7


def test_rk4_order_study(heis):
    # smooth polynomial coefficients; residual (independent Simpson check)
    # must fall by >= 8x per step halving, three times
    b = horizontal_field(heis, (lambda t, x: 1.0 + x[1] ** 2, lambda t, x: x[0]))
    residuals = []
    for k in range(4):
        n = 16 * 2**k
        cfg = IntegratorConfig(method="rk4", max_step=1.0 / n, dense_output_grid=n + 1)
        tr = integrate(CauchyProblem(b, (0.1, 0.2, 0.0), 1.0), cfg)
        residuals.append(tr.residual)
    for a, c in zip(residuals, residuals[1:]):
        assert c <= a / 8.0


def test_adaptive_residual_meets_tolerance_contract(heis):
    # error-per-unit-step control keeps the whole-horizon defect at the
    # tolerance scale; the default output grid keeps the Simpson check from
    # flooring the measurement
    b = horizontal_field(heis, (lambda t, x: 1.0 + x[1] ** 2, lambda t, x: x[0]))
    p = CauchyProblem(b, (0.1, 0.2, 0.0), 1.0)
    adaptive = integrate(p, IntegratorConfig())
    assert adaptive.residual <= 10 * adaptive.meta["abs_tol"]


def test_domain_exit_truncates_at_boundary(heis):
    box = Box((-1, -1, -1), (0.5, 1, 1))
    p = CauchyProblem(x1_field(heis), (0, 0, 0), 2.0, box)
    tr = integrate(p, CFG, with_residual=False)
    assert tr.exited
    assert tr.meta["exit_time"] == pytest.approx(0.5, abs=1e-9)
    assert tr.times[-1] == pytest.approx(0.5, abs=1e-9)
    assert tr.states[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert len(tr.times) < 257


def test_domain_exit_interpolates_with_the_step_start_slope():
    # y = t^2 is its own cubic Hermite interpolant when both end slopes are
    # right, so the exit at sqrt(1/2) is found to the bisection tolerance;
    # taking the step-end slope at both ends misplaced it by 2.4e-3
    sol = solve_to_grid(lambda t, y: np.array([2.0 * t]), np.linspace(0.0, 1.0, 5), [0.0],
                        inside=lambda y: y[0] < 0.5)
    assert sol.exited
    assert sol.exit_time == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert sol.states[-1, 0] == pytest.approx(0.5, abs=1e-9)


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


def test_nan_coefficient_reported(heis):
    bad = horizontal_field(heis, (lambda t, x: math.nan, lambda t, x: 0.0))
    with pytest.raises(NonFiniteRHSError):
        integrate(CauchyProblem(bad, (0, 0, 0), 1.0), CFG)


def test_step_underflow_reports_location(heis):
    # finite-time blow-up at gamma_1 -> 1.001 starves the step size
    steep = horizontal_field(
        heis, (lambda t, x: 1.0 / (1.001 - x[0]), lambda t, x: 0.0)
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
