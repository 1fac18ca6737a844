import math
from functools import partial

import numpy as np
import pytest

from horoflow import counterexample as cx
from horoflow.counterexample import (GAP_TOL, MONITOR_TOL, RUNG_TOL, SEPARATION_FACTOR,
                                     LadderSpec, build_nonuniqueness_report, gap_convergence,
                                     nonuniqueness_report, reconstruct_trajectory,
                                     rung_monitor_report, run_epsilon_ladder,
                                     scaled_axis_distance_with_minimizer,
                                     singular_integral_residual, solve_regularized,
                                     trivial_trajectory, uv_rhs)
from horoflow.gates import all_passed
from horoflow.gauges import distance_to_axis, distance_to_axis_point
from horoflow.stepping import IntegratorConfig, solve_to_grid

FAST = 512  # grid points of a rung solve; the default ladder uses 2048


def grid_minimum_oracle(t, u, v, n=1_000_000, half_width=10.0):
    """Independent brute-force evaluation of the scaled axis term."""
    s = np.linspace(-half_width, half_width, n)
    b = t * u / 18.0
    a = b * b
    c = v / 36.0
    f = (s * s + a) ** 2 + (b * s + c) ** 2
    return 6.0 * float(np.min(f)) ** 0.25


# --------------------------------------------------------------------------- coefficients


def test_axis_point_distance_examples():
    for t in (0.0, 0.4, 1.3):
        assert distance_to_axis_point(t, np.array([t, 0.0, 0.0])) == 0.0
    assert distance_to_axis_point(0.0, np.array([1.0, 0.0, 0.0])) == 1.0
    want = ((1 + 1) ** 2 + 1) ** 0.25
    assert distance_to_axis_point(1.0, np.array([0.0, 1.0, 0.0])) == pytest.approx(want)


def test_axis_point_distance_is_one_lipschitz(heis, heis_dist, rng):
    for _ in range(200):
        t = rng.uniform(0, 1)
        x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        lhs = abs(distance_to_axis_point(t, x) - distance_to_axis_point(t, y))
        assert lhs <= heis_dist(x, y) + 1e-12


def test_axis_distance_examples():
    assert distance_to_axis(np.array([7.0, 0.0, 0.0])) == 0.0
    # stationarity analysis: the objective derivative is s(4(s^2+1)+2) > 0
    # for s > 0, so s = 0 is the unique minimiser and the value is 1
    assert distance_to_axis(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x2", [1e-170, -1e-170, 1e-160, 1e-155])
def test_axis_distance_near_the_axis_plane(x2):
    # x2^2 underflows (or nearly): the value is the x2 -> 0 limit |x3|^(1/2)
    # and never exceeds the distance to the origin, a point of the axis;
    # the three-coefficient Cardano form returned 1.299 at x2 = 1e-170
    x = np.array([0.0, x2, 1.0])
    assert distance_to_axis(x) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert distance_to_axis(x) <= distance_to_axis_point(0.0, x)
    rows = distance_to_axis(np.array([x, [0.0, x2, 4.0], [1.0, x2, 0.0]]))
    assert rows[0] == distance_to_axis(x) and rows[1] == pytest.approx(2.0, rel=1e-15)
    assert rows[2] <= distance_to_axis_point(1.0, [1.0, x2, 0.0])


def test_axis_distance_below_moving_point_distance(rng):
    for _ in range(200):
        t = rng.uniform(0, 2)
        x = rng.uniform(-3, 3, 3)
        assert distance_to_axis(x) <= distance_to_axis_point(t, x) + 1e-12


def test_axis_distance_matches_grid_oracle(rng):
    for _ in range(30):
        x = rng.uniform(-3, 3, 3)
        s = np.linspace(-20, 20, 1_000_000)
        f = ((x[0] - s) ** 2 + x[1] ** 2) ** 2 + (x[2] - s * x[1]) ** 2
        oracle = float(np.min(f)) ** 0.25
        assert distance_to_axis(x) == pytest.approx(oracle, abs=1e-8)


# --------------------------------------------------------------------------- scaled term


def test_scaled_term_closed_form_at_zero():
    for u in np.linspace(0.0, 3.0, 7):
        for v in np.linspace(0.0, 3.0, 7):
            assert scaled_axis_distance_with_minimizer(0.0, u, v)[0] == pytest.approx(
                math.sqrt(v), abs=1e-10
            )


def test_scaled_term_upper_bound_from_zero_shift(rng):
    # dropping the minimisation at s = 0 gives ((t/3)^4 u^4 + v^2)^(1/4)
    for _ in range(300):
        t, u, v = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 3)
        bound = ((t / 3.0) ** 4 * u**4 + v * v) ** 0.25
        val = scaled_axis_distance_with_minimizer(t, u, v)[0]
        assert 0.0 <= val <= bound + 1e-12


def test_scaled_term_matches_grid_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        t, u, v = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 3)
        assert scaled_axis_distance_with_minimizer(t, u, v)[0] == pytest.approx(
            grid_minimum_oracle(t, u, v), abs=1e-8
        )


def test_scaled_term_continuity_rate_at_zero(rng):
    # approach to sqrt(v) is at worst linear in t on the bounded box
    for _ in range(500):
        t = rng.uniform(1e-6, 1.0)
        u, v = rng.uniform(0, 3), rng.uniform(0, 3)
        assert abs(scaled_axis_distance_with_minimizer(t, u, v)[0] - math.sqrt(v)) <= 1.0 * t


def test_autonomous_drive_is_the_scaled_axis_distance():
    # uv_rhs calls the minimiser itself; its drive is the value of
    # scaled_axis_distance_with_minimizer, bit for bit
    rng = np.random.default_rng(23)
    t = rng.uniform(0.0, 1.0, 50)
    y = rng.uniform(0.0, 3.0, (50, 2))
    du = uv_rhs("autonomous", 1e-3, t, y)[:, 0]
    g = scaled_axis_distance_with_minimizer(t, y[:, 0], y[:, 1])[0]
    assert np.array_equal(du, (-3.0 * y[:, 0] + 3.0 * g) / (t + 1e-3))


def test_scaled_term_scalar_time_matches_array_time():
    # the stepper passes a scalar t, the monitors the grid as an array; the
    # scalar call skips the t = 0 selection, the rows must not notice
    rng = np.random.default_rng(17)
    u, v = rng.uniform(0.0, 3.0, (2, 14))
    for t in np.concatenate([np.logspace(-9, 0, 40), [-1e-3]]):
        value, sbar = scaled_axis_distance_with_minimizer(float(t), u, v)
        value_rows, sbar_rows = scaled_axis_distance_with_minimizer(np.full(14, t), u, v)
        assert np.array_equal(value, value_rows) and np.array_equal(sbar, sbar_rows)
    ts = np.array([0.0, 1e-9, 0.3] * 4 + [0.0, 1.0])
    value_rows, _ = scaled_axis_distance_with_minimizer(ts, u, v)
    for t in (0.0, 1e-9, 0.3, 1.0):
        value, _ = scaled_axis_distance_with_minimizer(t, u, v)
        assert np.array_equal(value[ts == t], value_rows[ts == t])
    # t = 0 still takes the closed form sqrt(|v|) exactly
    for t in (0, 0.0, np.zeros(14)):
        value, sbar = scaled_axis_distance_with_minimizer(t, u, -v)
        assert np.array_equal(value, np.sqrt(v)) and not np.any(sbar)
    assert uv_rhs("autonomous", 1e-3, 0, np.ones(2)).tolist() == [0.0, 0.0]


def test_scaled_term_at_zero_is_exact_without_a_special_case():
    # w = t u / 3 = 0 is the minimiser's b = 0 limit, f = v^2, and the square
    # root of a rounded square is exact, so the value is sqrt(|v|) to the bit
    v = np.random.default_rng(5).choice([-1.0, 1.0], 400) * 10.0 ** np.linspace(-150, 150, 400)
    value, sbar = scaled_axis_distance_with_minimizer(0.0, 2.0, v)
    assert np.array_equal(value, np.sqrt(np.abs(v))) and not np.any(sbar)
    value_rows, _ = scaled_axis_distance_with_minimizer(np.zeros(400), 2.0, v)
    assert np.array_equal(value_rows, value)
    assert scaled_axis_distance_with_minimizer(0.0, 1.0, 1.0)[0] == 1.0
    assert not np.any(uv_rhs("autonomous", np.array([1e-3, 0.1]), 0.0, np.ones((2, 2))))


def test_minimizer_continuity_against_oracle():
    # the inner minimiser moves continuously; spot-check against dense grid
    s_prev = None
    for t in np.linspace(1e-4, 0.5, 20):
        _, sbar = scaled_axis_distance_with_minimizer(t, 1.0, 1.0)
        s = np.linspace(-2, 2, 400_001)
        b = t / 18.0
        f = (s * s + b * b) ** 2 + (b * s + 1.0 / 36.0) ** 2
        s_oracle = float(s[np.argmin(f)])
        assert sbar == pytest.approx(s_oracle, abs=1e-4)
        if s_prev is not None:
            assert abs(sbar - s_prev) < 0.05
        s_prev = sbar


# --------------------------------------------------------------------------- rhs


def test_rhs_stationary_at_start():
    for eps in (1.0, 0.1, 1e-6):
        for variant in ("time", "autonomous"):
            assert uv_rhs(variant, eps, 0.0, np.ones(2)).tolist() == [0.0, 0.0]


def test_rhs_formula_example():
    du, dv = uv_rhs("time", 1.0, 0.0, np.array([1.0, 4.0]))
    assert du == pytest.approx(3.0)
    assert dv == pytest.approx(-12.0)


def test_rhs_rejects_singular_time():
    with pytest.raises(ZeroDivisionError):
        uv_rhs("time", 0.0, 0.0, np.ones(2))


@pytest.mark.parametrize("variant", ["time", "autonomous"])
@pytest.mark.parametrize("t", [0.0, -1e-3, -1, np.array([0.5, 0.0]), np.float64(0.0)])
def test_rhs_rejects_every_singular_time(variant, t):
    # a positive float t skips the test, since epsilon >= 0; any other t is tested
    with pytest.raises(ZeroDivisionError):
        uv_rhs(variant, 0.0, t, np.ones(np.shape(t) + (2,)))
    if np.ndim(t) == 0:  # one rung at t + epsilon <= 0 is enough
        with pytest.raises(ZeroDivisionError):
            uv_rhs(variant, np.array([0.0, 1.0]), t, np.ones((2, 2)))


def test_rungs_reject_an_unknown_variant_or_a_nonpositive_epsilon():
    with pytest.raises(ValueError, match="unknown variant 'timed'"):
        solve_regularized("timed", [0.1], 0.3, FAST)
    for eps in ([-1e-3], [0.1, -1e-9], [0.1, 0.0]):
        with pytest.raises(ValueError, match="epsilon > 0"):
            solve_regularized("time", eps, 0.3, FAST)


# --------------------------------------------------------------------------- rungs


def solve_one_rung(variant, eps, tau):
    sol = solve_regularized(variant, [eps], tau, FAST)
    uv = sol.states[:, 0]
    return uv, rung_monitor_report(variant, eps, sol.times, uv)


def hand_rung(t, u, v, eps):
    """The monitors of a hand-built time-variant rung (u, v) at times t."""
    return rung_monitor_report("time", eps, t, np.column_stack([u, v]))


@pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6])
def test_regularized_rung_monitors_pass(eps):
    uv, rep = solve_one_rung("time", eps, 0.5)
    assert rep["passed"], rep["failures"]
    assert rep["min_u"] >= -1e-9 and rep["min_v"] >= -1e-9
    assert rep["mix_bound_margin"] >= -1e-9
    assert rep["lower_mix_margin"] >= -1e-9
    assert rep["linear_envelope_margin"] >= -1e-9
    assert max(rep["stationarity"]) == 0.0
    assert np.all(uv[0] == 1.0)


def test_regularized_rung_autonomous_lower_bound():
    uv, rep = solve_one_rung("autonomous", 0.01, 0.3)
    assert rep["passed"], rep["failures"]
    assert rep["lower_bound_margin"] >= -1e-9
    assert rep["lower_bound_constant"] >= rep["exp_linear_constant"] - 1e-12
    assert rep["minimizer_sup"] < 0.2


def test_rung_rejects_bad_epsilon_or_horizon():
    with pytest.raises(ValueError):
        solve_regularized("time", [0.0], 0.3, FAST)
    with pytest.raises(ValueError):
        solve_regularized("time", [0.1], 1.5, FAST)


def test_monitor_flags_synthetic_violations():
    t = np.linspace(0.0, 0.5, 129)
    # v plunging through zero: breaks sign retention and crosses the linear
    # envelope threshold almost immediately
    rep = hand_rung(t, np.ones_like(t), 1.0 - 100.0 * t, 0.05)
    assert not rep["passed"]
    assert "sign_v" in rep["failures"]
    assert "first_crossing_too_early" in rep["failures"]


def test_monitor_flags_nan_data():
    t = np.linspace(0.0, 0.3, 129)
    finite = hand_rung(t, np.ones_like(t), np.ones_like(t), 0.01)
    assert finite["failures"] == ("integral_residual",)
    u = np.ones_like(t)
    u[10] = np.nan
    rep = hand_rung(t, u, np.ones_like(t), 0.01)
    # a NaN fails every check that reads u; checks on v alone still pass
    assert set(rep["failures"]) == {"sign_u", "mix_exponential_bound", "integral_residual",
                                 "mix_lower_envelope"}
    assert not rep["passed"]


def test_monitor_accepts_late_crossing():
    t = np.linspace(0.0, 0.5, 129)
    # gentle decline crosses v = c(t+eps) well after the guaranteed window
    rep = hand_rung(t, np.ones_like(t), np.maximum(1.0 - 1.2 * t, 0.0), 0.05)
    assert rep["crossing_time"] is not None
    assert rep["crossing_time"] >= rep["crossing_threshold"]
    assert "first_crossing_too_early" not in rep["failures"]


def test_sign_monitor_fails_just_past_its_tolerance():
    # a dip of v to -1e-8 lies ten times past MONITOR_TOL = 1e-9 and fails
    # sign_v; a dip to -1e-10 lies inside it
    t = np.linspace(0.0, 0.3, 129)
    for dip, fails in ((-1e-8, True), (-1e-10, False)):
        v = np.ones_like(t)
        v[-1] = dip
        rep = hand_rung(t, np.ones_like(t), v, 0.05)
        assert rep["min_v"] == dip
        assert ("sign_v" in rep["failures"]) is fails


@pytest.mark.parametrize("name, margin, column, sign", [
    ("sign_u", "min_u", 0, -1.0),
    ("mix_exponential_bound", "mix_bound_margin", 0, 1.0),
    ("v_linear_envelope", "linear_envelope_margin", 1, 1.0),
    ("mix_lower_envelope", "lower_mix_margin", 0, -1.0),
])
def test_margin_monitor_fails_just_past_its_tolerance(name, margin, column, sign):
    # the constant rung (u, v) = (1, 1) with u or v shifted until one margin
    # reads -1e-8, ten times past MONITOR_TOL = 1e-9, which fails that row;
    # at -1e-10 it lies inside the tolerance and the row passes
    t = np.linspace(0.0, 0.3, 129)
    start = hand_rung(t, np.ones_like(t), np.ones_like(t), 0.05)[margin]
    for target, fails in ((-1e-8, True), (-1e-10, False)):
        uv = np.ones((len(t), 2))
        uv[:, column] += sign * (start - target)
        rep = hand_rung(t, *uv.T, 0.05)
        assert rep[margin] == pytest.approx(target, rel=1e-6)
        assert (name in rep["failures"]) is fails


# --------------------------------------------------------------------------- comparison lemma


def test_comparison_envelopes_pass_on_the_constant_solution():
    t = np.linspace(0.0, 1.0, 64)
    eps = 0.1
    rep = hand_rung(t, np.ones_like(t), np.ones_like(t), eps)
    assert "mix_exponential_bound" not in rep["failures"]
    assert "v_linear_envelope" not in rep["failures"]
    # both worst margins sit at t = 0: (3/2)(e^eps - 1) and c_hat eps
    assert rep["mix_bound_margin"] == pytest.approx(1.5 * (math.exp(eps) - 1.0))
    assert rep["linear_envelope_margin"] == pytest.approx(rep["exp_linear_constant"] * eps)
    assert rep["exp_linear_constant"] == pytest.approx(1.5 * (math.exp(1.1) - 1.0) / 1.1)


def test_comparison_envelopes_each_fire_on_a_violating_rung():
    t = np.linspace(0.0, 0.3, 129)
    one = np.ones_like(t)
    # u + v/2 climbing to 2.5 at t = 0.3 overtakes (3/2) e^(t + eps) = 2.1;
    # v alone stays under its linear envelope, so only the mix bound fires
    rep = hand_rung(t, 1.0 + 5.0 * t, one, 0.05)
    assert "mix_exponential_bound" in rep["failures"] and rep["mix_bound_margin"] < -0.3
    assert "v_linear_envelope" not in rep["failures"]
    # v climbing at twice c_hat crosses its envelope, while u + v/2 stays
    # under the exponential bound (u is lowered to make room)
    c_hat = 1.5 * (math.exp(0.35) - 1.0) / 0.35
    v = 1.0 + 2.0 * c_hat * t
    rep = hand_rung(t, 1.0 - 0.5 * (v - 1.0), v, 0.05)
    assert "v_linear_envelope" in rep["failures"] and rep["linear_envelope_margin"] < -0.4
    assert "mix_exponential_bound" not in rep["failures"]


def test_comparison_envelopes_hold_on_a_solved_rung():
    _, rep = solve_one_rung("time", 0.05, 0.5)
    assert rep["mix_bound_margin"] >= 0.0 and rep["linear_envelope_margin"] >= 0.0


# --------------------------------------------------------------------------- ladder


def small_spec(**kw):
    base = dict(count=8, tau=0.25, grid_points=FAST)
    base.update(kw)
    return LadderSpec(**base)


def test_ladder_spec_validation():
    assert LadderSpec(count=4).epsilons == (0.1, 0.05, 0.025, 0.0125)
    with pytest.raises(ValueError):
        LadderSpec(count=2)
    for grid in (7, 1, -5):
        with pytest.raises(ValueError, match="grid_points"):
            LadderSpec(grid_points=grid)


def test_ladder_gaps_decrease_and_converge():
    _, lad = run_epsilon_ladder(small_spec(), "time")
    gaps = np.array(lad["sup_differences"])
    assert lad["gaps_decreasing_from"] == 0
    assert np.all(gaps[1:] < gaps[:-1])
    assert lad["converged"]


@pytest.mark.parametrize("variant", ["time", "autonomous"])
def test_last_rung_envelopes_bound_the_approach_to_the_start(variant):
    # with s = t + eps, the last rung's gated envelopes v <= 1 + c s,
    # u + v/2 <= (3/2) e^s <= 1 + c s and, before the first crossing,
    # u + 3v/4 >= 7/4 - 3 C s (C = c, or c5 on the autonomous variant), each
    # to MONITOR_TOL, solve to |u - 1| <= (6C + 3c) s + 5 tol and
    # |v - 1| <= (12C + 4c) s + 8 tol at the first positive grid time
    sol, lad = run_epsilon_ladder(small_spec(), variant)
    (u, v), rep = sol.states[1, -1], lad["rungs"][-1]
    assert rep["passed"]
    assert rep["crossing_time"] is None or rep["crossing_time"] > sol.times[1]
    c = rep["exp_linear_constant"]
    C = c if variant == "time" else rep["lower_bound_constant"]
    s1 = sol.times[1] + rep["epsilon"]
    assert abs(u - 1.0) <= (6.0 * C + 3.0 * c) * s1 + 5.0 * MONITOR_TOL
    assert abs(v - 1.0) <= (12.0 * C + 4.0 * c) * s1 + 8.0 * MONITOR_TOL


def test_ladder_limit_satisfies_singular_integral_form():
    sol, lad = run_epsilon_ladder(small_spec(), "time")
    assert lad["limit_residual"] <= 1e-5
    # direct recomputation agrees
    assert singular_integral_residual("time", 0.0, sol.times, sol.states[:, -1]) \
        == lad["limit_residual"]


def test_ladder_nonconvergence_never_fabricates():
    # four autonomous rungs leave a last gap of about 5e-4, far above GAP_TOL
    sol, lad = run_epsilon_ladder(small_spec(count=4), "autonomous")
    assert lad["sup_differences"][-1] > 100 * GAP_TOL
    assert not lad["converged"]
    # the report still takes the last rung as the limit, and certifies nothing
    limit = sol.states[:, -1]
    report, gamma = build_nonuniqueness_report(sol.times, limit, lad)
    assert np.array_equal(gamma.states, reconstruct_trajectory(sol.times, limit).states)
    assert not report["nonuniqueness_certified"]


@pytest.mark.parametrize("gaps, decreasing_from, converged", [
    ([4e-7, 2e-7, 1e-7], 0, True),
    ([9e-7, 1e-7, 4e-7, 2e-7, 1e-7], 2, True),
    ([1e-7, 2e-7, 5e-7], 2, False),  # increasing
    ([1e-7, 3e-7, 2e-7], 1, False),  # a tail of only two decreasing gaps
    ([2e-7, 2e-7, 1e-7], 1, False),  # equal gaps do not decrease
    ([4e-6, 2e-6, 1.5e-6], 0, False),  # decreasing, but above GAP_TOL
])
def test_gap_convergence_rule(gaps, decreasing_from, converged):
    k0, rows = gap_convergence(gaps)
    assert (k0, all_passed(rows)) == (decreasing_from, converged)


def test_ladders_with_different_ratios_agree():
    spec = small_spec(count=10)
    a = run_epsilon_ladder(spec, "time")[0].states[:, -1]
    b = solve_regularized("time", [0.1 * 0.4**k for k in range(10)], spec.tau,
                          spec.grid_points).states[:, -1]
    assert np.max(np.abs(a - b)) <= 10 * GAP_TOL


def test_batched_time_ladder_matches_single_rung_solves():
    # the shared step sequence meets the tolerance of the hardest rung, so
    # it takes at least as many steps as any single rung, and every rung
    # agrees with its single solve well inside the tolerance
    spec = small_spec(count=5)
    sol, _ = run_epsilon_ladder(spec, "time")
    for i, eps in enumerate(spec.epsilons):
        alone = solve_regularized("time", [eps], spec.tau, FAST)
        assert sol.stats.steps >= alone.stats.steps
        assert np.max(np.abs(sol.states[:, i] - alone.states[:, 0])) <= RUNG_TOL


def test_batched_autonomous_ladder_matches_single_rung_solves():
    # the shared sequence takes the smallest step any rung needs, so the
    # rungs differ from their single solves by the tolerance scale at most
    spec = small_spec(count=5)
    sol, _ = run_epsilon_ladder(spec, "autonomous")
    for i, eps in enumerate(spec.epsilons):
        alone = solve_regularized("autonomous", [eps], spec.tau, FAST)
        assert np.max(np.abs(sol.states[:, i] - alone.states[:, 0])) <= 10 * RUNG_TOL


@pytest.mark.parametrize("variant, max_steps, max_rhs, min_step", [
    ("time", 40, 600, 1e-4),
    ("autonomous", 130, 2000, 1e-7),
])
def test_default_ladder_step_counts(variant, max_steps, max_rhs, min_step):
    # machine-independent cost of the default ladder with the DOP853 pair:
    # 34 steps / 556 RHS evaluations (time) and 107 / 1,615 (autonomous);
    # the DP5(4) pair took 72 / 439 and 404 / 2,443.  Without the budget
    # floor the autonomous start shrank its steps to 5.3e-9
    spec = LadderSpec()
    stats = solve_regularized(variant, spec.epsilons, spec.tau, spec.grid_points).stats
    assert stats.steps <= max_steps
    assert stats.rhs_evals <= max_rhs
    assert stats.min_step >= min_step


@pytest.mark.parametrize("variant", ["time", "autonomous"])
def test_default_ladder_grid_states_meet_the_rung_tolerance(variant):
    # every rung's grid states, step ends and interpolated alike, against
    # the same ladder solved at 1e-14: 1.8e-14 (time) and 2.1e-14
    # (autonomous) apart
    spec = LadderSpec()
    sol = solve_regularized(variant, spec.epsilons, spec.tau, spec.grid_points)
    rhs = partial(uv_rhs, variant, np.asarray(spec.epsilons))
    ref = solve_to_grid(rhs, sol.times, np.ones((spec.count, 2)),
                        IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14)).states
    assert np.max(np.abs(sol.states - ref)) <= RUNG_TOL


# --------------------------------------------------------------------------- reconstruction


def test_reconstruct_formal_unit_pair():
    t = np.linspace(0.0, 0.3, 64)
    tr = reconstruct_trajectory(t, np.ones((len(t), 2)))
    assert np.allclose(tr.states[:, 0], t)
    assert np.allclose(tr.states[:, 1], t**3 / 18.0)
    assert np.allclose(tr.states[:, 2], t**4 / 36.0)
    assert np.all(tr.states[0] == 0.0)


def test_reconstructed_limit_moves_off_axis():
    sol, _ = run_epsilon_ladder(small_spec(), "time")
    tr = reconstruct_trajectory(sol.times, sol.states[:, -1])
    assert np.all(tr.states[1:, 1] > 0.0)  # second coordinate strictly positive
    assert np.max(np.abs(tr.states[:, 0] - tr.times)) == 0.0


def test_nonuniqueness_report_small_ladder_time():
    rep = nonuniqueness_report("time", small_spec())
    assert rep["residual_trivial"] <= 1e-6
    assert rep["residual_nontrivial"] <= 1e-6
    assert rep["max_separation"] >= 1e4 * max(rep["residual_trivial"],
                                              rep["residual_nontrivial"])
    assert rep["separation"][0] == 0.0  # same initial point
    assert rep["gamma2_at_tau"] > 0.0
    assert rep["nonuniqueness_certified"]


def test_nonuniqueness_report_small_ladder_autonomous():
    # autonomous gaps shrink ~2x per rung from ~1e-3, so 14 rungs are needed
    # to bring the last gap under GAP_TOL
    rep = nonuniqueness_report("autonomous", small_spec(count=14))
    assert rep["ladder"]["sup_differences"][-1] <= GAP_TOL
    assert rep["residual_nontrivial"] <= 1e-6
    assert rep["nonuniqueness_certified"]
    assert rep["ladder"]["rungs"][-1]["lower_bound_constant"] is not None


def test_separation_short_of_its_factor_does_not_certify():
    # the reduced time ladder certifies; adding 0.01 sin^2(pi t / tau) to its
    # last rung's u raises the nontrivial residual until the separation is
    # only about 6,700 times the worse residual: far above 10, short of
    # SEPARATION_FACTOR = 1e4, so the verdict fails on the separation alone
    spec = LadderSpec(count=6, tau=0.2, grid_points=256)
    sol, lad = run_epsilon_ladder(spec, "time")
    limit = sol.states[:, -1].copy()
    assert build_nonuniqueness_report(sol.times, limit, lad)[0]["nonuniqueness_certified"]
    limit[:, 0] += 0.01 * np.sin(np.pi * sol.times / spec.tau) ** 2
    rep, _ = build_nonuniqueness_report(sol.times, limit, lad)
    ratio = rep["max_separation"] / max(rep["residual_trivial"], rep["residual_nontrivial"])
    assert 10.0 < ratio < SEPARATION_FACTOR
    assert lad["converged"] and rep["gamma2_at_tau"] > 0.0
    assert not rep["nonuniqueness_certified"]


def test_negative_gamma2_at_tau_does_not_certify(monkeypatch):
    # the reduced time ladder's limit with u and v negated puts gamma_2(tau)
    # at -1.5e-3, below the gate's 0 and above the -1 of a loosened gate;
    # with the flow residuals patched to 0 the separation and the ladder
    # pass, so the verdict fails on the sign of gamma_2(tau) alone
    spec = LadderSpec(count=6, tau=0.2, grid_points=256)
    sol, lad = run_epsilon_ladder(spec, "time")
    monkeypatch.setattr(cx, "flow_residual", lambda tr, field: 0.0)
    rep, _ = build_nonuniqueness_report(sol.times, -sol.states[:, -1], lad)
    assert lad["converged"] and rep["separation_margin"] > 0.0
    assert -1.0 < rep["gamma2_at_tau"] < 0.0
    assert not rep["nonuniqueness_certified"]


def test_stationarity_monitor_fails_a_drive_off_zero_at_the_start(monkeypatch):
    # du at (t, u, v) = (0, 1, 1) is 0 exactly; shifted to 5e-12, five times
    # the monitor's 1e-12, it is the rung's only failure
    sol, lad = run_epsilon_ladder(small_spec(count=4), "time")
    rhs = cx.uv_rhs

    def shifted(variant, eps, t, y):
        out = rhs(variant, eps, t, y)
        if np.ndim(t) == 0 and t == 0.0 and y.shape == (2,):
            out[0] += 5e-12
        return out
    monkeypatch.setattr(cx, "uv_rhs", shifted)
    rep = rung_monitor_report("time", lad["epsilons"][0], sol.times, sol.states[:, 0])
    assert rep["stationarity"] == (5e-12, 0.0)
    assert rep["failures"] == ("stationarity_at_zero",)


def test_axis_term_monitor_fails_a_drive_below_its_lower_bound(monkeypatch):
    # an autonomous rung's scaled axis distance lowered until the lower-bound
    # margin reads -5e-9, five times MONITOR_TOL below 0: the only failure
    sol, lad = run_epsilon_ladder(small_spec(count=4), "autonomous")
    eps, uv = lad["epsilons"][0], sol.states[:, 0]
    margin = rung_monitor_report("autonomous", eps, sol.times, uv)["lower_bound_margin"]
    assert margin > 0.0
    drive = cx.scaled_axis_distance_with_minimizer

    def lowered(t, u, v):
        value, minimizer = drive(t, u, v)
        return value - (margin + 5.0 * MONITOR_TOL), minimizer
    monkeypatch.setattr(cx, "scaled_axis_distance_with_minimizer", lowered)
    rep = rung_monitor_report("autonomous", eps, sol.times, uv)
    assert -10.0 * MONITOR_TOL < rep["lower_bound_margin"] < -MONITOR_TOL
    assert rep["failures"] == ("axis_term_lower_bound",)


def test_trivial_trajectory_shape():
    times = np.linspace(0.0, 0.3, 65)
    tr = trivial_trajectory(times)
    assert tr.times is times and np.array_equal(tr.states[:, 0], times)
    assert np.all(tr.states[:, 1:] == 0.0)
