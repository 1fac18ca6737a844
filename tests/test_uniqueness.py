import math

import numpy as np
import pytest

from horoflow import (Box, CauchyProblem, ConditionNotCertified, GradedAlgebra,
                      IntegratorConfig, NotInvolutiveError, check_involutive,
                      confinement_check, default_distance, frame_field,
                      heisenberg, horizontal_field, integrate, module_field,
                      reduced_solve, stability_monitor,
                      verify_equilibrium_condition)
from horoflow.counterexample import counterexample_field

CFG = IntegratorConfig(dense_output_grid=257)
BOX = Box((-1, -1, -1), (1, 1, 1))


def gauge_coefficient_field(heis, dst):
    return horizontal_field(heis, (lambda t, x, _d=dst: _d(np.zeros(3), x), lambda t, x: 0.0))


# --------------------------------------------------------------------------- condition


def test_condition_gauge_coefficient_is_exactly_one(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 800, seed=3, distance=heis_dist)
    assert cond.estimated_c <= 1.0 + 1e-9
    assert cond.certified
    # degenerate linearly at every sampled scale
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in cond.scale_maxima)


def test_condition_constant_field_diverges(heis, heis_dist):
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 0.0))
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 300, seed=3, distance=heis_dist)
    assert not cond.certified
    # each dyadic shrink doubles the worst ratio: grows past any threshold
    ratios = np.array(cond.scale_maxima)
    assert np.all(ratios[1:] > 1.9 * ratios[:-1])
    assert cond.estimated_c > 10.0


def test_condition_counterexample_field_fails(heis, heis_dist):
    # documented negative case: the unit first coefficient never degenerates
    b = counterexample_field(heis, "time")
    cond = verify_equilibrium_condition(
        b, np.zeros(3), BOX, 300, seed=5, distance=heis_dist,
        time_samples=(0.0, 0.25, 0.5),
    )
    assert not cond.certified


def test_condition_respects_graded_exponents(heis, heis_dist):
    # vertical frame coefficient enters with exponent 1/2
    b = frame_field(heis, (lambda t, x, _d=heis_dist: _d(np.zeros(3), x) ** 2,), (3,))
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=7, distance=heis_dist)
    assert cond.certified
    assert cond.estimated_c <= 1.0 + 1e-9


# --------------------------------------------------------------------------- monitor


def test_monitor_equilibrium_start_stays_put(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=3, distance=heis_dist)
    rep = stability_monitor(b, np.zeros(3), cond, [np.zeros(3)], CFG, 1.0, heis_dist)
    assert rep.ratios == (1.0,)
    assert rep.equilibrium_deviation <= 1e-12
    assert rep.passed


def test_monitor_dyadic_starts_bounded(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=3, distance=heis_dist)
    starts = [(10.0**-k, 0.0, 0.0) for k in range(2, 6)]
    rep = stability_monitor(b, np.zeros(3), cond, starts, CFG, 1.0, heis_dist)
    assert rep.passed
    ratios = np.array(rep.ratios)
    assert np.max(ratios) <= 2.0 * np.min(ratios)
    assert np.max(ratios) <= rep.certified_bound
    # the flow multiplies the gauge by e^t here, so ratios sit at e
    assert np.allclose(ratios, math.e, rtol=1e-6)


def test_monitor_refuses_uncertified_condition(heis, heis_dist):
    b = horizontal_field(heis, (lambda t, x: 1.0, lambda t, x: 0.0))
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 200, seed=3, distance=heis_dist)
    with pytest.raises(ConditionNotCertified):
        stability_monitor(b, np.zeros(3), cond, [(0.1, 0, 0)], CFG, 1.0, heis_dist)


def test_monitor_time_profile_quadrature(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=3, distance=heis_dist)
    rep = stability_monitor(
        b, np.zeros(3), cond, [(1e-3, 0, 0)], CFG, 1.0, heis_dist,
        c_profile=lambda t: 1.0 + 0.0 * t,
    )
    assert rep.c_integral == pytest.approx(1.0, rel=1e-10)
    assert rep.passed


def test_monitor_mixes_an_equilibrium_start_with_others(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=3, distance=heis_dist)
    starts = [(1e-3, 0.0, 0.0), (0.0, 0.0, 0.0), (2e-2, 0.0, 0.0)]
    rep = stability_monitor(b, np.zeros(3), cond, starts, CFG, 1.0, heis_dist)
    assert rep.ratios[1] == 1.0 and rep.initial_distances[1] == 0.0
    assert rep.equilibrium_deviation <= 1e-12
    assert np.allclose([rep.ratios[0], rep.ratios[2]], math.e, rtol=1e-6)
    with pytest.raises(ValueError, match="dimension"):
        stability_monitor(b, np.zeros(3), cond, [(0.1, 0.0)], CFG, 1.0, heis_dist)


def test_monitor_profile_is_called_once_on_the_time_array(heis, heis_dist):
    b = gauge_coefficient_field(heis, heis_dist)
    cond = verify_equilibrium_condition(b, np.zeros(3), BOX, 400, seed=3, distance=heis_dist)
    calls = []

    def ramp(t):
        calls.append(np.shape(t))
        return 2.0 * t  # the trapezoid rule is exact on a linear profile

    rep = stability_monitor(b, np.zeros(3), cond, [(1e-3, 0, 0)], CFG, 1.0, heis_dist,
                            c_profile=ramp)
    assert calls == [(2049,)]
    assert rep.c_integral == pytest.approx(1.0, rel=1e-14)
    flat = stability_monitor(b, np.zeros(3), cond, [(1e-3, 0, 0)], CFG, 1.0, heis_dist,
                             c_profile=lambda t: 0.5)  # a number holds at every time
    assert flat.c_integral == pytest.approx(0.5, rel=1e-14)


def test_non_finite_condition_names_the_first_sample_then_time(heis, heis_dist):
    from horoflow.stepping import NonFiniteRHSError

    times = (0.0, 0.5, 0.25)

    def bad(t, x):  # rare at t = 0.5, common at the later-listed t = 0.25
        return (x[..., 0] > 0.9) & (t == 0.5) | (x[..., 1] > 0.0) & (t == 0.25)

    b = horizontal_field(heis, (lambda t, x: np.where(bad(t, x), np.nan, x[..., 2]),
                                lambda t, x: 0.0))
    with pytest.raises(NonFiniteRHSError) as exc:
        verify_equilibrium_condition(b, np.zeros(3), BOX, 300, seed=4, distance=heis_dist,
                                     time_samples=times)
    # at the first scale the samples are the box draws themselves
    X = BOX.sample(np.random.default_rng(4), 300)
    first = next((t, x) for x in X for t in times if bad(t, x))
    assert first[0] == 0.25 and any(bad(0.5, x) for x in X)  # time-major would differ
    assert exc.value.time == first[0]
    assert f"x = {first[1].tolist()}" in str(exc.value)


# --------------------------------------------------------------------------- involutive


def test_involutive_single_horizontal_direction(heis):
    mod = check_involutive(heis, [[1.0, 0.0, 0.0]])
    assert mod.rank == 1
    assert mod.sigma([0.3, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert mod.sigma([0.0, 0.4, 0.3]) == pytest.approx(0.5)


def test_involutive_rejects_non_commuting_pair(heis):
    with pytest.raises(NotInvolutiveError) as exc:
        check_involutive(heis, [[1.0, 0, 0], [0, 1.0, 0]])
    assert str(exc.value) == "basis fields 1 and 2 do not commute: bracket = (2)e_3"


def test_involutive_rejects_non_horizontal(heis):
    with pytest.raises(ValueError, match="horizontal"):
        check_involutive(heis, [[0.0, 0.0, 1.0]])


def test_involutive_any_single_direction_valid(heis, rng):
    for _ in range(5):
        v = np.append(rng.uniform(-2, 2, 2), 0.0)
        mod = check_involutive(heis, [v])
        assert mod.rank == 1


def test_involutive_step3_two_directions():
    from horoflow import GradedAlgebra

    # layers (3,1,1) with only [e1,e2] nonzero: e1 and e3 commute
    alg = GradedAlgebra((3, 1, 1), {(0, 1): {3: 1}, (0, 3): {4: 1}})
    mod = check_involutive(alg, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert mod.rank == 2
    with pytest.raises(NotInvolutiveError, match=r"bracket = \(1\)e_4$"):
        check_involutive(alg, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])


def test_confinement_sine_field_from_origin(heis):
    mod = check_involutive(heis, [[1.0, 0, 0]])
    coeffs = (lambda t, x: np.sin(x[..., 0]),)
    b = module_field(mod, coeffs)
    tr = integrate(CauchyProblem(b, (0, 0, 0), 1.0), CFG)
    assert confinement_check(tr, mod, (0, 0, 0)) <= 1e-8
    # equilibrium of sin at 0: solution frozen
    assert np.max(np.abs(tr.states)) <= 1e-12


@pytest.mark.parametrize("x0", [(0.0, 1.0, 0.0), (math.pi / 2, 0.0, 0.0),
                                (math.pi / 2, 1.0, 0.0)])
def test_confinement_and_reduction_agree(heis, x0):
    mod = check_involutive(heis, [[1.0, 0, 0]])
    coeffs = (lambda t, x: np.sin(x[..., 0]),)
    b = module_field(mod, coeffs)
    full = integrate(CauchyProblem(b, x0, 1.0), CFG)
    assert confinement_check(full, mod, x0) <= 1e-8
    red = reduced_solve(mod, coeffs, x0, 1.0, CFG)
    assert np.max(np.abs(full.states - red.states)) <= 10 * CFG.abs_tol


def test_coset_parametrization(heis):
    # x0 * (s, 0, 0) = (s, 1, -s): confinement measures distance to that line
    x0 = np.array([0.0, 1.0, 0.0])
    s = 0.7
    point = heis.multiply(x0, np.array([s, 0.0, 0.0]))
    assert np.allclose(point, [s, 1.0, -s])


def test_negative_control_with_extra_direction(heis):
    mod = check_involutive(heis, [[1.0, 0, 0]])
    b = frame_field(heis, (lambda t, x: np.sin(x[..., 0]), lambda t, x: 1.0), (1, 2))
    x0 = (0.0, 1.0, 0.0)
    tr = integrate(CauchyProblem(b, x0, 1.0), CFG)
    dev = confinement_check(tr, mod, x0)
    assert dev > 1e-3
    # deviation grows like t for this drift
    assert dev == pytest.approx(1.0, rel=1e-6)


def test_reduced_solve_straight_line(heis):
    mod = check_involutive(heis, [[1.0, 0, 0]])
    red = reduced_solve(mod, (lambda t, x: 1.0,), (0, 0, 0), 1.0, CFG)
    want = np.column_stack([red.times, np.zeros(len(red.times)), np.zeros(len(red.times))])
    assert np.max(np.abs(red.states - want)) <= 1e-12


def test_confinement_deviation_tracks_tolerance(heis):
    # halving tolerances must not increase the confinement defect
    mod = check_involutive(heis, [[1.0, 0, 0]])
    coeffs = (lambda t, x: np.sin(x[..., 0]),)
    b = module_field(mod, coeffs)
    x0 = (math.pi / 2, 1.0, 0.0)
    devs = []
    for tol in (1e-8, 1e-10, 1e-12):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, dense_output_grid=257)
        tr = integrate(CauchyProblem(b, x0, 1.0), cfg, with_residual=False)
        devs.append(confinement_check(tr, mod, x0))
    assert devs[1] <= devs[0] + 1e-12
    assert devs[2] <= devs[1] + 1e-12


# --------------------------------------------------------------------------- loop oracles
# The monitors evaluate the group law and the distance on whole sample arrays;
# each oracle below is the per-point loop they replaced.  A batched product,
# dilation or gauge equals the scalar one row by row, so they agree exactly
# wherever no matrix product is involved.

FILIFORM = GradedAlgebra((2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})


def scale_maxima_loop(field, xbar, box, samples, seed, dst, time_samples, scales=6):
    alg = field.algebra
    X = box.sample(np.random.default_rng(seed), samples)
    maxima = []
    for k in range(scales):
        worst = 0.0
        for x in X:
            xs = alg.multiply(xbar, alg.dilate(2.0 ** (-k), alg.multiply(-xbar, x)))
            d = dst(xs, xbar)
            if d == 0.0:
                continue
            for t in time_samples:
                total = sum(abs(a(t, xs)) ** (1.0 / alg.degrees[i - 1])
                            for a, i in zip(field.coefficients, field.indices))
                worst = max(worst, total / d)
        maxima.append(worst)
    return maxima


def oracle_cases():
    heis = heisenberg()
    for alg in (heis, FILIFORM):
        dst = default_distance(alg)
        xbar = np.array([0.2, -0.1, 0.3, 0.05][:alg.dim])
        coeffs = (lambda t, x, _d=dst, _p=xbar: _d(_p, x) * (1.0 + t),
                  lambda t, x, _p=xbar: np.sin(x[..., 0] - _p[0]) * np.cos(x[..., 1]))
        yield alg, dst, xbar, horizontal_field(alg, coeffs)


@pytest.mark.parametrize("case", range(2))
def test_scale_maxima_match_loop_oracle(case):
    alg, dst, xbar, b = list(oracle_cases())[case]
    box = Box((-1.0,) * alg.dim, (1.0,) * alg.dim)
    cond = verify_equilibrium_condition(b, xbar, box, 300, seed=9, distance=dst,
                                        time_samples=(0.0, 0.5))
    want = scale_maxima_loop(b, xbar, box, 300, 9, dst, (0.0, 0.5))
    assert list(cond.scale_maxima) == want


@pytest.mark.parametrize("case", range(2))
def test_stability_ratios_match_loop_oracle(case):
    alg, dst, xbar, b = list(oracle_cases())[case]
    box = Box((-1.0,) * alg.dim, (1.0,) * alg.dim)
    cond = verify_equilibrium_condition(b, xbar, box, 200, seed=9, distance=dst)
    starts = [alg.multiply(xbar, alg.dilate(10.0 ** -k, np.full(alg.dim, 0.3)))
              for k in range(1, 4)]
    rep = stability_monitor(b, xbar, cond, starts, CFG, 0.5, dst)
    want = []
    for x0 in starts:
        tr = integrate(CauchyProblem(b, tuple(x0), 0.5), CFG, with_residual=False)
        want.append(max(dst(x, xbar) for x in tr.states) / dst(x0, xbar))
    assert list(rep.initial_distances) == [dst(x0, xbar) for x0 in starts]
    # the monitor solves all starts together, on steps at least as fine as
    # each start's own, so a start's ratio moves only by the solve error:
    # within 100 x rel_tol of its solo solve (measured at most 2.0e-9)
    assert np.allclose(rep.ratios, want, rtol=100.0 * CFG.rel_tol, atol=0.0)


@pytest.mark.parametrize("x0, extra", [((0.0, 1.0, 0.0), 0.0), ((0.3, -0.4, 0.2), 1.0)])
def test_confinement_matches_loop_oracle(heis, x0, extra):
    mod = check_involutive(heis, [[1.0, 0, 0]])
    b = frame_field(heis, (lambda t, x: np.sin(x[..., 0]), lambda t, x: extra * x[..., 2]), (1, 2))
    tr = integrate(CauchyProblem(b, x0, 1.0), CFG, with_residual=False)
    P = mod.projector
    rel = [heis.multiply(-np.asarray(x0), z) for z in tr.states]
    want = max(float(np.linalg.norm(z - P @ z)) for z in rel)
    # the projection is a matrix product, which BLAS may round per call shape
    assert confinement_check(tr, mod, x0) == pytest.approx(want, rel=1e-14, abs=1e-15)
