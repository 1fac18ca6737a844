"""Acceptance suite: one test per criterion, stated tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Criteria with runtime budgets assert wall time as well.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from horoflow.counterexample import (LadderSpec, build_nonuniqueness_report,
                                     nonuniqueness_report, run_epsilon_ladder,
                                     scaled_axis_distance_with_minimizer)
from horoflow.domain import Box
from horoflow.fields import (compute_p, derivation_of, horizontal_field, left_invariant_frame,
                             recover_coefficients)
from horoflow.flow import CauchyProblem, integrate
from horoflow.gauges import default_distance, koranyi_norm, smooth_gauge
from horoflow.groups import heisenberg
from horoflow.poly import Poly, evaluator
from horoflow.stepping import IntegratorConfig
from horoflow.uniqueness import (check_involutive, confinement_check, module_field,
                                 reduced_solve, stability_monitor, verify_equilibrium_condition)


@contextmanager
def criterion(num, desc, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:>2} {desc}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if limit_s is not None and elapsed >= limit_s:
        print(f"[acceptance] {num:>2} {desc}: FAIL (runtime {elapsed:.1f}s)", flush=True)
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {limit_s}s")
    print(f"[acceptance] {num:>2} {desc}: PASS ({elapsed:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def heis():
    return heisenberg()


@pytest.fixture(scope="module")
def time_exhibit():
    """Shared 14-rung time-dependent ladder + report (criteria 5 and 6)."""
    t0 = time.perf_counter()
    sol, ladder = run_epsilon_ladder(LadderSpec(), "time")
    report, gamma = build_nonuniqueness_report(sol.times, sol.states[:, -1], ladder)
    return sol, ladder, report, gamma, time.perf_counter() - t0


def test_criterion_01_group_law_fidelity(heis):
    with criterion(1, "group law fidelity", limit_s=1.0):
        rng = np.random.default_rng(101)
        X = rng.uniform(-10, 10, (1000, 3))
        Y = rng.uniform(-10, 10, (1000, 3))
        got = heis.multiply_batch(X, Y)
        want = np.column_stack([
            X[:, 0] + Y[:, 0],
            X[:, 1] + Y[:, 1],
            X[:, 2] + Y[:, 2] + X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0],
        ])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_criterion_02_field_derivation_symbolic(heis):
    with criterion(2, "left-invariant frame, symbolic"):
        P = lambda terms: Poly(3, terms)  # noqa: E731
        assert compute_p(heis, 1).rows == (
            P({(0, 0, 0): 1}), P({}), P({(0, 1, 0): -1})
        )
        assert compute_p(heis, 2).rows == (
            P({}), P({(0, 0, 0): 1}), P({(1, 0, 0): 1})
        )
        assert compute_p(heis, 3).rows == (P({}), P({}), P({(0, 0, 0): 1}))


def test_criterion_03_homogeneity_suite(heis):
    with criterion(3, "homogeneity suite (1e4 samples)", limit_s=5.0):
        rng = np.random.default_rng(103)
        n = 10_000
        X = rng.uniform(-3, 3, (n, 3))
        Y = rng.uniform(-3, 3, (n, 3))
        rs = rng.uniform(0.25, 4.0, n)

        sg = smooth_gauge(heis)
        for gauge_batch in (sg, koranyi_norm):
            base = gauge_batch(X)
            dil = np.vstack([heis.dilate(r, x) for r, x in zip(rs, X)])
            assert np.max(np.abs(gauge_batch(dil) - rs * base)) <= 1e-12

        r = 1.7
        lhs = heis.dilate(r, heis.multiply_batch(X, Y))
        rhs = heis.multiply_batch(heis.dilate(r, X), heis.dilate(r, Y))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

        d = heis.degrees
        for f in left_invariant_frame(heis):
            i = f.index - 1
            for j, row in enumerate(f.rows):
                if row.is_zero:
                    continue
                value = evaluator([row])
                scaled = np.vstack([heis.dilate(r, x) for r, x in zip(rs, X)])
                lhs = value(*scaled.T)[0]
                rhs = rs ** (d[j] - d[i]) * value(*X.T)[0]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_04_derivation_roundtrip(heis):
    with criterion(4, "derivation roundtrip (100 points)"):
        a1 = lambda t, x: np.sin(x[..., 0]) + x[..., 1] ** 2  # noqa: E731
        a2 = lambda t, x: np.cos(x[..., 1]) * x[..., 2]  # noqa: E731
        b = horizontal_field(heis, (a1, a2))
        D = derivation_of(b)
        rng = np.random.default_rng(104)
        for xbar in rng.uniform(-3, 3, (100, 3)):
            got = recover_coefficients(D, xbar)
            want = np.array([a1(0.0, xbar), a2(0.0, xbar)])
            assert np.max(np.abs(got - want)) <= 1e-12


def test_criterion_05_nonuniqueness_headline(time_exhibit):
    _, ladder, report, gamma, elapsed = time_exhibit
    with criterion(5, f"non-uniqueness exhibit (time-dependent, {elapsed:.1f}s)",
                   limit_s=60.0):
        assert elapsed < 60.0
        gaps = ladder["sup_differences"]
        assert all(gaps[k + 1] < gaps[k] for k in range(4, len(gaps) - 1))
        assert report["residual_trivial"] <= 1e-6
        assert report["residual_nontrivial"] <= 1e-6
        worst = max(report["residual_trivial"], report["residual_nontrivial"])
        assert report["max_separation"] >= 1e4 * worst
        assert report["gamma2_at_tau"] > 0.0
        assert report["nonuniqueness_certified"]


def test_criterion_06_proof_bound_monitors(time_exhibit):
    sol, ladder, _, _, _ = time_exhibit
    with criterion(6, "proof-bound monitors on every rung"):
        for i, rep in enumerate(ladder["rungs"]):
            assert rep["min_u"] >= -1e-9
            assert rep["min_v"] >= -1e-9
            bound = 1.5 * np.exp(sol.times + rep["epsilon"]) + 1e-9
            u, v = sol.states[:, i].T
            assert np.all(u + v / 2.0 <= bound)
            assert max(rep["stationarity"]) <= 1e-12
            assert rep["passed"]


def test_criterion_07_autonomous_variant():
    with criterion(7, "autonomous variant", limit_s=120.0):
        for u in np.linspace(0.0, 3.0, 9):
            for v in np.linspace(0.0, 3.0, 9):
                value = scaled_axis_distance_with_minimizer(0.0, u, v)[0]
                assert abs(value - math.sqrt(v)) <= 1e-10

        rng = np.random.default_rng(107)
        for _ in range(400):
            t, u, v = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 3)
            bound = ((t / 3.0) ** 4 * u**4 + v * v) ** 0.25
            assert scaled_axis_distance_with_minimizer(t, u, v)[0] <= bound + 1e-12

        s_grid = np.linspace(-10.0, 10.0, 1_000_000)
        for _ in range(100):
            t, u, v = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 3)
            b = t * u / 18.0
            c = v / 36.0
            f = (s_grid**2 + b * b) ** 2 + (b * s_grid + c) ** 2
            oracle = 6.0 * float(np.min(f)) ** 0.25
            assert abs(scaled_axis_distance_with_minimizer(t, u, v)[0] - oracle) <= 1e-8

        report = nonuniqueness_report("autonomous", LadderSpec())
        assert report["residual_trivial"] <= 1e-6
        assert report["residual_nontrivial"] <= 1e-6
        worst = max(report["residual_trivial"], report["residual_nontrivial"])
        assert report["max_separation"] >= 1e4 * worst
        assert report["gamma2_at_tau"] > 0.0
        assert report["nonuniqueness_certified"]


def test_criterion_08_equilibrium_stability(heis):
    with criterion(8, "equilibrium stability", limit_s=10.0):
        dst = default_distance(heis)
        b = horizontal_field(
            heis, (lambda t, x, _d=dst: _d(np.zeros(3), x), lambda t, x: 0.0))
        box = Box((-1, -1, -1), (1, 1, 1))
        cond = verify_equilibrium_condition(b, np.zeros(3), box, 800, seed=8)
        assert cond["estimated_c"] <= 1.0 + 1e-9
        starts = [(10.0**-k, 0.0, 0.0) for k in range(2, 6)]
        rep = stability_monitor(
            b, np.zeros(3), cond, starts,
            IntegratorConfig(dense_output_grid=257), 1.0,
        )
        ratios = np.array(rep["ratios"])
        assert np.max(ratios) <= 2.0 * np.min(ratios)
        assert np.max(ratios) <= rep["certified_bound"]
        assert rep["passed"]


def test_criterion_09_involutive_confinement(heis):
    with criterion(9, "involutive confinement", limit_s=5.0):
        mod = check_involutive(heis, [[1.0, 0.0, 0.0]])
        coeffs = (lambda t, x: np.sin(x[..., 0]),)
        b = module_field(mod, coeffs)
        cfg = IntegratorConfig(dense_output_grid=257)
        x0 = (0.0, 1.0, 0.0)
        full = integrate(CauchyProblem(b, x0, 1.0), cfg)
        assert confinement_check(full, mod, x0) <= 1e-8
        red = reduced_solve(mod, coeffs, x0, 1.0, cfg)
        assert np.max(np.abs(full.states - red.states)) <= 1e-8

        neg = horizontal_field(heis, (lambda t, x: np.sin(x[..., 0]), lambda t, x: 1.0))
        tr = integrate(CauchyProblem(neg, x0, 1.0), cfg)
        assert confinement_check(tr, mod, x0) > 1e-3


def test_criterion_10_integrator_order(heis):
    # the DOP853 pair at a fixed step: max_step is the step, and the
    # tolerance is loose enough that no step is rejected.  The Simpson
    # residual is fourth order in the step, so its >= 8x per halving cannot
    # tell an eighth-order integrator from a fifth-order one.  The error at
    # the final time against a tight reference can: it falls about 250x per
    # halving (2^8), and >= 128x fails a fifth-order pair (about 32x).  The
    # steps 1/2 .. 1/16 keep that error (9e-8 .. 9e-15) above the
    # reference's own error (about 1e-15); at 1/32 it reaches rounding
    with criterion(10, "fixed-step order study"):
        b = horizontal_field(
            heis, (lambda t, x: 1.0 + x[..., 1] ** 2, lambda t, x: x[..., 0])
        )
        p = CauchyProblem(b, (0.1, 0.2, 0.0), 1.0)
        ref = integrate(p, IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)).final_state
        residuals, errors = [], []
        for n in (2, 4, 8, 16, 32, 64, 128):
            cfg = IntegratorConfig(abs_tol=1.0, rel_tol=0.0, max_step=1.0 / n,
                                      dense_output_grid=n + 1)
            tr = integrate(p, cfg)
            assert (tr.stats.steps, tr.stats.rejected) == (n, 0)
            # the residual falls 13.4x, 14.6x, 15.3x and 15.6x per halving
            # from 16 steps on, toward Simpson's 16x; on the coarser grids it
            # is not yet in that regime (8.9x from 2 to 4 steps)
            if n >= 16:
                residuals.append(tr.residual)
            if n <= 16:
                errors.append(np.max(np.abs(tr.final_state - ref)))
        for a, c in zip(residuals, residuals[1:]):  # n = 16 .. 128
            assert c <= a / 8.0
        for a, c in zip(errors, errors[1:]):  # n = 2 .. 16
            assert c <= a / 128.0
