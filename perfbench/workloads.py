"""The benchmark's workloads: CLI argument lists plus an independent check of
each report.

An operation is one ``horoflow`` command.  It *fails* when it exits non-zero
or its report's verdict is false; that is the program's own outcome and is
counted, never hidden.  It is *incorrect* when the report contradicts
itself: the exit code disagrees with the verdict, the verdict disagrees with
the gate recomputed here from the report's own numbers, an artifact is
missing or inconsistent with the report, or the report (timestamp aside)
differs from the same command's first report in the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# Reduced sizes for the self-check; the full sizes are the defaults below.
QUICK_LADDER = ["--rungs", "6", "--tau", "0.2", "--grid", "256"]


@dataclass
class Op:
    name: str
    argv: list
    out: Path
    check: Callable[[dict, Path], tuple]  # (report, out dir) -> (expected pass, problems)


# --------------------------------------------------------------------------- checks


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _last_row(path: Path) -> list:
    return [float(v) for v in path.read_text().splitlines()[-1].split(",")]


def check_exhibit(rep: dict, out: Path) -> tuple:
    problems = []
    ladder = rep["ladder"]
    worst = max(rep["residual_trivial"], rep["residual_nontrivial"])
    if max(rep["separation"]) != rep["max_separation"]:
        problems.append("max_separation is not the max of the separation curve")
    if not all(r["passed"] for r in ladder["rungs"]):
        problems.append("a failed rung reached the report")
    expected = bool(ladder["converged"]
                    and rep["max_separation"] >= rep["separation_factor_required"] * worst
                    and rep["gamma2_at_tau"] > 0.0)
    rungs = sorted(out.glob("rung_eps_*.csv"))
    grid = len(rep["separation"])
    if len(rungs) != len(ladder["epsilons"]):
        problems.append(f"{len(rungs)} rung CSVs for {len(ladder['epsilons'])} rungs")
    for path in [*rungs, out / "limit_uv.csv", out / "gamma.csv"]:
        if not path.is_file() or _csv_rows(path) != grid:
            problems.append(f"{path.name}: missing or not {grid} rows")
    return expected, problems


def check_group(rep: dict, out: Path) -> tuple:
    expected = (rep["associativity_max_err"] <= 1e-10 and rep["inverse_max_err"] <= 1e-12
                and rep["identity_max_err"] <= 1e-12
                and rep["dilation_automorphism_max_err"] <= 1e-10
                and rep.get("closed_form_law_max_err", 0.0) <= 1e-12)
    return expected, []


def check_gauge(rep: dict, out: Path) -> tuple:
    expected = (rep["homogeneity_max_err"] <= 1e-12 and rep["symmetry_max_err"] <= 1e-12
                and (not rep["triangle_enforced"] or rep["triangle_violations"] == 0))
    return expected, []


def check_integrate(rep: dict, out: Path, cfg: dict) -> tuple:
    problems = []
    abs_tol = cfg.get("integrator", {}).get("abs_tol", 1e-10)
    expected = rep["residual"] is not None and rep["residual"] <= 100.0 * abs_tol
    last = _last_row(out / "trajectory.csv")
    if last != [rep["final_time"], *rep["final_state"]]:
        problems.append("trajectory.csv does not end at the reported final state")
    if rep["meta"]["exited"]:
        # the exit is located to 1e-10 in time, so the state sits on the boundary
        hi = np.asarray(cfg["domain"]["hi"], dtype=float)
        lo = np.asarray(cfg["domain"]["lo"], dtype=float)
        x = np.asarray(rep["final_state"])
        gap = float(np.min(np.minimum(np.abs(x - hi), np.abs(x - lo))))
        if gap > 1e-8:
            problems.append(f"exit state is {gap:.3g} off the box boundary")
    elif rep["final_time"] != cfg["horizon"]:
        problems.append("solve stopped before the horizon without an exit")
    return expected, problems


def check_equilibrium(rep: dict, out: Path) -> tuple:
    if not rep["condition"]["certified"]:
        return False, []
    st = rep["stability"]
    return max(st["ratios"]) <= st["certified_bound"], []


def check_involutive(rep: dict, out: Path) -> tuple:
    expected = (rep["confinement_deviation"] <= rep["deviation_tol"]
                and rep["reduced_vs_full_max_err"] <= rep["match_tol"])
    return expected, []


# --------------------------------------------------------------------------- workloads


def exhibit_ops(variant: str, work: Path, quick: bool) -> list:
    extra = QUICK_LADDER if quick else []
    return [Op(f"counterexample-{variant}", ["counterexample", "--variant", variant, *extra],
               work / variant, check_exhibit)]


def checks_ops(seed: int, work: Path, quick: bool) -> list:
    """One pass over the five other commands; all but the integrate problem
    are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    grid = 129 if quick else 1025
    group_samples, gauge_samples, eq_samples = (2000, 200, 200) if quick else (20000, 2000, 2000)

    # The paper's kind of coefficient: smooth in x3 plus a distance with a kink.
    # This one problem is fixed, not drawn from the seed, because it shows two
    # known defects on every run, and they count as failures: the free path
    # crosses the kink and misses the residual gate, and the box solve takes
    # its exit state from the Hermite interpolant and misses it too.  Drawn
    # points show the second defect on most seeds and the first on few, so the
    # failure count would depend on the seed.
    x0 = [0.443, 0.011, 0.476]
    point = [-0.838, 0.215, -0.247]
    problem = {
        "group": "heisenberg",
        "field": {"coefficients": [
            {"form": "sin_coordinate", "index": 3, "scale": 2.0},
            {"form": "distance_to_point", "point": point},
        ]},
        "x0": x0,
        "horizon": 2.0,
        "integrator": {"dense_output_grid": grid},
    }
    boxed = dict(problem, domain={"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]})
    equilibrium = {
        "group": "heisenberg",
        "field": {"coefficients": [
            {"form": "distance_to_point", "point": [0.0, 0.0, 0.0]},
            {"form": "constant", "value": 0.0},
        ]},
        "equilibrium_point": [0.0, 0.0, 0.0],
        "box": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        "samples": eq_samples,
        "seed": seed,
        "horizon": 1.0,
        "initial_points": [(10.0 ** -(k + 2) * v).tolist()
                           for k, v in enumerate(rng.uniform(-1.0, 1.0, (4, 3)))],
        "integrator": {"dense_output_grid": grid},
    }
    involutive = {
        "group": "heisenberg",
        "basis": [[1.0, 0.0, 0.0]],
        "field": {"coefficients": [{"form": "sin_coordinate", "index": 1}], "indices": [1]},
        "x0": rng.uniform(-1.0, 1.0, 3).tolist(),
        "horizon": 1.0,
        "integrator": {"dense_output_grid": grid},
    }

    s = str(seed)
    ops = [
        Op("check-group", ["check-group", "--samples", str(group_samples), "--seed", s],
           work / "group", check_group),
        Op("check-gauge-koranyi", ["check-gauge", "--gauge", "koranyi",
                                   "--samples", str(gauge_samples), "--seed", s],
           work / "gauge-koranyi", check_gauge),
        Op("check-gauge-smooth", ["check-gauge", "--gauge", "smooth",
                                  "--samples", str(gauge_samples), "--seed", s],
           work / "gauge-smooth", check_gauge),
    ]
    for name, cfg, check in (
        ("integrate-free", problem, partial(check_integrate, cfg=problem)),
        ("integrate-box", boxed, partial(check_integrate, cfg=boxed)),
        ("equilibrium", equilibrium, check_equilibrium),
        ("involutive", involutive, check_involutive),
    ):
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg))
        ops.append(Op(name, [name.split("-")[0], "--config", str(path)], work / name, check))
    return ops


def build(workload: str, seed: int, work: Path, quick: bool) -> list:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "exhibit-time":
        return exhibit_ops("time", work, quick)
    if workload == "exhibit-autonomous":
        return exhibit_ops("autonomous", work, quick)
    if workload == "checks":
        return checks_ops(seed, work, quick)
    raise ValueError(f"unknown workload {workload!r}")
