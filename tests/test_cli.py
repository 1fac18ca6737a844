import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import horoflow
from horoflow import counterexample as cx
from horoflow.cli import _write_uv_csv, main
from horoflow.flow import Trajectory, write_trajectory_csv

HEIS_GROUP = {
    "layers": [2, 1],
    "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2.0}]}],
}


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def masked(report):
    report = dict(report)
    report.pop("timestamp", None)
    return report


def test_check_group_passes(tmp_path):
    code = main(["check-group", "--preset", "heisenberg", "--samples", "500",
                 "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["passed"]
    assert rep["closed_form_law_max_err"] <= 1e-12
    assert "timestamp" in rep


def test_check_group_from_group_json(tmp_path):
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps(HEIS_GROUP))
    code = main(["check-group", "--group", str(gpath), "--samples", "200",
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_check_group_rejects_invalid_group(tmp_path, capsys):
    bad = dict(HEIS_GROUP)
    bad["brackets"] = [{"i": 1, "j": 2, "coeffs": [{"k": 1, "c": 2.0}]}]
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps(bad))
    code = main(["check-group", "--group", str(gpath), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grading" in capsys.readouterr().err


def test_check_gauge_both_gauges(tmp_path):
    assert main(["check-gauge", "--gauge", "koranyi", "--samples", "800",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["check-gauge", "--gauge", "smooth", "--samples", "800",
                 "--out", str(tmp_path / "b")]) == 0
    rep = read_report(tmp_path / "a")
    for key in ("homogeneity_max_err", "symmetry_max_err", "triangle_violations",
                "equivalence_constants"):
        assert key in rep


def test_integrate_writes_trajectory(tmp_path):
    cfg = {
        "group": "heisenberg",
        "field": {"coefficients": [
            {"form": "constant", "value": 1.0},
            {"form": "constant", "value": 0.0},
        ]},
        "x0": [0.0, 0.0, 0.0],
        "horizon": 1.0,
        "integrator": {"dense_output_grid": 65},
    }
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cpath), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["final_state"][0] == pytest.approx(1.0, abs=1e-12)
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,x1,x2,x3"
    assert len(csv) == 66


def test_integrate_x0_outside_domain_is_usage_error(tmp_path, capsys):
    cfg = {
        "group": "heisenberg",
        "field": {"coefficients": [
            {"form": "constant", "value": 1.0},
            {"form": "constant", "value": 0.0},
        ]},
        "x0": [5.0, 0.0, 0.0],
        "horizon": 1.0,
        "domain": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
    }
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path)]) == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, kind", [
    # the monomial overflows at the start point: the first evaluation is infinite
    ({"group": "heisenberg",
      "field": {"coefficients": [
          {"form": "monomial", "exponents": [300, 0, 0], "scale": 1e300},
          {"form": "constant", "value": 0.0}]},
      "x0": [2, 0, 0], "horizon": 1.0}, "non_finite_rhs"),
    # x2' = x2^2 from x2 = 1 blows up at t = 1, before the horizon; the steps
    # follow the blow-up until a step no longer moves t
    ({"group": "heisenberg",
      "field": {"coefficients": [
          {"form": "constant", "value": 0.0},
          {"form": "monomial", "exponents": [0, 2, 0]}]},
      "x0": [0, 1, 0], "horizon": 2.0,
      "integrator": {"min_step": 1e-6, "dense_output_grid": 65}}, "step_underflow"),
    # x2' = -1e8 x2 is stiff: the explicit pair is stable only for steps
    # below about 3e-8, so the step falls under min_step at t = 0
    ({"group": "heisenberg",
      "field": {"coefficients": [
          {"form": "constant", "value": 0.0},
          {"form": "monomial", "exponents": [0, 1, 0], "scale": -1e8}]},
      "x0": [0, 1, 0], "horizon": 1.0,
      "integrator": {"min_step": 1e-6}}, "step_underflow"),
])
def test_integrate_numerical_failure_writes_report(tmp_path, capsys, cfg, kind):
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cpath), "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["passed"] is False
    assert rep["failure"]["kind"] == kind
    assert 0.0 <= rep["failure"]["t"] < cfg["horizon"]
    assert rep["failure"]["message"]
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


@pytest.mark.parametrize("integrator", [
    {"abs_tol": "x"},
    {"dense_output_grid": 100.5},
    {"method": "euler"},
    {"abs_tol": True},
    5,
    {"method": "rk4"},
])
def test_integrate_bad_integrator_value_is_usage_error(tmp_path, capsys, integrator):
    cfg = {"group": "heisenberg",
           "field": {"coefficients": [{"form": "constant", "value": 1.0},
                                      {"form": "constant", "value": 0.0}]},
           "x0": [0, 0, 0], "horizon": 1.0, "integrator": integrator}
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    # one integrator is left, so "method" is an unknown key
    unknown = isinstance(integrator, dict) and "method" in integrator
    message = "unknown integrator options ['method']" if unknown else "bad integrator options"
    assert message in err and "Traceback" not in err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    cpath = tmp_path / "broken.json"
    cpath.write_text('{"group": "heisenberg",\n  "x0": [0, 0, 0],,}\n')
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize("top", [[], 3, "x", None])
@pytest.mark.parametrize("command", ["integrate", "equilibrium", "involutive"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, command, top):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(top))
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON object at the top level" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("command", ["check-group", "check-gauge"])
def test_nonpositive_samples_flag_is_usage_error(tmp_path, capsys, command, samples):
    assert main([command, "--samples", samples, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"argument --samples: expected a positive integer, not '{samples}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "-3", "1.5", "x"])
@pytest.mark.parametrize("command", ["check-group", "check-gauge"])
def test_bad_seed_flag_is_usage_error(tmp_path, capsys, command, seed):
    assert main([command, "--seed", seed, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, not '{seed}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def equilibrium_config(tmp_path):
    cfg = {
        "group": "heisenberg",
        "field": {"coefficients": [
            {"form": "distance_to_point", "point": [0, 0, 0]},
            {"form": "constant", "value": 0.0},
        ]},
        "equilibrium_point": [0, 0, 0],
        "box": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
        "samples": 400,
        "seed": 11,
        "horizon": 1.0,
        "initial_points": [[1e-2, 0, 0], [1e-3, 0, 0], [1e-4, 0, 0], [1e-5, 0, 0]],
        "integrator": {"dense_output_grid": 257},
    }
    cpath = tmp_path / "eq.json"
    cpath.write_text(json.dumps(cfg))
    return cpath


def test_equilibrium_command_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(equilibrium_config(tmp_path)),
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["condition"]["estimated_c"] <= 1.0 + 1e-9
    assert rep["stability"]["passed"]
    assert max(rep["stability"]["ratios"]) <= rep["stability"]["certified_bound"]


def test_equilibrium_command_refuses_constant_field(tmp_path):
    cfg = json.loads((equilibrium_config(tmp_path)).read_text())
    cfg["field"]["coefficients"][0] = {"form": "constant", "value": 1.0}
    cpath = tmp_path / "eq2.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out2"
    assert main(["equilibrium", "--config", str(cpath), "--out", str(out)]) == 1
    rep = read_report(out)
    assert not rep["passed"]
    assert "refusal" in rep


def test_equilibrium_command_fails_a_start_that_leaves_the_point(tmp_path):
    # the coefficient equals t at the origin: the condition certifies at
    # t = 0, but the start at the origin moves 0.547 away by t = 1
    cfg = {
        "group": "heisenberg",
        "field": {"coefficients": [{"form": "constant", "value": 0.0},
                                   {"form": "axis_distance"}]},
        "equilibrium_point": [0, 0, 0],
        "box": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
        "initial_points": [[0, 0, 0]],
        "samples": 500,
        "seed": 0,
        "horizon": 1.0,
    }
    cpath = tmp_path / "moving.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cpath), "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["condition"]["certified"]
    assert rep["stability"]["passed"] is False and rep["passed"] is False
    assert rep["stability"]["ratios"] == [1.0]
    assert rep["stability"]["equilibrium_deviation"] > 0.5


def test_equilibrium_non_finite_coefficient_writes_report(tmp_path, capsys):
    # x1^400 overflows on most of the box: a numerical failure, not bad input
    cfg = json.loads((equilibrium_config(tmp_path)).read_text())
    cfg["field"]["coefficients"][0] = {"form": "monomial", "exponents": [400, 0, 0]}
    cfg["box"] = {"lo": [-10, -10, -10], "hi": [10, 10, 10]}
    cpath = tmp_path / "eq400.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cpath), "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["passed"] is False
    assert rep["failure"]["kind"] == "non_finite_rhs"
    assert rep["failure"]["t"] == 0.0
    assert "coefficient non-finite" in rep["failure"]["message"]
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def involutive_config(tmp_path, **overrides):
    cfg = {
        "group": "heisenberg",
        "basis": [[1.0, 0.0, 0.0]],
        "field": {"coefficients": [{"form": "sin_coordinate", "index": 1}],
                  "indices": [1]},
        "x0": [0.0, 1.0, 0.0],
        "horizon": 1.0,
        "integrator": {"dense_output_grid": 257},
    }
    cfg.update(overrides)
    cpath = tmp_path / "inv.json"
    cpath.write_text(json.dumps(cfg))
    return cpath


def integrate_config(tmp_path, **overrides):
    cfg = {"group": "heisenberg",
           "field": {"coefficients": [{"form": "constant", "value": 1.0},
                                      {"form": "constant", "value": 0.0}]},
           "x0": [0, 0, 0], "horizon": 1.0, "domain": {"lo": [-2, -2, -2], "hi": [2, 2, 2]},
           **overrides}
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    return cpath


def config_path(command, tmp_path, key, value):
    """The test config of ``command`` with ``key`` set to ``value``."""
    if command == "equilibrium":
        cpath = equilibrium_config(tmp_path)
        cpath.write_text(json.dumps({**json.loads(cpath.read_text()), key: value}))
        return cpath
    make = involutive_config if command == "involutive" else integrate_config
    return make(tmp_path, **{key: value})


def test_involutive_command_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["involutive", "--config", str(involutive_config(tmp_path)),
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["confinement_deviation"] <= 1e-8
    assert rep["reduced_vs_full_max_err"] <= 1e-8


def test_involutive_command_passes_on_a_large_basis_vector(tmp_path, capsys):
    # the group law on the span of (1000, 3000, 0) is addition up to rounding
    # of about 2e-10; the exact bracket check proves it commutes, and the
    # gates read the solves, not a float re-check of the law
    out = tmp_path / "out"
    cpath = involutive_config(tmp_path, basis=[[1000.0, 3000.0, 0.0]], x0=[0.0, 0.0, 0.0],
                              field={"coefficients": [{"form": "constant", "value": 1.0}],
                                     "indices": [1]}, integrator={})
    assert main(["involutive", "--config", str(cpath), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["passed"] and rep["confinement_deviation"] <= rep["deviation_tol"]
    assert "Traceback" not in capsys.readouterr().err


def test_involutive_command_rejects_non_commuting_basis(tmp_path, capsys):
    cpath = involutive_config(
        tmp_path,
        basis=[[1.0, 0, 0], [0, 1.0, 0]],
        field={"coefficients": [{"form": "sin_coordinate", "index": 1},
                                {"form": "constant", "value": 1.0}],
               "indices": [1, 2]},
    )
    assert main(["involutive", "--config", str(cpath), "--out", str(tmp_path)]) == 2
    assert "commute" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1], None, {"x": 1}, True, "1", float("inf")])
@pytest.mark.parametrize("command, key", [
    ("equilibrium", "horizon"), ("equilibrium", "samples"), ("equilibrium", "seed"),
    ("involutive", "horizon"), ("involutive", "deviation_tol"), ("involutive", "match_tol"),
    ("integrate", "horizon"),
])
def test_bad_number_is_usage_error(tmp_path, capsys, command, key, value):
    cpath = config_path(command, tmp_path, key, value)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad {key}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", [0, -1])
def test_equilibrium_nonpositive_samples_is_usage_error(tmp_path, capsys, samples):
    cpath = config_path("equilibrium", tmp_path, "samples", samples)
    assert main(["equilibrium", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad samples: expected at least 1, not {samples}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("samples", 2.7, "expected an integer, not 2.7"),
    ("samples", 400.5, "expected an integer, not 400.5"),
    ("seed", 0.5, "expected an integer, not 0.5"),
    ("seed", -3, "expected at least 0, not -3"),
    ("seed", -1.0, "expected at least 0, not -1.0"),
])
def test_equilibrium_bad_count_is_usage_error(tmp_path, capsys, key, value, message):
    # a count is never truncated, and a negative seed is named before numpy
    # sees it
    cpath = config_path("equilibrium", tmp_path, key, value)
    assert main(["equilibrium", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad {key}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_equilibrium_integral_float_counts_run_as_integers(tmp_path):
    # 400.0 and 11.0 are the counts 400 and 11: the report is the one the
    # integer config writes
    reports = []
    for samples, seed in ((400, 11), (400.0, 11.0)):
        cpath = config_path("equilibrium", tmp_path, "samples", samples)
        cpath.write_text(json.dumps({**json.loads(cpath.read_text()), "seed": seed}))
        out = tmp_path / f"out-{samples!r}"
        assert main(["equilibrium", "--config", str(cpath), "--out", str(out)]) == 0
        reports.append(masked(read_report(out)))
    assert reports[0] == reports[1]
    assert reports[1]["seed"] == 11 and type(reports[1]["seed"]) is int


@pytest.mark.parametrize("command, key, value", [
    ("involutive", "x0", [None, 1, 0]),
    ("involutive", "x0", [0, 1]),
    ("involutive", "basis", [[None, 0, 0]]),
    ("involutive", "basis", []),
    ("equilibrium", "box", {"lo": [None, -1, -1], "hi": [1, 1, 1]}),
    ("equilibrium", "box", {"lo": [-1, -1, -1]}),
    ("equilibrium", "box", [[-1, -1, -1], [1, 1, 1]]),
    ("equilibrium", "initial_points", [[1e-2, 0, 0], [None, 0, 0]]),
    ("equilibrium", "initial_points", [1e-2, 0, 0]),
    ("equilibrium", "equilibrium_point", [None, 0, 0]),
    ("equilibrium", "equilibrium_point", [0, 0, float("nan")]),
    ("integrate", "x0", [None, 0, 0]),
    ("integrate", "x0", [0, 0, float("nan")]),
    ("integrate", "domain", {"lo": [-1, None, -1], "hi": [1, 1, 1]}),
])
def test_bad_point_is_usage_error(tmp_path, capsys, command, key, value):
    cpath = config_path(command, tmp_path, key, value)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad {key}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", [[], {"coefficients": [1, 2]}])
@pytest.mark.parametrize("command", ["integrate", "equilibrium", "involutive"])
def test_malformed_field_spec_is_usage_error(tmp_path, capsys, command, field):
    cpath = config_path(command, tmp_path, "field", field)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad field spec" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


INF = float("inf")  # what the JSON literal 1e999 reads as


@pytest.mark.parametrize("coefficient, key", [
    ({"form": "monomial", "exponents": [1, 0, 0], "scale": INF}, "scale"),
    ({"form": "constant", "value": INF}, "value"),
    ({"form": "sin_coordinate", "index": 1, "scale": INF}, "scale"),
    ({"form": "distance_to_point", "point": [0, INF, 0]}, "point"),
    ({"form": "distance_to_point", "point": [0, 0]}, "point"),
], ids=["monomial-scale", "constant-value", "sin-scale", "point-entry", "short-point"])
def test_non_finite_field_spec_is_usage_error(tmp_path, capsys, coefficient, key):
    # a non-finite number or a short point is refused when the field is
    # built, naming its form and key, not met as a failure inside the solve
    field = {"coefficients": [coefficient, {"form": "constant", "value": 0.0}]}
    cpath = integrate_config(tmp_path, field=field)
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad field spec: {coefficient['form']} {key} " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_failed_rung_monitor_writes_report(tmp_path, capsys):
    # on grid 256 the thirteenth autonomous rung fails its integral_residual
    # monitor; the command still writes a report naming the failure
    out = tmp_path / "out"
    assert main(["counterexample", "--variant", "autonomous", "--rungs", "13",
                 "--tau", "0.2", "--grid", "256", "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["passed"] is False
    assert rep["failure"]["kind"] == "monitor_violation"
    assert rep["failure"]["t"] is None
    assert "integral_residual" in rep["failure"]["message"]
    err = capsys.readouterr().err
    assert "integral_residual" in err and "Traceback" not in err


def counterexample_args(out, extra=()):
    return ["counterexample", "--variant", "time", "--eps0", "0.1",
            "--ratio", "0.5", "--rungs", "6", "--tau", "0.2",
            "--grid", "256", "--out", str(out), *extra]


def test_counterexample_command_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(counterexample_args(out)) == 0
    rep = read_report(out)
    assert rep["nonuniqueness_certified"]
    rungs = sorted(out.glob("rung_eps_*.csv"))
    assert len(rungs) == 6
    assert (out / "limit_uv.csv").exists()
    gamma = (out / "gamma.csv").read_text().splitlines()
    assert gamma[0] == "t,x1,x2,x3"
    assert len(gamma) == 257


def test_counterexample_reproducible_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(counterexample_args(a)) == 0
    assert main(counterexample_args(b)) == 0
    assert masked(read_report(a)) == masked(read_report(b))
    assert (a / "gamma.csv").read_text() == (b / "gamma.csv").read_text()


def uv_csv_oracle(sol):
    """The per-value f-string loop the CSV writers must reproduce byte for byte."""
    lines = ["t,u,v\n"]
    for t, u, v in zip(sol.times, sol.u, sol.v):
        lines.append(f"{t:.17g},{u:.17g},{v:.17g}\n")
    return "".join(lines)


def trajectory_csv_oracle(tr):
    q = tr.states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(q)) + "\n"]
    for t, row in zip(tr.times, tr.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
    return "".join(lines)


def test_csv_writers_match_the_per_value_loop(tmp_path):
    awkward = np.array([0.0, -0.0, 1.0 / 3.0, -2.5e-308, 5e-324, 1e22, -123456789.125,
                        np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan, 0.1])
    uv = cx.UVSolution(np.arange(12.0) / 7.0, awkward, awkward[::-1].copy(), 0.1, "time", {})
    _write_uv_csv(uv, tmp_path / "uv.csv")
    assert (tmp_path / "uv.csv").read_bytes() == uv_csv_oracle(uv).encode()
    tr = Trajectory(uv.times, np.column_stack([awkward, awkward**2, -awkward]), {})
    write_trajectory_csv(tr, tmp_path / "tr.csv")
    assert (tmp_path / "tr.csv").read_bytes() == trajectory_csv_oracle(tr).encode()

    # the exhibit's artifacts, recomputed by the library
    out = tmp_path / "out"
    assert main(counterexample_args(out)) == 0
    spec = cx.LadderSpec(eps0=0.1, ratio=0.5, count=6, tau=0.2, grid_points=256)
    ladder = cx.run_epsilon_ladder(spec, "time")
    _, gamma = cx.build_nonuniqueness_report(ladder)
    for sol in ladder.solutions:
        assert (out / f"rung_eps_{sol.epsilon:.9g}.csv").read_text() == uv_csv_oracle(sol)
    assert (out / "limit_uv.csv").read_text() == uv_csv_oracle(ladder.limit)
    assert (out / "gamma.csv").read_text() == trajectory_csv_oracle(gamma)


def test_json_flag_prints_instead_of_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["check-group", "--samples", "100", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["passed"]
    assert not (tmp_path / "horoflow-out").exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def numpy_dispatch_targets():
    """The SIMD targets numpy picks among at run time and this CPU supports,
    or None if numpy exposes no ``__cpu_dispatch__``."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(umath, "__cpu_dispatch__"):
            return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return None


def reports_with_and_without_simd(capsys, argv):
    """The report of ``argv`` in this process and with every dispatch target
    disabled in a subprocess."""
    targets = numpy_dispatch_targets()
    if targets is None:
        pytest.skip("numpy exposes no __cpu_dispatch__")
    if not targets:
        pytest.skip("this CPU runs none of numpy's dispatch targets")
    assert main(argv) == 0
    here = json.loads(capsys.readouterr().out)
    src = str(Path(horoflow.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "horoflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return masked(here), masked(json.loads(done.stdout))


def test_time_exhibit_report_does_not_depend_on_simd_dispatch(capsys):
    argv = ["counterexample", "--variant", "time", "--rungs", "6", "--tau", "0.2",
            "--grid", "256", "--json"]
    here, baseline = reports_with_and_without_simd(capsys, argv)
    assert baseline == here


def flat_numbers(node, path=""):
    """(path, value) of every number in a JSON tree, in document order."""
    if isinstance(node, dict):
        return [x for k in sorted(node) for x in flat_numbers(node[k], f"{path}/{k}")]
    if isinstance(node, list):
        return [x for i, v in enumerate(node) for x in flat_numbers(v, f"{path}/{i}")]
    return [(path, node)]


def test_autonomous_exhibit_report_barely_depends_on_simd_dispatch(capsys):
    # the minimiser's sinh and arcsinh follow the dispatch target, so the last
    # bits may move; the verdict and every figure to 1e-12 may not
    argv = ["counterexample", "--variant", "autonomous", "--rungs", "14", "--tau", "0.2",
            "--grid", "1024", "--json"]
    here, baseline = reports_with_and_without_simd(capsys, argv)
    assert baseline["nonuniqueness_certified"] is here["nonuniqueness_certified"] is True
    leaves, base_leaves = flat_numbers(here), flat_numbers(baseline)
    assert [p for p, _ in leaves] == [p for p, _ in base_leaves]
    for (path, x), (_, y) in zip(leaves, base_leaves):
        if isinstance(x, float) or isinstance(y, float):
            assert abs(x - y) <= 1e-12, (path, x, y)
        else:
            assert x == y, (path, x, y)
