import dataclasses
import importlib
import json
import operator
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import horoflow
from horoflow import cli
from horoflow import counterexample as cx
from horoflow.cli import _write_uv_csv, main
from horoflow.flow import write_trajectory_csv
from horoflow.gates import gate
from horoflow.stepping import IntegratorConfig, Trajectory

HEIS_GROUP = {
    "layers": [2, 1],
    "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2.0}]}],
}


RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}
VERDICTS = ("passed", "certified", "converged", "nonuniqueness_certified")


def gate_blocks(report):
    """Every dict in ``report``, nested ones included, that holds ``gates``."""
    if isinstance(report, list):
        return [block for item in report for block in gate_blocks(item)]
    if not isinstance(report, dict):
        return []
    nested = [block for value in report.values() for block in gate_blocks(value)]
    return [report, *nested] if "gates" in report else nested


def check_gates(report):
    """Recompute each gate row of ``report`` from its value, relation and
    bound, and each block's verdict as the AND of its rows."""
    for block in gate_blocks(report):
        rows = block["gates"]
        for row in rows:
            assert set(row) == {"name", "value", "relation", "bound", "passed"}, row
            value = row["value"]
            assert row["passed"] is (value is not None
                                     and RELATIONS[row["relation"]](value, row["bound"])), row
            if row["name"] in block:
                assert block[row["name"]] == value, row
        (verdict,) = (key for key in VERDICTS if key in block)
        assert block[verdict] is all(row["passed"] for row in rows), verdict
        if "failures" in block:
            assert block["failures"] == [row["name"] for row in rows if not row["passed"]]
    return report


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return check_gates(json.load(fh))


def read_strict_report(outdir):
    """The report, read by a parser that refuses the non-JSON Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"report.json holds {name}")
    return check_gates(json.loads((outdir / "report.json").read_text(), parse_constant=refuse))


def masked(report):
    report = dict(report)
    report.pop("timestamp", None)
    return report


def test_check_group_passes(tmp_path):
    code = main(["check-group", "--samples", "500", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["passed"]
    assert rep["closed_form_law_max_err"] <= 1e-12
    assert "timestamp" in rep


def law_errors_oracle(alg, n, seed):
    """check-group's errors by its whole-array formulas, from its draws."""
    rng = np.random.default_rng(seed)
    X, Y, Z = (rng.uniform(-10.0, 10.0, size=(n, alg.dim)) for _ in range(3))
    m = alg.multiply_batch
    errs = {
        "associativity_max_err": np.max(np.abs(m(m(X, Y), Z) - m(X, m(Y, Z)))),
        "inverse_max_err": np.max(np.abs(m(X, -X))),
        "identity_max_err": np.max(np.abs(m(X, np.zeros_like(X)) - X)),
    }
    r = float(rng.uniform(0.5, 2.0))
    errs["dilation_automorphism_max_err"] = np.max(np.abs(
        alg.dilate(r, m(X, Y)) - m(alg.dilate(r, X), alg.dilate(r, Y))))
    if alg.dim == 3:
        closed = np.column_stack([X[:, 0] + Y[:, 0], X[:, 1] + Y[:, 1],
                                  X[:, 2] + Y[:, 2] + X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0]])
        errs["closed_form_law_max_err"] = np.max(np.abs(m(X, Y) - closed))
    return {key: float(v) for key, v in errs.items()}


# check-group evaluates its checks on blocks of cli._BLOCK = 4096 rows
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10001])
@pytest.mark.parametrize("group", ["heisenberg", "filiform"])
def test_check_group_blocks_match_the_whole_array_formulas(tmp_path, capsys, n, group):
    argv = ["check-group", "--samples", str(n), "--seed", "5", "--json"]
    if group == "heisenberg":
        alg = horoflow.groups.heisenberg()
    else:
        spec = {"layers": [2, 1, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 1}]},
                                                  {"i": 1, "j": 3, "coeffs": [{"k": 4, "c": 1}]}]}
        (tmp_path / "g.json").write_text(json.dumps(spec))
        argv += ["--group", str(tmp_path / "g.json")]
        alg = horoflow.groups.algebra_from_json(spec)
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    errs = law_errors_oracle(alg, n, 5)
    assert sorted(k for k in rep if k.endswith("_max_err")) == sorted(errs)
    for key, value in errs.items():
        assert rep[key] == value, key


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


@pytest.mark.parametrize("key, index", [("associativity_max_err", 0),
                                        ("dilation_automorphism_max_err", 3)])
def test_check_group_fails_a_law_error_above_its_gate(capsys, monkeypatch, key, index):
    # 5e-10 added to one law error: five times its gate of 1e-10
    law_errors = cli._law_errors

    def off(*args):
        errs = law_errors(*args)
        errs[index] += 5e-10
        return errs
    monkeypatch.setattr(cli, "_law_errors", off)
    assert main(["check-group", "--samples", "200", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert 1e-10 < rep[key] < 1e-9 and rep["passed"] is False


def test_check_gauge_both_gauges(tmp_path):
    assert main(["check-gauge", "--gauge", "koranyi", "--samples", "800",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["check-gauge", "--gauge", "smooth", "--samples", "800",
                 "--out", str(tmp_path / "b")]) == 0
    rep = read_report(tmp_path / "a")
    for key in ("homogeneity_max_err", "symmetry_max_err", "triangle_violations",
                "equivalence_constants"):
        assert key in rep


def test_check_gauge_overflow_is_a_numerical_failure(tmp_path, capsys):
    # a bracket constant of 1e308 overflows the sampled products themselves
    # (and inf - inf is nan): the report would hold a NaN quasi_triangle_constant,
    # which strict JSON cannot write, so the command fails as non_finite_value
    gpath = tmp_path / "g.json"
    for c, code in ((1e306, 0), (1e308, 1)):  # at 1e306 products and gauges are finite
        gpath.write_text(json.dumps({"layers": [2, 1], "brackets": [
            {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": c}]}]}))
        out = tmp_path / f"out{code}"
        assert main(["check-gauge", "--gauge", "smooth", "--group", str(gpath),
                     "--out", str(out)]) == code
    rep = read_strict_report(out)
    assert rep["passed"] is False
    assert rep["failure"]["kind"] == "non_finite_value" and rep["failure"]["t"] is None
    message = "the report holds a non-finite value: quasi_triangle_constant = nan"
    assert rep["failure"]["message"] == message
    err = capsys.readouterr().err
    assert f"numerical failure: {message}" in err
    assert "Warning" not in err and "Traceback" not in err


def test_non_finite_report_values_are_named_by_key_path():
    # a gate row repeats its value, so the message names it once
    report = {"passed": False, "gap": float("nan"), "rows": [(0.0, -float("inf"))],
              "stability": {"ratios": [1.0, 2.0, float("inf")], "bound": 3.0,
                            "gates": [gate("max_ratio", float("inf"), "<=", 3.0)]}}
    assert cli._non_finite(report) == ["gap = nan", "rows[0][1] = -inf",
                                       "stability.ratios[2] = inf"]


@pytest.mark.parametrize("grid, code", [(2049, 1), (4097, 0)])
def test_integrate_residual_is_gated_at_gate_tol(tmp_path, grid, code):
    # the benchmark's kink problem: its Simpson residual reads 2.9e-8 on 2049
    # output points, between one and ten times the gate of 1e-8, and 1.8e-9
    # on 4097
    cpath = integrate_config(tmp_path, field={"coefficients": [
        {"form": "sin_coordinate", "index": 3, "scale": 2.0},
        {"form": "distance_to_point", "point": [-0.838, 0.215, -0.247]}]},
        x0=[0.443, 0.011, 0.476], horizon=2.0, domain=None,
        integrator={"dense_output_grid": grid})
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cpath), "--out", str(out)]) == code
    residual, gate = read_report(out)["residual"], IntegratorConfig().gate_tol
    assert residual < 10.0 * gate and (residual > gate) is (code == 1)


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
    # a finite slope of 1e300 overflows the state near t = 1.8e8: the step
    # that takes it past the float maximum ends the solve
    ({"group": {"layers": [2]},
      "field": {"coefficients": [
          {"form": "constant", "value": 1e300},
          {"form": "constant", "value": 0}]},
      "x0": [0, 0], "horizon": 1e10}, "non_finite_state"),
])
def test_integrate_numerical_failure_writes_report(tmp_path, capsys, cfg, kind):
    cpath = tmp_path / "problem.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cpath), "--out", str(out)]) == 1
    rep = read_strict_report(out)
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


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("fails", [False, True], ids=["report", "failure-report"])
def test_out_that_is_not_a_directory_is_usage_error(tmp_path, capsys, fails, under):
    # an --out naming a file, or a path under one; with ``fails`` the report
    # is written by the numerical-failure handler (the stiff decay of
    # test_integrate_numerical_failure_writes_report)
    afile = tmp_path / "afile"
    afile.write_text("")
    out = str(afile / under) if under else str(afile)
    argv = ["check-group", "--samples", "10"]
    if fails:
        cfg = {"group": "heisenberg",
               "field": {"coefficients": [
                   {"form": "constant", "value": 0.0},
                   {"form": "monomial", "exponents": [0, 1, 0], "scale": -1e8}]},
               "x0": [0, 1, 0], "horizon": 1.0, "integrator": {"min_step": 1e-6}}
        cpath = tmp_path / "stiff.json"
        cpath.write_text(json.dumps(cfg))
        argv = ["integrate", "--config", str(cpath)]
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: bad --out {out}: " in err and "Traceback" not in err
    assert afile.read_text() == ""


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


def test_report_blocks_keep_their_keys(tmp_path):
    out = tmp_path / "eq"
    assert main(["equilibrium", "--config", str(equilibrium_config(tmp_path)),
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert set(rep["condition"]) == {"equilibrium_point", "estimated_c", "scale_maxima",
                                     "gates", "certified", "samples", "seed"}
    assert set(rep["stability"]) == {"ratios", "initial_distances", "certified_bound", "kappa",
                                     "c_integral", "gates", "passed", "equilibrium_deviation"}
    out = tmp_path / "int"
    assert main(["integrate", "--config", str(integrate_config(tmp_path)),
                 "--out", str(out)]) == 0
    assert set(read_report(out)["meta"]) == {"abs_tol", "rel_tol", "exited", "exit_time",
                                             "steps", "rejected", "rhs_evals", "min_step",
                                             "min_step_t", "max_step"}
    out = tmp_path / "cx"
    assert main(counterexample_args(out)) == 0
    ladder = read_report(out)["ladder"]
    assert set(ladder) == {"variant", "epsilons", "sup_differences", "gates", "converged",
                           "gaps_decreasing_from", "limit_residual", "gap_tol", "tau", "rungs"}
    rungs = ladder["rungs"]
    assert len(rungs) == 6
    for rung in rungs:
        assert set(rung) == {
            "epsilon", "variant", "min_u", "min_v", "mix_bound_margin", "lower_mix_margin",
            "linear_envelope_margin", "exp_linear_constant", "stationarity",
            "integral_residual", "crossing_time", "crossing_threshold", "lower_bound_margin",
            "lower_bound_constant", "minimizer_sup", "gates", "failures", "passed",
        }


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_gate_table():
    """{row name: (relation, bound cell)} of the README's gate table."""
    section = README.read_text().split("#### Gates", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 6 and cells[1].startswith("`"):
            table[cells[1].strip("`")] = (cells[3].strip("`"), cells[4])
    return table


def test_every_gate_row_is_in_the_readme_table(tmp_path, capsys):
    # every row a report holds is in the table with its relation, and a bound
    # the table writes as a number is the row's bound
    table = readme_gate_table()
    eq = equilibrium_config(tmp_path)
    eq.write_text(json.dumps({**json.loads(eq.read_text()), "initial_points": [[0, 0, 0]]}))
    reports = []
    for argv in (["check-group", "--samples", "200"], ["check-gauge", "--samples", "200"],
                 ["check-gauge", "--gauge", "smooth", "--samples", "200"],
                 ["integrate", "--config", str(integrate_config(tmp_path))],
                 ["equilibrium", "--config", str(eq)],
                 ["involutive", "--config", str(involutive_config(tmp_path))],
                 counterexample_args(tmp_path)[:-2]):
        main([*argv, "--json"])
        reports.append(check_gates(json.loads(capsys.readouterr().out)))
    # an autonomous rung, and a rung whose v crosses its threshold line late
    t = np.linspace(0.0, 0.5, 129)
    reports += [cx.rung_monitor_report("autonomous", 0.05, t, np.ones((129, 2))),
                cx.rung_monitor_report("time", 0.05, t, np.column_stack(
                    [np.ones_like(t), np.maximum(1.0 - 1.2 * t, 0.0)]))]
    met = set()
    for block in gate_blocks(reports):
        for row in block["gates"]:
            relation, bound = table[row["name"]]
            assert row["relation"] == relation, row
            met.add(row["name"])
            if bound.startswith("`gate_tol`"):  # the test configs keep the default abs_tol
                assert row["bound"] == IntegratorConfig().gate_tol, row
                continue
            try:
                number = float(bound)
            except ValueError:  # a bound that depends on the data
                continue
            assert row["bound"] == number, row
    assert met == set(table)


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
    # the coefficient equals t at the origin: it degenerates at t = 0, but
    # the condition is sampled at t = 0, horizon/2 and horizon, so it is not
    # certified and the monitor never runs
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
    assert rep["condition"]["certified"] is False and rep["passed"] is False
    assert "not certified" in rep["refusal"] and "stability" not in rep
    # the maxima double with each halving of the sample scale: a(t, x) ~ t
    maxima = rep["condition"]["scale_maxima"]
    assert all(1.5 < b / a < 2.5 for a, b in zip(maxima, maxima[1:]))


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


@pytest.mark.parametrize("off, code", [(2e-8, 1), (2e-9, 0)])
@pytest.mark.parametrize("patched", ["confinement_check", "reduced_solve"])
def test_involutive_gates_are_gate_tol(tmp_path, monkeypatch, patched, off, code):
    # the confinement defect, or the reduced states, moved off by twice the
    # gate of 1e-8 fail the command; a fifth of the gate passes
    if patched == "confinement_check":
        monkeypatch.setattr(cli, "confinement_check", lambda *args: off)
    else:
        solve = cli.reduced_solve

        def reduced_solve(*args):
            tr = solve(*args)
            return dataclasses.replace(tr, states=tr.states + off)
        monkeypatch.setattr(cli, "reduced_solve", reduced_solve)
    out = tmp_path / "out"
    assert main(["involutive", "--config", str(involutive_config(tmp_path)),
                 "--out", str(out)]) == code
    rep = read_report(out)
    assert rep["deviation_tol"] == rep["match_tol"] == IntegratorConfig().gate_tol == 1e-8
    err = max(rep["confinement_deviation"], rep["reduced_vs_full_max_err"])
    assert err == pytest.approx(off, rel=1e-6)


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
    # the involutive tolerances are no longer config keys (both gates read
    # IntegratorConfig.gate_tol), so any value of theirs is refused by name
    cpath = config_path(command, tmp_path, key, value)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    refusal = (f"unknown config keys ['{key}']" if key in ("deviation_tol", "match_tol")
               else f"bad {key}")
    assert refusal in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["deviation_tol", "match_tol", "horizn"])
@pytest.mark.parametrize("command", ["equilibrium", "involutive", "integrate"])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, key):
    # a key the command does not read is refused by name, so no config can
    # loosen a gate by a key that is silently ignored
    cpath = config_path(command, tmp_path, key, 1.0)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"unknown config keys ['{key}']" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [0, -1])
@pytest.mark.parametrize("command", ["equilibrium", "involutive", "integrate"])
def test_nonpositive_horizon_is_usage_error(tmp_path, capsys, monkeypatch, command, horizon):
    # refused when the config is read, before equilibrium samples its field
    monkeypatch.setattr(cli, "verify_equilibrium_condition",
                        lambda *args: pytest.fail("the field was sampled"))
    cpath = config_path(command, tmp_path, "horizon", horizon)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad horizon: expected a positive number, not {horizon}" in err
    assert "Traceback" not in err
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


FILIFORM_GROUP = {"layers": [2, 1, 1],
                  "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 1}]},
                               {"i": 1, "j": 3, "coeffs": [{"k": 4, "c": 1}]}]}
ZERO = {"form": "constant", "value": 0.0}


def with_key(entry, key, value):
    return {**entry, key: value}


@pytest.mark.parametrize("command, key, value, message", [
    ("integrate", "field", {"coefficients": [{"form": "sin_coordinate", "index": 3, "scael": 1e6},
                                             ZERO]},
     "bad field spec: unknown sin_coordinate keys ['scael']"),
    ("integrate", "field", {"coefficients": [{"form": "constant", "value": 1.0, "scale": 2.0},
                                             ZERO]},
     "bad field spec: unknown constant keys ['scale']"),
    ("integrate", "field", {"coefficients": [{"form": "monomial", "exponents": [1, 0, 0],
                                              "index": 1}, ZERO]},
     "bad field spec: unknown monomial keys ['index']"),
    ("integrate", "field", {"coefficients": [{"form": "distance_to_point", "pont": [0, 0, 0]},
                                             ZERO]},
     "bad field spec: unknown distance_to_point keys ['pont']"),
    ("integrate", "field", {"coefficients": [{"form": "axis_distance", "point": [0, 0, 0]}, ZERO]},
     "bad field spec: unknown axis_distance keys ['point']"),
    ("integrate", "field", {"coefficients": [{"form": "axis_distance_inf", "scale": 2}, ZERO]},
     "bad field spec: unknown axis_distance_inf keys ['scale']"),
    ("integrate", "field", {"coefficients": [ZERO, ZERO], "indexes": [1, 2]},
     "bad field spec: unknown field spec keys ['indexes']"),
    ("integrate", "domain", {"lo": [-2, -2, -2], "hi": [2, 2, 2], "hii": [3, 3, 3]},
     "unknown domain keys ['hii']"),
    ("equilibrium", "box", {"lo": [-1, -1, -1], "hi": [1, 1, 1], "mid": [0, 0, 0]},
     "unknown box keys ['mid']"),
    ("involutive", "group", with_key(HEIS_GROUP, "name", "heisenberg"),
     "unknown group spec keys ['name']"),
    ("integrate", "group", {"layers": [2, 1], "brackets": [
        {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2.0}], "k": 3}]},
     "unknown group spec bracket keys ['k']"),
    ("equilibrium", "group", {"layers": [2, 1], "brackets": [
        {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2.0, "cc": 1.0}]}]},
     "unknown group spec bracket coefficient keys ['cc']"),
], ids=["sin_coordinate", "constant", "monomial", "distance_to_point", "axis_distance",
        "axis_distance_inf", "field-spec", "domain", "box", "group-spec", "bracket",
        "bracket-coefficient"])
def test_unknown_nested_key_is_usage_error(tmp_path, capsys, command, key, value, message):
    # every JSON object of a config is read by one rule: a key it does not
    # read is refused by name, so a misspelt key cannot pass unread
    cpath = config_path(command, tmp_path, key, value)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_group_file_key_is_usage_error(tmp_path, capsys):
    group = {"layers": [2, 1], "name": "heisenberg",
             "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2, "cc": 1}]}]}
    for spec, message in ((group, "unknown group spec keys ['name']"),
                          ({k: v for k, v in group.items() if k != "name"},
                           "unknown group spec bracket coefficient keys ['cc']")):
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(spec))
        assert main(["check-group", "--group", str(gpath), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, message", [
    (5, "expected an object, not 5"), (0, "expected an object, not 0"),
    ([], "expected an object, not []"), ("", "expected an object, not ''"),
    ({}, "expected a list of 3 numbers, not None")])
@pytest.mark.parametrize("command, key", [("integrate", "domain"), ("equilibrium", "box")])
def test_box_that_is_not_an_object_is_usage_error(tmp_path, capsys, command, key, value,
                                                  message):
    # a domain that is not a box object is refused by name, a falsy one too;
    # only an absent or null integrate domain means none
    cpath = config_path(command, tmp_path, key, value)
    assert main([command, "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad {key}" in err and message in err and "Traceback" not in err


def bad_input_argv(tmp_path, case):
    """The argument list of one bad-input case (see the test below)."""
    if case == "missing-config":
        return ["integrate", "--config", str(tmp_path / "missing.json")]
    if case == "koranyi-off-heisenberg":
        (tmp_path / "g.json").write_text(json.dumps(FILIFORM_GROUP))
        return ["check-gauge", "--gauge", "koranyi", "--group", str(tmp_path / "g.json")]
    if case == "tau-above-one":
        return ["counterexample", "--tau", "2"]
    command, key, value = {
        "unknown-preset": ("integrate", "group", "engel"),
        "coefficient-count": ("involutive", "field", {"coefficients": [ZERO, ZERO],
                                                      "indices": [1, 2]}),
        "degenerate-box": ("integrate", "domain", {"lo": [-1, 0, -1], "hi": [1, 0, 1]}),
        "short-exponents": ("integrate", "field", {"coefficients": [
            {"form": "monomial", "exponents": [1, 0]}, ZERO]}),
        "axis-off-heisenberg": ("integrate", "field", {"coefficients": [
            {"form": "axis_distance"}, ZERO]}),
        "index-out-of-range": ("integrate", "field", {"coefficients": [
            {"form": "sin_coordinate", "index": 4}, ZERO]}),
        "zero-layer": ("integrate", "group", {"layers": [2, 0]}),
        "bracket-index": ("integrate", "group", {"layers": [2, 1], "brackets": [
            {"i": 1, "j": 5, "coeffs": [{"k": 3, "c": 2}]}]}),
        "bracket-target": ("integrate", "group", {"layers": [2, 1], "brackets": [
            {"i": 1, "j": 2, "coeffs": [{"k": 9, "c": 2}]}]}),
        "bracket-without-coeffs": ("integrate", "group", {"layers": [2, 1], "brackets": [
            {"i": 1, "j": 2}]}),
        "repeated-bracket": ("integrate", "group", {"layers": [2, 1], "brackets": [
            {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2}]},
            {"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 2}]}]}),
        "dependent-basis": ("involutive", "basis", [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        "field-not-an-object": ("integrate", "field", []),
    }[case]
    cpath = config_path(command, tmp_path, key, value)
    if case == "axis-off-heisenberg":
        cpath.write_text(json.dumps({**json.loads(cpath.read_text()), "group": FILIFORM_GROUP,
                                     "x0": [0, 0, 0, 0], "domain": {"lo": [-1] * 4,
                                                                    "hi": [1] * 4}}))
    return [command, "--config", str(cpath)]


BAD_INPUTS = [
    ("missing-config", "config file not found: "),
    ("unknown-preset", "unknown group preset 'engel'"),
    ("koranyi-off-heisenberg", "the koranyi gauge requires the Heisenberg preset"),
    ("coefficient-count", "field must provide one coefficient per basis element"),
    ("tau-above-one", "tau must lie in (0, 1]"),
    ("degenerate-box", "degenerate box: every side must have positive length"),
    ("short-exponents", "bad field spec: monomial exponents must have one entry per coordinate"),
    ("axis-off-heisenberg", "bad field spec: axis_distance form requires the Heisenberg preset"),
    ("index-out-of-range", "bad field spec: sin_coordinate index 4 out of range"),
    ("zero-layer", "bad layer dimensions (2, 0)"),
    ("bracket-index", "bracket index (0,4) out of range"),
    ("bracket-target", "bracket target e_8 out of range"),
    ("bracket-without-coeffs", "malformed bracket entry {'i': 1, 'j': 2}"),
    ("repeated-bracket", "duplicate bracket entry for (1,2)"),
    ("dependent-basis", "basis fields are linearly dependent"),
    ("field-not-an-object", "bad field spec: expected an object, not []"),
]


# each bad-input branch that a config or flag can reach exits 2 with its message
@pytest.mark.parametrize("case, message", BAD_INPUTS, ids=[case for case, _ in BAD_INPUTS])
def test_bad_input_branch_is_usage_error(tmp_path, capsys, case, message):
    out = tmp_path / "out"
    assert main([*bad_input_argv(tmp_path, case), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not out.exists()


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
    ({"form": "distance_to_point", "point": [0, "1", 0]}, "point"),
    ({"form": "sin_coordinate", "index": 1.7}, "index"),
    ({"form": "monomial", "exponents": [1.9, 0, 0]}, "exponents"),
    ({"form": "constant", "value": "1"}, "value"),
    ({"form": "constant", "value": True}, "value"),
    ({"form": "monomial", "exponents": [100000, 0, 0]}, "exponents"),
    ({"form": "monomial", "exponents": [2, -1, 0]}, "exponents"),
], ids=["monomial-scale", "constant-value", "sin-scale", "point-entry", "short-point",
        "string-point-entry", "fractional-index", "fractional-exponent", "string-value",
        "boolean-value", "huge-exponent", "negative-exponent"])
def test_non_finite_field_spec_is_usage_error(tmp_path, capsys, coefficient, key):
    # a number that is not finite, a JSON number or integral where an integer
    # is due, a short point, or a monomial exponent that is negative or too
    # large to compile, is refused when the field is built, naming its form
    # and key, not met as a failure inside the solve or read otherwise
    field = {"coefficients": [coefficient, {"form": "constant", "value": 0.0}]}
    cpath = integrate_config(tmp_path, field=field)
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad field spec: {coefficient['form']} {key}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("group, named", [
    ({"layers": 5}, "a 'layers' list"),
    ({"layers": [2, 1], "brackets": 5}, "an optional 'brackets' list"),
    ({"layers": [2.7, 1]}, "group spec layers: expected an integer"),
    ({"layers": [2, True]}, "group spec layers: expected a finite number"),
    ({"layers": [2, 1], "brackets": [{"i": 1.9, "j": 2, "coeffs": [{"k": 3, "c": 2}]}]},
     "group spec bracket i: expected an integer"),
    ({"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": "2"}]}]},
     "group spec bracket c: expected a finite number"),
    ({"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": 1},
                                                               {"k": 3, "c": 2}]}]},
     "duplicate coefficient k = 3 in bracket (1,2)"),
])
def test_bad_group_spec_is_usage_error(tmp_path, capsys, group, named):
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps(group))
    assert main(["check-group", "--group", str(gpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_field_spec_indices_are_integers(tmp_path, capsys):
    field = {"coefficients": [{"form": "constant", "value": 1.0}], "indices": [1.5]}
    cpath = integrate_config(tmp_path, field=field)
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad field spec: indices: expected an integer, not 1.5" in err
    assert "Traceback" not in err


def test_integral_float_spec_numbers_read_as_integers(tmp_path):
    # 2.0 is the integer 2 in a group spec and in a field spec alike: the
    # report is the one the integer specs write
    def spec(n):
        group = {"layers": [n(2), n(1)],
                 "brackets": [{"i": n(1), "j": n(2), "coeffs": [{"k": n(3), "c": 2}]}]}
        field = {"coefficients": [{"form": "sin_coordinate", "index": n(3)},
                                  {"form": "monomial", "exponents": [n(1), n(0), n(2)]}],
                 "indices": [n(1), n(2)]}
        return integrate_config(tmp_path, group=group, field=field)

    reports = []
    for n in (int, float):
        out = tmp_path / n.__name__
        assert main(["integrate", "--config", str(spec(n)), "--out", str(out)]) == 0
        reports.append(masked(read_report(out)))
    assert reports[0] == reports[1]


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


def counterexample_args(out, extra=(), variant="time"):
    return ["counterexample", "--variant", variant, "--rungs", "6", "--tau", "0.2",
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


def uv_csv_oracle(times, uv):
    """The per-value f-string loop the CSV writers must reproduce byte for byte."""
    lines = ["t,u,v\n"]
    for t, (u, v) in zip(times, uv):
        lines.append(f"{t:.17g},{u:.17g},{v:.17g}\n")
    return "".join(lines)


def trajectory_csv_oracle(tr):
    q = tr.states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(q)) + "\n"]
    for t, row in zip(tr.times, tr.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
    return "".join(lines)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# values whose formatting differs from a plain decimal: signed zeros,
# subnormals, infinities, NaN and the last bits of a double
AWKWARD = np.array([0.0, -0.0, 1.0 / 3.0, -2.5e-308, 5e-324, 1e22, -123456789.125,
                    np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan, 0.1])


def test_rung_csv_of_a_ladder_slice_matches_the_per_value_loop(tmp_path):
    # a rung is a non-contiguous (grid, 2) view into the ladder's (grid, rungs, 2)
    # states; it is written as its values, whatever its strides
    times = np.arange(12.0) / 7.0
    states = np.stack([AWKWARD[::-1], AWKWARD, -AWKWARD, AWKWARD * 3.0, AWKWARD, AWKWARD / 7.0],
                      axis=1).reshape(12, 3, 2)
    for i in range(3):
        rung = states[:, i]
        assert not rung.flags.c_contiguous
        _write_uv_csv(times, rung, tmp_path / "uv.csv")
        assert (tmp_path / "uv.csv").read_bytes() == uv_csv_oracle(times, rung).encode()
    shared = [f"{t:.17g}" for t in times]
    _write_uv_csv(times, states[:, 1], tmp_path / "shared.csv", t_col=shared)
    assert (tmp_path / "shared.csv").read_bytes() == uv_csv_oracle(times, states[:, 1]).encode()


# six rungs leave the autonomous gaps short of GAP_TOL, so that exhibit exits
# 1, but it writes every artifact all the same
@pytest.mark.parametrize("variant, code", [("time", 0), ("autonomous", 1)])
def test_csv_writers_match_the_per_value_loop(tmp_path, variant, code):
    times = np.arange(12.0) / 7.0
    uv = np.column_stack([AWKWARD, AWKWARD[::-1]])
    _write_uv_csv(times, uv, tmp_path / "uv.csv")
    assert (tmp_path / "uv.csv").read_bytes() == uv_csv_oracle(times, uv).encode()
    # a column equal to the times is written from their strings, but not one
    # that equals them only up to the sign of a zero
    signed = times.copy()
    signed[0] = -0.0
    tr = Trajectory(times, np.column_stack([AWKWARD, times, signed, AWKWARD**2, -AWKWARD]))
    write_trajectory_csv(tr, tmp_path / "tr.csv")
    assert (tmp_path / "tr.csv").read_bytes() == trajectory_csv_oracle(tr).encode()
    write_trajectory_csv(tr, tmp_path / "shared.csv", t_col=[f"{t:.17g}" for t in tr.times])
    assert (tmp_path / "shared.csv").read_bytes() == trajectory_csv_oracle(tr).encode()

    # the exhibit's artifacts, recomputed by the library
    out = tmp_path / "out"
    assert main(counterexample_args(out, variant=variant)) == code
    assert_no_child_left()
    spec = cx.LadderSpec(count=6, tau=0.2, grid_points=256)
    sol, ladder = cx.run_epsilon_ladder(spec, variant)
    _, gamma = cx.build_nonuniqueness_report(sol.times, sol.states[:, -1], ladder)
    for i, eps in enumerate(spec.epsilons):
        rung = uv_csv_oracle(sol.times, sol.states[:, i])
        assert (out / f"rung_eps_{eps:.9g}.csv").read_text() == rung
    assert (out / "limit_uv.csv").read_text() == rung
    assert (out / "gamma.csv").read_text() == trajectory_csv_oracle(gamma)
    assert len(list(out.iterdir())) == 6 + 3


def refusing(write, name):
    """``write``, except that it raises OSError on a file called ``name``."""
    def wrapper(*args, **kwargs):
        if args[-1].name == name:  # the path is the last positional argument
            raise OSError(f"cannot write {name}")
        write(*args, **kwargs)
    return wrapper


# the six rungs, limit_uv.csv and gamma.csv are eight writers: this process
# writes the second rung after the fork, the forked child writes gamma.csv
@pytest.mark.parametrize("writer, name", [("_write_uv_csv", "rung_eps_0.05.csv"),
                                          ("write_trajectory_csv", "gamma.csv")])
def test_failed_csv_write_raises_as_the_sequential_loop(tmp_path, monkeypatch, writer, name):
    monkeypatch.setattr(cli, writer, refusing(getattr(cli, writer), name))
    with pytest.raises(OSError) as forked:
        main(counterexample_args(tmp_path / "forked"))
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    with pytest.raises(OSError) as sequential:
        main(counterexample_args(tmp_path / "sequential"))
    assert type(forked.value) is type(sequential.value)
    assert str(forked.value) == str(sequential.value) == f"cannot write {name}"


def test_a_failed_child_leaves_its_half_to_this_process(tmp_path, monkeypatch):
    parent, marker = os.getpid(), tmp_path / "child-failed"

    def fails_in_a_child(write):
        def wrapper(obj, path, **kwargs):
            if os.getpid() != parent:
                marker.touch()
                raise OSError("child")
            write(obj, path, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "write_trajectory_csv", fails_in_a_child(cli.write_trajectory_csv))
    assert main(counterexample_args(tmp_path / "forked")) == 0
    assert_no_child_left()
    assert marker.exists()
    monkeypatch.delattr(os, "fork")
    assert main(counterexample_args(tmp_path / "sequential")) == 0
    for path in sorted((tmp_path / "sequential").glob("*.csv")):
        assert (tmp_path / "forked" / path.name).read_bytes() == path.read_bytes()


def test_json_flag_prints_instead_of_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["check-group", "--samples", "100", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["passed"]
    assert not (tmp_path / "horoflow-out").exists()


def test_no_fork_beside_another_thread(tmp_path, monkeypatch):
    # a lock that thread holds would stay held in a forked child
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a running thread"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(counterexample_args(tmp_path / "out")) == 0
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(list((tmp_path / "out").glob("*.csv"))) == 6 + 2


def test_counterexample_json_flag_writes_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(counterexample_args(tmp_path / "out", ["--json"])) == 0
    assert json.loads(capsys.readouterr().out)["nonuniqueness_certified"]
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


COMMANDS = ["check-group", "check-gauge", "integrate", "equilibrium", "involutive",
            "counterexample"]
SIX = "{" + ",".join(COMMANDS) + "}"


@pytest.mark.parametrize("argv", [
    ["-h"], *([command, "-h"] for command in COMMANDS), [], ["nope"],
    ["check-group", "extra"], ["check-group", "--bogus"], ["counterexample", "--variant", "x"],
    ["integrate"]], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_are_the_six_command_parsers(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (got.out, got.err, code) == (want.out, want.err, full.value.code)


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["check-group", "extra"], "unrecognized arguments: extra"),
    (["check-group", "--bogus"], "unrecognized arguments: --bogus")])
def test_top_level_usage_errors_name_all_six_commands(capsys, monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "200")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: horoflow [-h] {SIX} ...\nhoroflow: error: {error}")


def test_a_command_word_builds_that_command_alone(capsys, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build(command))
    assert main(["check-group", "--samples", "10", "--json"]) == 0
    assert main(["-h"]) == 0
    assert main(["--json", "check-group"]) == 2
    assert built == ["check-group", None, None]
    only = next(a for a in build("integrate")._actions
                if isinstance(a, cli.argparse._SubParsersAction))
    assert list(only.choices) == ["integrate"]


@pytest.mark.parametrize("value", ["1_4", "+8", " 8", "-1", "1.5", "x"])
@pytest.mark.parametrize("flag", ["--rungs", "--grid"])
def test_count_flags_take_decimal_integers_only(capsys, flag, value):
    assert main(["counterexample", flag, value, "--json"]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a non-negative integer, not {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--rungs", "3", "need at least 4 rungs"), ("--rungs", "0", "need at least 4 rungs"),
    ("--grid", "7", "grid_points must be at least 8")])
def test_count_flags_keep_the_ladder_range_checks(capsys, flag, value, message):
    assert main(["counterexample", flag, value, "--json"]) == 2
    assert capsys.readouterr().err == f"horoflow: config error: {message}\n"


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
