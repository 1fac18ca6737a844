import json

import pytest

from horoflow.cli import main

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
    # x2' = x2^2 from x2 = 1 blows up at t = 1, before the horizon
    ({"group": "heisenberg",
      "field": {"coefficients": [
          {"form": "constant", "value": 0.0},
          {"form": "monomial", "exponents": [0, 2, 0]}]},
      "x0": [0, 1, 0], "horizon": 2.0,
      "integrator": {"min_step": 1e-6, "dense_output_grid": 65}}, "step_underflow"),
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


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    cpath = tmp_path / "broken.json"
    cpath.write_text('{"group": "heisenberg",\n  "x0": [0, 0, 0],,}\n')
    assert main(["integrate", "--config", str(cpath), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


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


def test_involutive_command_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["involutive", "--config", str(involutive_config(tmp_path)),
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["confinement_deviation"] <= 1e-8
    assert rep["reduced_vs_full_max_err"] <= 1e-8


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
