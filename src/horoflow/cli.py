"""Command-line entry point.

Every subcommand is a thin driver over one library operation: it loads JSON
configs, runs the corresponding checks with a fixed seed, writes a JSON
report (single ``timestamp`` field aside, reports are deterministic) plus
CSV trajectories, and exits 0 only if all certified checks pass.  Exit code
1 means a check failed; 2 means a usage or config error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import counterexample as cx
from .domain import Box
from .fields import field_from_spec
from .flow import (CauchyProblem, IntegratorConfig, integrate,
                   write_trajectory_csv)
from .gauges import default_distance, gauge_report, koranyi_norm, smooth_gauge
from .groups import (AlgebraValidationError, GradedAlgebra, algebra_from_json,
                     heisenberg, is_heisenberg)
from .stepping import NonFiniteRHSError, StepUnderflowError
from .uniqueness import (ConditionNotCertified, check_involutive,
                         confinement_check, module_field, reduced_solve,
                         stability_monitor, verify_equilibrium_condition)

PASS, FAIL, USAGE = 0, 1, 2


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _resolve_group(args_preset: str | None, group_path: str | None,
                   inline: dict | str | None = None) -> GradedAlgebra:
    if inline is not None:
        if isinstance(inline, str):
            if inline == "heisenberg":
                return heisenberg()
            raise ConfigError(f"unknown group preset {inline!r}")
        return algebra_from_json(inline)
    if group_path:
        return algebra_from_json(_load_json(group_path))
    if args_preset in (None, "heisenberg"):
        return heisenberg()
    raise ConfigError(f"unknown group preset {args_preset!r}")


def _integrator(cfg: dict | None) -> IntegratorConfig:
    cfg = cfg or {}
    allowed = {"method", "abs_tol", "rel_tol", "max_step", "min_step", "dense_output_grid"}
    bad = set(cfg) - allowed
    if bad:
        raise ConfigError(f"unknown integrator options {sorted(bad)}")
    return IntegratorConfig(**cfg)


def _emit(report: dict, args, csv_writers=()) -> None:
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        print(text)
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text + "\n")
    for name, writer in csv_writers:
        writer(out / name)


# --------------------------------------------------------------------------- check-group


def _run_check_group(args) -> int:
    alg = _resolve_group(args.preset, args.group)
    rng = np.random.default_rng(args.seed)
    n = args.samples
    X = rng.uniform(-10.0, 10.0, size=(n, alg.dim))
    Y = rng.uniform(-10.0, 10.0, size=(n, alg.dim))
    Z = rng.uniform(-10.0, 10.0, size=(n, alg.dim))

    assoc = float(np.max(np.abs(
        alg.multiply_batch(alg.multiply_batch(X, Y), Z)
        - alg.multiply_batch(X, alg.multiply_batch(Y, Z))
    )))
    inv = float(np.max(np.abs(alg.multiply_batch(X, -X))))
    ident = float(np.max(np.abs(alg.multiply_batch(X, np.zeros_like(X)) - X)))
    r = float(rng.uniform(0.5, 2.0))
    autom = float(np.max(np.abs(
        alg.dilate(r, alg.multiply_batch(X, Y))
        - alg.multiply_batch(alg.dilate(r, X), alg.dilate(r, Y))
    )))

    report = {
        "group": {"layers": list(alg.layer_dims), "dim": alg.dim, "step": alg.step},
        "samples": n,
        "seed": args.seed,
        "associativity_max_err": assoc,
        "inverse_max_err": inv,
        "identity_max_err": ident,
        "dilation_automorphism_max_err": autom,
    }
    if is_heisenberg(alg):
        closed = np.column_stack([
            X[:, 0] + Y[:, 0],
            X[:, 1] + Y[:, 1],
            X[:, 2] + Y[:, 2] + X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0],
        ])
        report["closed_form_law_max_err"] = float(
            np.max(np.abs(alg.multiply_batch(X, Y) - closed))
        )
    passed = (
        assoc <= 1e-10 and inv <= 1e-12 and ident <= 1e-12 and autom <= 1e-10
        and report.get("closed_form_law_max_err", 0.0) <= 1e-12
    )
    report["passed"] = bool(passed)
    _emit(report, args)
    return PASS if passed else FAIL


# --------------------------------------------------------------------------- check-gauge


def _run_check_gauge(args) -> int:
    alg = _resolve_group(args.preset, args.group)
    if args.gauge == "koranyi":
        if not is_heisenberg(alg):
            raise ConfigError("the koranyi gauge requires the Heisenberg preset")
        gauge = koranyi_norm
    else:
        gauge = smooth_gauge(alg)
    report = gauge_report(alg, gauge, args.samples, args.seed)
    report["gauge"] = args.gauge
    _emit(report, args)
    return PASS if report["passed"] else FAIL


# --------------------------------------------------------------------------- integrate


def _run_integrate(args) -> int:
    cfg = _load_json(args.config)
    alg = _resolve_group(None, None, cfg.get("group", "heisenberg"))
    try:
        field = field_from_spec(alg, cfg["field"])
        x0 = tuple(float(v) for v in cfg["x0"])
        horizon = float(cfg["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem spec: {exc}") from exc
    domain = None
    if cfg.get("domain"):
        domain = Box(tuple(cfg["domain"]["lo"]), tuple(cfg["domain"]["hi"]))
    icfg = _integrator(cfg.get("integrator"))
    try:
        problem = CauchyProblem(field, x0, horizon, domain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tr = integrate(problem, icfg)
    report = {
        "x0": list(x0),
        "horizon": horizon,
        "final_time": float(tr.times[-1]),
        "final_state": [float(v) for v in tr.final_state],
        "residual": tr.residual,
        "meta": {k: v for k, v in tr.meta.items()},
    }
    tol_cap = 100.0 * icfg.abs_tol
    report["passed"] = bool(tr.residual is not None and tr.residual <= tol_cap)
    _emit(report, args, [("trajectory.csv", lambda p: write_trajectory_csv(tr, p))])
    return PASS if report["passed"] else FAIL


# --------------------------------------------------------------------------- equilibrium


def _run_equilibrium(args) -> int:
    cfg = _load_json(args.config)
    alg = _resolve_group(None, None, cfg.get("group", "heisenberg"))
    field = field_from_spec(alg, cfg["field"])
    xbar = np.asarray(cfg.get("equilibrium_point", [0.0] * alg.dim), dtype=float)
    box = Box(tuple(cfg["box"]["lo"]), tuple(cfg["box"]["hi"]))
    samples = int(cfg.get("samples", 2000))
    seed = int(cfg.get("seed", 0))
    horizon = float(cfg.get("horizon", 1.0))
    icfg = _integrator(cfg.get("integrator"))
    dst = default_distance(alg)

    cond = verify_equilibrium_condition(field, xbar, box, samples, seed, dst)
    report = {"condition": cond.as_dict(), "horizon": horizon, "seed": seed}
    if not cond.certified:
        report["passed"] = False
        report["refusal"] = ("degeneracy condition not certified: coefficient sizes do "
                             "not vanish linearly toward the equilibrium point")
        _emit(report, args)
        return FAIL
    starts = [tuple(float(v) for v in p) for p in cfg["initial_points"]]
    monitor = stability_monitor(field, xbar, cond, starts, icfg, horizon, dst, seed=seed)
    report["stability"] = monitor.as_dict()
    report["passed"] = bool(monitor.passed)
    _emit(report, args)
    return PASS if monitor.passed else FAIL


# --------------------------------------------------------------------------- involutive


def _run_involutive(args) -> int:
    cfg = _load_json(args.config)
    alg = _resolve_group(None, None, cfg.get("group", "heisenberg"))
    basis = [tuple(float(v) for v in row) for row in cfg["basis"]]
    mod = check_involutive(alg, basis)
    field_spec = dict(cfg["field"])
    field = field_from_spec(alg, field_spec)
    if len(field.coefficients) != mod.rank:
        raise ConfigError("field must provide one coefficient per basis element")
    ambient = module_field(mod, field.coefficients)
    x0 = tuple(float(v) for v in cfg["x0"])
    horizon = float(cfg.get("horizon", 1.0))
    icfg = _integrator(cfg.get("integrator"))
    dev_tol = float(cfg.get("deviation_tol", 1e-8))
    match_tol = float(cfg.get("match_tol", 1e-8))

    full = integrate(CauchyProblem(ambient, x0, horizon), icfg)
    deviation = confinement_check(full, mod, x0)
    reduced = reduced_solve(mod, field.coefficients, x0, horizon, icfg)
    match = float(np.max(np.abs(full.states - reduced.states)))

    report = {
        "basis": [list(b) for b in mod.basis],
        "rank": mod.rank,
        "x0": list(x0),
        "horizon": horizon,
        "confinement_deviation": deviation,
        "reduced_vs_full_max_err": match,
        "deviation_tol": dev_tol,
        "match_tol": match_tol,
        "residual_full": full.residual,
    }
    passed = deviation <= dev_tol and match <= match_tol
    report["passed"] = bool(passed)
    _emit(report, args)
    return PASS if passed else FAIL


# --------------------------------------------------------------------------- counterexample


def _write_uv_csv(sol, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,u,v\n")
        for t, u, v in zip(sol.times, sol.u, sol.v):
            fh.write(f"{t:.17g},{u:.17g},{v:.17g}\n")


def _run_counterexample(args) -> int:
    spec = cx.LadderSpec(eps0=args.eps0, ratio=args.ratio, count=args.rungs,
                         tau=args.tau, grid_points=args.grid)
    ladder = cx.run_epsilon_ladder(spec, args.variant)
    report, gamma = cx.build_nonuniqueness_report(ladder)

    if not args.json:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for sol in ladder.solutions:
            _write_uv_csv(sol, out / f"rung_eps_{sol.epsilon:.9g}.csv")
        _write_uv_csv(ladder.limit, out / "limit_uv.csv")
        write_trajectory_csv(gamma, out / "gamma.csv")
    _emit(report, args)
    return PASS if report["nonuniqueness_certified"] else FAIL


# --------------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="horoflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="horoflow-out", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the report to stdout instead of writing files")

    p = sub.add_parser("check-group", help="group-law property suite")
    p.add_argument("--preset", default="heisenberg")
    p.add_argument("--group", help="path to a group-spec JSON")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("check-gauge", help="gauge property suite")
    p.add_argument("--preset", default="heisenberg")
    p.add_argument("--group", help="path to a group-spec JSON")
    p.add_argument("--gauge", choices=["koranyi", "smooth"], default="koranyi")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("integrate", help="solve a Cauchy problem from a JSON spec")
    p.add_argument("--config", required=True)
    common(p)

    p = sub.add_parser("equilibrium", help="equilibrium degeneracy check + stability monitor")
    p.add_argument("--config", required=True)
    common(p)

    p = sub.add_parser("involutive", help="commuting-module confinement and reduced solve")
    p.add_argument("--config", required=True)
    common(p)

    p = sub.add_parser("counterexample", help="non-uniqueness exhibit")
    p.add_argument("--variant", choices=["time", "autonomous"], default="time")
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--rungs", type=int, default=14)
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--grid", type=int, default=2048)
    common(p)
    return ap


_RUNNERS = {
    "check-group": _run_check_group,
    "check-gauge": _run_check_gauge,
    "integrate": _run_integrate,
    "equilibrium": _run_equilibrium,
    "involutive": _run_involutive,
    "counterexample": _run_counterexample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return _RUNNERS[args.command](args)
    except (ConfigError, AlgebraValidationError, ValueError, KeyError) as exc:
        print(f"horoflow: config error: {exc}", file=sys.stderr)
        return USAGE
    except (ConditionNotCertified, cx.MonitorViolation) as exc:
        print(f"horoflow: check failed: {exc}", file=sys.stderr)
        return FAIL
    except (NonFiniteRHSError, StepUnderflowError) as exc:
        kind = "non_finite_rhs" if isinstance(exc, NonFiniteRHSError) else "step_underflow"
        _emit({"passed": False,
               "failure": {"kind": kind, "t": float(exc.time), "message": str(exc)}}, args)
        print(f"horoflow: numerical failure: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
