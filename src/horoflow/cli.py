"""Command-line entry point.

Every subcommand is a thin driver over one library operation: it loads JSON
configs, runs the corresponding checks with a fixed seed, writes a JSON
report (single ``timestamp`` field aside, reports are deterministic) plus
CSV trajectories, and exits 0 only if all certified checks pass.  Exit code
1 means a check failed; 2 means a usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import shutil
import sys
from dataclasses import asdict, fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import counterexample as cx
from .domain import Box
from .fields import field_from_spec
from .flow import CauchyProblem, integrate, write_trajectory_csv
from .gauges import default_distance, gauge_report, koranyi_norm, smooth_gauge
from .groups import (AlgebraValidationError, GradedAlgebra, algebra_from_json,
                     heisenberg, is_heisenberg)
from .stepping import IntegratorConfig, NonFiniteRHSError, StepUnderflowError
from .uniqueness import (check_involutive, confinement_check, module_field,
                         reduced_solve, stability_monitor,
                         verify_equilibrium_condition)

PASS, FAIL, USAGE = 0, 1, 2


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"bad config {path}: expected a JSON object at the top level")
    return data


def _resolve_group(preset: dict | str | None, group_path: str | None = None) -> GradedAlgebra:
    """The algebra of an inline spec, else of the spec file, else of a preset name."""
    if isinstance(preset, dict):
        return algebra_from_json(preset)
    if group_path:
        return algebra_from_json(_load_json(group_path))
    if preset in (None, "heisenberg"):
        return heisenberg()
    raise ConfigError(f"unknown group preset {preset!r}")


def _integrator(cfg: dict | None) -> IntegratorConfig:
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError(f"bad integrator options: expected an object, not {cfg!r}")
    bad = set(cfg) - {f.name for f in fields(IntegratorConfig)}
    if bad:
        raise ConfigError(f"unknown integrator options {sorted(bad)}")
    try:
        return IntegratorConfig(**cfg)
    except ValueError as exc:
        raise ConfigError(f"bad integrator options: {exc}") from exc


def _number(cfg: dict, key: str, default) -> float:
    """The finite JSON number ``cfg[key]`` (or ``default``) as a float; else exit 2."""
    value = cfg.get(key, default)
    with contextlib.suppress(OverflowError, TypeError):  # a huge int, a non-number
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise ConfigError(f"bad {key}: expected a finite number, not {value!r}")


def _count(cfg: dict, key: str, default, least: int) -> int:
    """The integral JSON number ``cfg[key]`` (or ``default``) of at least
    ``least``; else exit 2.  Read whole, so a large seed keeps every digit."""
    _number(cfg, key, default)
    value = cfg.get(key, default)
    if value != int(value):
        raise ConfigError(f"bad {key}: expected an integer, not {value!r}")
    if value < least:
        raise ConfigError(f"bad {key}: expected at least {least}, not {value!r}")
    return int(value)


def _decimal(least: int, what: str):
    """An argparse type: a decimal integer of at least ``least``."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected a {what} integer, not {text!r}")
    return parse


def _point(value, dim: int, key: str) -> tuple:
    """``value`` as a point of ``dim`` finite JSON numbers; else exit 2."""
    if isinstance(value, list) and len(value) == dim:
        return tuple(_number({key: v}, key, None) for v in value)
    raise ConfigError(f"bad {key}: expected a list of {dim} numbers, not {value!r}")


def _points(value, dim: int, key: str) -> list:
    """``value`` as a non-empty list of points (see ``_point``); else exit 2."""
    if isinstance(value, list) and value:
        return [_point(p, dim, key) for p in value]
    raise ConfigError(f"bad {key}: expected a list of points, not {value!r}")


def _field(alg: GradedAlgebra, cfg: dict):
    """The field of ``cfg["field"]`` (see ``field_from_spec``); else exit 2."""
    try:
        return field_from_spec(alg, cfg["field"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # overflow: a huge int
        raise ConfigError(f"bad field spec: {exc}") from exc


def _box(value, dim: int, key: str) -> Box:
    """A ``{"lo": point, "hi": point}`` object as a Box; else exit 2."""
    value = value if isinstance(value, dict) else {}
    return Box(*(_point(value.get(end), dim, f"{key}.{end}") for end in ("lo", "hi")))


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
    alg = _resolve_group(cfg.get("group"))
    field = _field(alg, cfg)
    x0 = _point(cfg.get("x0"), alg.dim, "x0")
    horizon = _number(cfg, "horizon", None)
    domain = _box(cfg["domain"], alg.dim, "domain") if cfg.get("domain") else None
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
    report["passed"] = bool(tr.residual is not None and tr.residual <= 100.0 * icfg.abs_tol)
    _emit(report, args, [("trajectory.csv", lambda p: write_trajectory_csv(tr, p))])
    return PASS if report["passed"] else FAIL


# --------------------------------------------------------------------------- equilibrium


def _run_equilibrium(args) -> int:
    cfg = _load_json(args.config)
    alg = _resolve_group(cfg.get("group"))
    field = _field(alg, cfg)
    xbar = np.array(_point(cfg.get("equilibrium_point", [0.0] * alg.dim), alg.dim,
                           "equilibrium_point"))
    box = _box(cfg.get("box"), alg.dim, "box")
    starts = _points(cfg.get("initial_points"), alg.dim, "initial_points")
    samples = _count(cfg, "samples", 2000, 1)
    seed = _count(cfg, "seed", 0, 0)
    horizon = _number(cfg, "horizon", 1.0)
    icfg = _integrator(cfg.get("integrator"))
    dst = default_distance(alg)

    cond = verify_equilibrium_condition(field, xbar, box, samples, seed, dst)
    report = {"condition": asdict(cond), "horizon": horizon, "seed": seed}
    if not cond.certified:
        report.update(passed=False, refusal="degeneracy condition not certified: coefficient "
                      "sizes do not vanish linearly toward the equilibrium point")
        _emit(report, args)
        return FAIL
    monitor = stability_monitor(field, xbar, cond, starts, icfg, horizon, dst, seed=seed)
    report["stability"] = asdict(monitor)
    report["passed"] = bool(monitor.passed)
    _emit(report, args)
    return PASS if monitor.passed else FAIL


# --------------------------------------------------------------------------- involutive


def _run_involutive(args) -> int:
    cfg = _load_json(args.config)
    alg = _resolve_group(cfg.get("group"))
    basis = _points(cfg.get("basis"), alg.dim, "basis")
    x0 = _point(cfg.get("x0"), alg.dim, "x0")
    mod = check_involutive(alg, basis)
    field = _field(alg, cfg)
    if len(field.coefficients) != mod.rank:
        raise ConfigError("field must provide one coefficient per basis element")
    ambient = module_field(mod, field.coefficients)
    horizon = _number(cfg, "horizon", 1.0)
    icfg = _integrator(cfg.get("integrator"))
    dev_tol = _number(cfg, "deviation_tol", 1e-8)
    match_tol = _number(cfg, "match_tol", 1e-8)

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
        "passed": bool(deviation <= dev_tol and match <= match_tol),
    }
    _emit(report, args)
    return PASS if report["passed"] else FAIL


# --------------------------------------------------------------------------- counterexample


def _write_uv_csv(sol, path, t_col=None) -> None:
    """Write the t,u,v rows of ``sol``; ``t_col()``, if given, returns its
    times formatted, so the rungs of one ladder can share one formatting."""
    t_col = t_col() if t_col else list(map("%.17g".__mod__, sol.times.tolist()))
    rows = zip(t_col, sol.u.tolist(), sol.v.tolist())
    text = "t,u,v\n" + "".join(map("%s,%.17g,%.17g\n".__mod__, rows))
    with open(path, "w") as fh:
        fh.write(text)


def _run_counterexample(args) -> int:
    spec = cx.LadderSpec(eps0=args.eps0, ratio=args.ratio, count=args.rungs,
                         tau=args.tau, grid_points=args.grid)
    ladder = cx.run_epsilon_ladder(spec, args.variant)
    report, gamma = cx.build_nonuniqueness_report(ladder)

    # the rungs share one grid, and the limit is the last rung; the times
    # are formatted on the first CSV write, so --json formats none
    t_col = cache(lambda: list(map("%.17g".__mod__, ladder.limit.times.tolist())))
    writers = [(f"rung_eps_{sol.epsilon:.9g}.csv", partial(_write_uv_csv, sol, t_col=t_col))
               for sol in ladder.solutions]
    last = writers[-1][0]
    writers += [("limit_uv.csv", lambda path: shutil.copyfile(path.with_name(last), path)),
                ("gamma.csv", partial(write_trajectory_csv, gamma))]
    _emit(report, args, writers)
    return PASS if report["nonuniqueness_certified"] else FAIL


# --------------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="horoflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="horoflow-out", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the report to stdout instead of writing files")

    for name, text, samples in (("check-group", "group-law property suite", 1000),
                                ("check-gauge", "gauge property suite", 2000)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--preset", default="heisenberg")
        p.add_argument("--group", help="path to a group-spec JSON")
        p.add_argument("--samples", type=_decimal(1, "positive"), default=samples)
        p.add_argument("--seed", type=_decimal(0, "non-negative"), default=0)
        common(p)
        if name == "check-gauge":
            p.add_argument("--gauge", choices=["koranyi", "smooth"], default="koranyi")

    for name, text in (("integrate", "solve a Cauchy problem from a JSON spec"),
                       ("equilibrium", "equilibrium degeneracy check + stability monitor"),
                       ("involutive", "commuting-module confinement and reduced solve")):
        p = sub.add_parser(name, help=text)
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


# numerical failures: each exits 1 with a report naming its kind
_FAILURE_KINDS = {
    NonFiniteRHSError: "non_finite_rhs",
    StepUnderflowError: "step_underflow",
    cx.MonitorViolation: "monitor_violation",
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
    except tuple(_FAILURE_KINDS) as exc:
        # t is null where a monitor fails on a whole solve
        failure = {"kind": _FAILURE_KINDS[type(exc)], "message": str(exc),
                   "t": float(exc.time) if hasattr(exc, "time") else None}
        _emit({"passed": False, "failure": failure}, args)
        print(f"horoflow: numerical failure: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
