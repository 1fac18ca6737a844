"""Command-line entry point.

Every subcommand is a thin driver over one library operation: it loads JSON
configs, runs the corresponding checks with a fixed seed, writes a JSON
report (single ``timestamp`` field aside, reports are deterministic) plus
CSV trajectories, and exits 0 only if all certified checks pass.  Exit code
1 means a failed check or a ``NumericalFailure``; 2 a usage or ``InputError``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import sys
import threading
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import counterexample as cx
from .domain import Box
from .fields import field_from_spec
from .flow import CauchyProblem, csv_column, integrate, write_csv, write_trajectory_csv
from .gates import InputError, NumericalFailure, all_passed, gate
from .gauges import gauge_report, koranyi_norm, smooth_gauge
from .groups import (GradedAlgebra, algebra_from_json, heisenberg, is_heisenberg,
                     json_integer, json_number, json_object, json_point)
from .stepping import IntegratorConfig
from .uniqueness import (check_involutive, confinement_check, module_field,
                         reduced_solve, stability_monitor,
                         verify_equilibrium_condition)

PASS, FAIL, USAGE = 0, 1, 2


class NonFiniteValueError(NumericalFailure):
    """A report holds a non-finite value, which strict JSON cannot write."""
    kind = "non_finite_value"


def _load_json(path: str, keys: str | None = None) -> dict:
    """The JSON object in ``path``, with no key outside ``keys`` if given; else exit 2."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, bytes that are not UTF-8
        raise InputError(str(exc)) from exc
    if not isinstance(data, dict):
        raise InputError(f"bad config {path}: expected a JSON object at the top level")
    return data if keys is None else json_object(data, keys, "config")


def _resolve_group(spec: dict | str | None) -> GradedAlgebra:
    """The algebra of a group spec object, else of the preset name or None."""
    if isinstance(spec, dict):
        return algebra_from_json(spec)
    if spec in (None, "heisenberg"):
        return heisenberg()
    raise InputError(f"unknown group preset {spec!r}")


def _integrator(cfg: dict | None) -> IntegratorConfig:
    names = " ".join(f.name for f in fields(IntegratorConfig))
    cfg = json_object({} if cfg is None else cfg, names, "integrator options",
                      "unknown integrator options")
    try:
        return IntegratorConfig(**cfg)
    except InputError as exc:
        raise InputError(f"bad integrator options: {exc}") from exc


def _horizon(cfg: dict, default) -> float:
    """``cfg["horizon"]`` (or ``default``) read by ``json_number``, if positive; else exit 2."""
    value = cfg.get("horizon", default)
    if not json_number(value, "bad horizon") > 0:
        raise InputError(f"bad horizon: expected a positive number, not {value!r}")
    return float(value)


def _count(cfg: dict, key: str, default, least: int) -> int:
    """``cfg[key]`` (or ``default``) read by ``json_integer``, at least
    ``least``; else exit 2."""
    value = cfg.get(key, default)
    if json_integer(value, f"bad {key}") < least:
        raise InputError(f"bad {key}: expected at least {least}, not {value!r}")
    return int(value)


def _decimal(least: int, what: str):
    """An argparse type: a decimal integer of at least ``least``."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected a {what} integer, not {text!r}")
    return parse


def _points(value, dim: int, key: str) -> list:
    """``value`` as a non-empty list of points (see ``json_point``); else exit 2."""
    if isinstance(value, list) and value:
        return [json_point(p, dim, f"bad {key}") for p in value]
    raise InputError(f"bad {key}: expected a list of points, not {value!r}")


def _field(alg: GradedAlgebra, cfg: dict):
    """The field of ``cfg["field"]`` (see ``field_from_spec``); else exit 2."""
    try:
        return field_from_spec(alg, cfg["field"])
    except (KeyError, TypeError, InputError) as exc:  # a spec key missing or mistyped
        raise InputError(f"bad field spec: {str(exc).removeprefix('bad field spec: ')}") from exc


def _box(value, dim: int, key: str) -> Box:
    """A ``{"lo": point, "hi": point}`` object as a Box; else exit 2."""
    value = json_object(value, "lo hi", key)
    return Box(*(json_point(value.get(end), dim, f"bad {key}.{end}") for end in ("lo", "hi")))


def _gated(rows: list) -> dict:
    """Each row's value under its name, the rows as ``gates`` and their AND as ``passed``."""
    return {**{r["name"]: r["value"] for r in rows}, "gates": rows, "passed": all_passed(rows)}


def _emit(report: dict, args, csv_writers=(), verdict: str = "passed") -> int:
    """Write ``report`` and the CSVs, or print the report under --json; the
    exit code is PASS if ``report[verdict]`` holds, else FAIL."""
    code = PASS if report[verdict] else FAIL
    report = {**report, "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteValueError("the report holds a non-finite value: "
                                  + ", ".join(_non_finite(report))) from None
    if args.json:
        print(text)
        return code
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"bad --out {args.out}: {exc.strerror}") from exc
    (out / "report.json").write_text(text + "\n")
    _write_csvs(out, csv_writers)
    return code


def _non_finite(value, path: str = "") -> list:
    """``"<key path> = <value>"`` for each non-finite float in a report, outside
    ``gates``, whose rows are read from values the report names elsewhere."""
    if isinstance(value, dict):
        return [bad for k, v in sorted(value.items()) if k != "gates"
                for bad in _non_finite(v, f"{path}.{k}" if path else k)]
    if isinstance(value, (list, tuple)):
        return [bad for i, v in enumerate(value) for bad in _non_finite(v, f"{path}[{i}]")]
    return [f"{path} = {value}"] if isinstance(value, float) and not np.isfinite(value) else []


def _write_csvs(out: Path, writers) -> None:
    """Call each ``(name, writer)`` as ``writer(out / name)``.

    With two or more writers, ``os.fork`` and no other thread running (a lock
    another thread holds would stay held in the child), a forked child writes
    the second half of the list while this process writes the first.  The
    child makes no BLAS call and leaves by ``os._exit`` alone: no stdio
    flush, no atexit handler.  This process always reaps it, and if it failed
    writes its half again, so an error is raised here as the sequential loop
    raises it.
    """
    def write(share):
        for name, writer in share:
            writer(out / name)

    split = len(writers) // 2 if hasattr(os, "fork") and threading.active_count() == 1 else 0
    if split == 0:
        write(writers)
        return
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            write(writers[split:])
            status = 0
        finally:
            os._exit(status)
    try:
        write(writers[:split])
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        write(writers[split:])


# --------------------------------------------------------------------------- check-group


# rows per block of the group-law checks: a block's (rows, 3) float array on
# the Heisenberg group takes 96 KiB, below glibc's 128 KiB mmap threshold, and
# stays in cache from one product to the next
_BLOCK = 4096


def _law_errors(alg: GradedAlgebra, X, Y, Z, r: float, heis: bool) -> list:
    """Largest associativity, inverse, identity and dilation-automorphism
    errors over the rows of X, Y, Z, and on the Heisenberg preset the largest
    error against the closed-form law."""
    XY = alg.multiply_batch(X, Y)
    errs = [
        np.max(np.abs(alg.multiply_batch(XY, Z)
                      - alg.multiply_batch(X, alg.multiply_batch(Y, Z)))),
        np.max(np.abs(alg.multiply_batch(X, -X))),
        np.max(np.abs(alg.multiply_batch(X, np.zeros_like(X)) - X)),
        np.max(np.abs(alg.dilate(r, XY)
                      - alg.multiply_batch(alg.dilate(r, X), alg.dilate(r, Y)))),
    ]
    if heis:
        closed = np.column_stack([
            X[:, 0] + Y[:, 0],
            X[:, 1] + Y[:, 1],
            X[:, 2] + Y[:, 2] + X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0],
        ])
        errs.append(np.max(np.abs(XY - closed)))
    return errs


def _run_check_group(args) -> int:
    alg = _resolve_group(_load_json(args.group) if args.group else None)
    rng = np.random.default_rng(args.seed)
    n = args.samples
    X = rng.uniform(-10.0, 10.0, size=(n, alg.dim))
    Y = rng.uniform(-10.0, 10.0, size=(n, alg.dim))
    Z = rng.uniform(-10.0, 10.0, size=(n, alg.dim))
    r = float(rng.uniform(0.5, 2.0))
    heis = is_heisenberg(alg)

    # every error is a row-wise formula, so the maximum over the blocks'
    # maxima (NaN included) is the maximum over all rows
    blocks = [_law_errors(alg, X[i:i + _BLOCK], Y[i:i + _BLOCK], Z[i:i + _BLOCK], r, heis)
              for i in range(0, n, _BLOCK)]
    assoc, inv, ident, autom, *closed = np.max(blocks, axis=0).tolist()

    rows = [gate("associativity_max_err", assoc, "<=", 1e-10),
            gate("inverse_max_err", inv, "<=", 1e-12),
            gate("identity_max_err", ident, "<=", 1e-12),
            gate("dilation_automorphism_max_err", autom, "<=", 1e-10)]
    if heis:
        rows.append(gate("closed_form_law_max_err", closed[0], "<=", 1e-12))
    return _emit({"group": {"layers": list(alg.layer_dims), "dim": alg.dim, "step": alg.step},
                  "samples": n, "seed": args.seed, **_gated(rows)}, args)


# --------------------------------------------------------------------------- check-gauge


def _run_check_gauge(args) -> int:
    alg = _resolve_group(_load_json(args.group) if args.group else None)
    if args.gauge == "koranyi":
        if not is_heisenberg(alg):
            raise InputError("the koranyi gauge requires the Heisenberg preset")
        gauge = koranyi_norm
    else:
        gauge = smooth_gauge(alg)
    report = gauge_report(alg, gauge, args.samples, args.seed)
    report["gauge"] = args.gauge
    return _emit(report, args)


# --------------------------------------------------------------------------- integrate


def _run_integrate(args) -> int:
    cfg = _load_json(args.config, "group field x0 horizon domain integrator")
    alg = _resolve_group(cfg.get("group"))
    field = _field(alg, cfg)
    x0 = json_point(cfg.get("x0"), alg.dim, "bad x0")
    horizon = _horizon(cfg, None)
    domain = _box(cfg["domain"], alg.dim, "domain") if cfg.get("domain") is not None else None
    icfg = _integrator(cfg.get("integrator"))
    tr = integrate(CauchyProblem(field, x0, horizon, domain), icfg)
    report = {
        "x0": list(x0),
        "horizon": horizon,
        "final_time": float(tr.times[-1]),
        "final_state": [float(v) for v in tr.final_state],
        "meta": {"abs_tol": icfg.abs_tol, "rel_tol": icfg.rel_tol, "exited": tr.exited,
                 "exit_time": tr.exit_time, **tr.stats.as_dict()},
        **_gated([gate("residual", tr.residual, "<=", icfg.gate_tol)]),
    }
    return _emit(report, args, [("trajectory.csv", lambda p: write_trajectory_csv(tr, p))])


# --------------------------------------------------------------------------- equilibrium


def _run_equilibrium(args) -> int:
    cfg = _load_json(args.config, "group field equilibrium_point box initial_points "
                                  "samples seed horizon integrator")
    alg = _resolve_group(cfg.get("group"))
    field = _field(alg, cfg)
    xbar = np.array(json_point(cfg.get("equilibrium_point", [0.0] * alg.dim), alg.dim,
                               "bad equilibrium_point"))
    box = _box(cfg.get("box"), alg.dim, "box")
    starts = _points(cfg.get("initial_points"), alg.dim, "initial_points")
    samples = _count(cfg, "samples", 2000, 1)
    seed = _count(cfg, "seed", 0, 0)
    horizon = _horizon(cfg, 1.0)
    icfg = _integrator(cfg.get("integrator"))

    # a time-dependent coefficient must degenerate over the whole solve, not at t = 0 only
    cond = verify_equilibrium_condition(field, xbar, box, samples, seed,
                                        (0.0, horizon / 2, horizon))
    report = {"condition": cond, "horizon": horizon, "seed": seed}
    if not cond["certified"]:
        report.update(passed=False, refusal="degeneracy condition not certified: coefficient "
                      "sizes do not vanish linearly toward the equilibrium point")
        return _emit(report, args)
    monitor = stability_monitor(field, xbar, cond, starts, icfg, horizon)
    report.update(stability=monitor, passed=monitor["passed"])
    return _emit(report, args)


# --------------------------------------------------------------------------- involutive


def _run_involutive(args) -> int:
    cfg = _load_json(args.config, "group basis x0 field horizon integrator")
    alg = _resolve_group(cfg.get("group"))
    basis = _points(cfg.get("basis"), alg.dim, "basis")
    x0 = json_point(cfg.get("x0"), alg.dim, "bad x0")
    mod = check_involutive(alg, basis)
    field = _field(alg, cfg)
    if len(field.coefficients) != mod.rank:
        raise InputError("field must provide one coefficient per basis element")
    ambient = module_field(mod, field.coefficients)
    horizon = _horizon(cfg, 1.0)
    icfg = _integrator(cfg.get("integrator"))

    full = integrate(CauchyProblem(ambient, x0, horizon), icfg)
    reduced = reduced_solve(mod, field.coefficients, x0, horizon, icfg)
    rows = [gate("confinement_deviation", confinement_check(full, mod, x0), "<=", icfg.gate_tol),
            gate("reduced_vs_full_max_err", float(np.max(np.abs(full.states - reduced.states))),
                 "<=", icfg.gate_tol)]

    report = {
        "basis": [list(b) for b in mod.basis],
        "rank": mod.rank,
        "x0": list(x0),
        "horizon": horizon,
        "deviation_tol": icfg.gate_tol,
        "match_tol": icfg.gate_tol,
        "residual_full": full.residual,
        **_gated(rows),
    }
    return _emit(report, args)


# --------------------------------------------------------------------------- counterexample


def _write_uv_csv(times, uv, path, t_col=None) -> None:
    """Write the t,u,v rows of one rung's (grid, 2) states ``uv`` by ``write_csv``."""
    write_csv(path, ("u", "v"), times, uv.T, t_col)


def _run_counterexample(args) -> int:
    spec = cx.LadderSpec(count=args.rungs, tau=args.tau, grid_points=args.grid)
    sol, ladder = cx.run_epsilon_ladder(spec, args.variant)
    report, gamma = cx.build_nonuniqueness_report(sol.times, sol.states[:, -1], ladder)

    # the rungs and gamma share one grid, formatted once here (--json writes
    # no CSV), and the limit is the last rung.  _write_csvs gives its last
    # ceil(n/2) writers (at least 3, as a ladder has at least 4 rungs) to
    # one process, so the limit's copy follows the last rung's write there
    t_col = None if args.json else csv_column(sol.times)
    writers = [(f"rung_eps_{eps:.9g}.csv",
                partial(_write_uv_csv, sol.times, sol.states[:, i], t_col=t_col))
               for i, eps in enumerate(spec.epsilons)]
    last = writers[-1][0]
    writers += [("limit_uv.csv", lambda path: shutil.copyfile(path.with_name(last), path)),
                ("gamma.csv", partial(write_trajectory_csv, gamma, t_col=t_col))]
    return _emit(report, args, writers, "nonuniqueness_certified")


# --------------------------------------------------------------------------- parser


_OUTPUT = (("--out", {"default": "horoflow-out", "help": "output directory"}),
           ("--json", {"action": "store_true",
                       "help": "print the report to stdout instead of writing files"}))


def _sampled(samples: int) -> tuple:
    """check-group's and check-gauge's arguments, with ``samples`` the --samples default."""
    return (("--group", {"help": "path to a group-spec JSON"}),
            ("--samples", {"type": _decimal(1, "positive"), "default": samples}),
            ("--seed", {"type": _decimal(0, "non-negative"), "default": 0}), *_OUTPUT)


_CONFIG = (("--config", {"required": True}), *_OUTPUT)

# each command's help, runner and arguments (flag, keywords), in help order
_COMMANDS = {
    "check-group": ("group-law property suite", _run_check_group, _sampled(1000)),
    "check-gauge": ("gauge property suite", _run_check_gauge, (
        *_sampled(2000), ("--gauge", {"choices": ["koranyi", "smooth"], "default": "koranyi"}))),
    "integrate": ("solve a Cauchy problem from a JSON spec", _run_integrate, _CONFIG),
    "equilibrium": ("equilibrium degeneracy check + stability monitor", _run_equilibrium,
                    _CONFIG),
    "involutive": ("commuting-module confinement and reduced solve", _run_involutive, _CONFIG),
    "counterexample": ("non-uniqueness exhibit", _run_counterexample, (
        ("--variant", {"choices": ["time", "autonomous"], "default": "time"}),
        ("--rungs", {"type": _decimal(0, "non-negative"), "default": 14}),
        ("--tau", {"type": float, "default": 0.3}),
        ("--grid", {"type": _decimal(0, "non-negative"), "default": 2048}), *_OUTPUT)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all six commands if it is None."""
    ap = argparse.ArgumentParser(prog="horoflow", description=__doc__)
    # a one-command parser still names all six commands in its usage line;
    # the six-command parser keeps the default metavar, which reads the same
    # there, so that a missing or unknown command's error names "command"
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        text, run, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command word first builds that command's parser alone; anything else
    # (help, no command, an unknown command, an option first) builds all six
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:  # any exception but these two is a bug, and is not caught
        try:
            # a NumericalFailure reports a non-finite value; numpy's warnings would repeat it
            with np.errstate(all="ignore"):
                return args.run(args)
        except NumericalFailure as exc:
            failure = {"kind": exc.kind, "message": str(exc), "t": exc.time}
            _emit({"passed": False, "failure": failure}, args)
            print(f"horoflow: numerical failure: {exc}", file=sys.stderr)
            return FAIL
    except InputError as exc:  # also a bad --out met by the failure report's write
        print(f"horoflow: config error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
