"""Loosen each certificate gate in turn and check that the tier-1 suite fails.

Every ``passed: true`` must rest on a check that can fail.  Each mutant
below is one gate loosened by orders of magnitude: (file under ``src/``,
exact text, replacement).  Most loosen the bound of one gate row (the
``gate(...)`` calls of ``horoflow.gates``).  The script copies ``src/``,
``tests/``, ``perfbench/``, ``pyproject.toml`` and ``README.md``, whose gate
table the tests read, to a temporary directory, runs the unmutated suite once (it must pass), then applies one mutant at a time and
runs ``pytest -x -q`` there.  A mutant is *killed* when a test fails and
*survives* when the suite passes.  The script prints each mutant's outcome
and time, then the survivors, and exits 1 if any mutant survives or a run
ends in anything but a pass or a test failure.

A mutant whose text does not occur exactly once in its file is refused
before anything runs, so a refactor that moves a gate cannot silently drop
its mutant.  A change that adds a gate adds its mutant here.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python scripts/mutate_gates.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 900

MUTANTS = [
    ("counterexample.py", "SEPARATION_FACTOR = 1e4", "SEPARATION_FACTOR = 1e1"),
    ("counterexample.py", 'gate("gamma2_at_tau", gamma2_at_tau, ">", 0.0)',
     'gate("gamma2_at_tau", gamma2_at_tau, ">", -1.0)'),
    ("counterexample.py", "MONITOR_TOL = 1e-9", "MONITOR_TOL = 1e-4"),
    ("counterexample.py", "GAP_TOL = 1e-6", "GAP_TOL = 1e-3"),
    # "the last three gaps decrease" becomes "any gaps"
    ("counterexample.py", 'k0, "<=", len(gaps) - 3)', 'k0, "<=", len(gaps))'),
    ("counterexample.py", 'float(np.max(drift)), "<=", 1e-12)',
     'float(np.max(drift)), "<=", 1e-8)'),
    ("counterexample.py", 'lower_margin, ">=", -MONITOR_TOL)', 'lower_margin, ">=", -1e-5)'),
    ("counterexample.py", 'min_u, ">=", -MONITOR_TOL)', 'min_u, ">=", -1e-3)'),
    ("counterexample.py", 'min_v, ">=", -MONITOR_TOL)', 'min_v, ">=", -1e-3)'),
    ("counterexample.py", '"mix_exponential_bound", mix_margin, ">=", -MONITOR_TOL)',
     '"mix_exponential_bound", mix_margin, ">=", -1e-3)'),
    ("counterexample.py", 'lin_margin, ">=", -MONITOR_TOL)', 'lin_margin, ">=", -1e-3)'),
    ("counterexample.py", 'lower_mix_margin, ">=", -MONITOR_TOL)',
     'lower_mix_margin, ">=", -1e-3)'),
    ("counterexample.py", 'gate("integral_residual", res, "<=", 1e-6)',
     'gate("integral_residual", res, "<=", 1e-3)'),
    ("counterexample.py", "crossing_threshold - MONITOR_TOL)", "crossing_threshold - 1.0)"),
    ("uniqueness.py", "GROWTH_FACTOR = 2.0", "GROWTH_FACTOR = 4.0"),
    ("uniqueness.py", "SCALES = 6", "SCALES = 3"),
    ("uniqueness.py", 'float(np.max(ratios)), "<=", bound)',
     'float(np.max(ratios)), "<=", 2.0 * bound)'),
    # the one bound of the equilibrium, integrate and involutive gates
    ("stepping.py", "return 100.0 * self.abs_tol", "return 1e4 * self.abs_tol"),
    ("stepping.py", "_DENSE_WEIGHT = 0.002", "_DENSE_WEIGHT = 0.0"),
    ("stepping.py", "_BUDGET_FLOOR = 0.01", "_BUDGET_FLOOR = 0.5"),
    ("cli.py", 'assoc, "<=", 1e-10)', 'assoc, "<=", 1e-6)'),
    ("cli.py", 'inv, "<=", 1e-12)', 'inv, "<=", 1e-6)'),
    ("cli.py", 'ident, "<=", 1e-12)', 'ident, "<=", 1e-6)'),
    ("cli.py", 'autom, "<=", 1e-10)', 'autom, "<=", 1e-6)'),
    ("cli.py", 'closed[0], "<=", 1e-12)', 'closed[0], "<=", 1e-6)'),
    ("gauges.py", 'homogeneity_max_err, "<=", 1e-12)', 'homogeneity_max_err, "<=", 1e-6)'),
    ("gauges.py", 'symmetry_max_err, "<=", 1e-12)', 'symmetry_max_err, "<=", 1e-6)'),
    ("gauges.py", 'float(np.max(excess)), "<=", 1e-12)', 'float(np.max(excess)), "<=", 1e-3)'),
    # the exact horizontality test of coefficient recovery becomes a tolerance
    ("fields.py", "np.any(higher != 0.0)", "np.any(higher > 1e-8)"),
]


def run_suite(work: Path) -> tuple:
    """(pytest's exit code, or None on timeout; seconds) of tier-1 in ``work``.

    No bytecode is written: a cached module compiled from a mutant of the
    same size and within the same second as its restore would outlive it."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    package = ROOT / "src" / "horoflow"
    for name, old, _ in MUTANTS:
        count = (package / name).read_text().count(old)
        if count != 1:
            print(f"refused: {name}: {old!r} occurs {count} times, not once")
            return 1
    with tempfile.TemporaryDirectory(prefix="mutate-gates-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        code, seconds = run_suite(work)
        print(f"unmutated  {seconds:6.1f} s  exit {code}", flush=True)
        if code != 0:
            print("the unmutated suite must pass before a mutant can be judged")
            return 1
        survivors, broken = [], []
        for name, old, new in MUTANTS:
            path = work / "src" / "horoflow" / name
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                code, seconds = run_suite(work)
            finally:
                path.write_text(original)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            print(f"{outcome:9}  {seconds:6.1f} s  {name}: {old} -> {new}", flush=True)
            if code == 0:
                survivors.append((name, old, new))
            elif code != 1:
                broken.append((name, old, new))
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survived, {len(broken)} ended in an error")
    for name, old, new in survivors:
        print(f"survivor: {name}: {old} -> {new}")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
