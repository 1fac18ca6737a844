"""Self-check of the benchmark: every workload once at reduced size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_run.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], done.stdout
    assert res["attempted"] >= 1
    return res


def check_names(res: dict, declared: list) -> None:
    assert set(res["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in res["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    res = result(workload, 0)
    check_names(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    check_names(first, SPEC["per_layer"])
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}

    # each count is read at the name its caller resolves, not the defining module
    if workload == "exhibit-autonomous":
        assert counts["scalarmin.minimize_convex_quartic.calls"] > 0
        assert counts["scalarmin.quartic_value.calls"] > counts[
            "scalarmin.minimize_convex_quartic.calls"]
    if workload.startswith("exhibit"):
        # every stepper RHS evaluation plus one stationarity probe per rung
        assert counts["counterexample.uv_rhs.calls"] == counts["stepping.rhs_evals"] + 6
    if workload == "checks":
        for name in ("groups.multiply.calls", "gauges.distance.calls",
                     "fields.evaluate_field.calls", "flow.integrate.calls"):
            assert counts[name] > 0, name


def test_job_seconds_rescales_the_mean_pass_to_the_nominal_core():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import PROBE_NOMINAL_S, job_seconds

    # passes of 2 s and 4 s on a core twice as slow as the nominal one
    slow = [2.0 * PROBE_NOMINAL_S] * 3
    assert job_seconds([[0.5, 1.5], [1.0, 3.0]], slow) == pytest.approx(1.5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
