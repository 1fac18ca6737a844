"""horoflow benchmark: time to a certified report on three CLI workloads.

Run from the root of a checkout (numpy is the only requirement):

    python3 perfbench/run.py --workload exhibit-time --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py``):

- ``exhibit-time``: ``counterexample --variant time`` at the default ladder;
  stepper-bound (``solve_to_grid``, ``cumulative_simpson``), no minimiser.
- ``exhibit-autonomous``: the same with ``--variant autonomous``;
  minimiser-bound (``minimize_convex_quartic``), tolerance-limited steps.
- ``checks``: check-group, check-gauge (koranyi, smooth), integrate free and
  leaving a box, equilibrium and involutive; samples, start points and the
  involutive start are drawn from ``--seed``, the integrate problem is fixed
  (``workloads.py`` says why); pointwise group products, distances and field
  evaluations.

The exhibits are one fixed problem and ignore the seed.

One process, one client, one thread, closed loop: a pass calls
``horoflow.cli.main`` in-process once per command, and the next pass starts
when the previous pass's reports are on disk.  A pass starts while half the
fastest pass so far still fits into ``--seconds`` (at least one pass).  Every
report is checked after its pass, outside the timed region (``workloads.py``
says how).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import ``horoflow.cli`` and build the Heisenberg law and
frame; one before each pass, at least ``SETUP_PROBES``), ``job_s`` and
``peak_rss_mib``.  ``job_s`` is the mean wall time of one pass, rescaled to a
core of fixed speed (see ``SpeedProbe``): on a shared host the same pass
takes up to 2x longer while other tenants load the core, for milliseconds to
minutes at a time, so raw pass times differ by that much between runs.  The
raw mean and median pass are printed and recorded beside it.  (The set-up
probes run in child processes, on whichever core is free, so the probe's
samples say nothing about them, and ``setup_s`` stays a raw median.)  The fail
ratio is the result line's ``failed`` / ``attempted``; it is printed by name
in the summary above that line.  ``--trace 1`` runs a third of the time
untraced, then traces the rest (see ``tracing.py``) and reports the per-layer
metrics, including ``trace.overhead_s`` (traced minus untraced ``job_s``).
``--quick`` shrinks every workload for the self-check in ``test_run.py``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a record of the run (environment,
load before and after, every pass time) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("stepping.solve_to_grid.self_s", "s"),
    ("stepping.steps", "count"),
    ("stepping.rejected", "count"),
    ("stepping.rhs_evals", "count"),
    ("stepping.min_step", "1"),
    ("stepping.overhead_us_per_rhs", "us"),
    ("stepping.cumulative_simpson.calls", "count"),
    ("stepping.cumulative_simpson.self_s", "s"),
    ("scalarmin.minimize_convex_quartic.calls", "count"),
    ("scalarmin.minimize_convex_quartic.self_s", "s"),
    ("scalarmin.minimize_convex_quartic.us_per_call", "us"),
    ("scalarmin.quartic_value.calls", "count"),
    ("counterexample.uv_rhs.calls", "count"),
    ("counterexample.uv_rhs.self_s", "s"),
    ("counterexample.rung_monitor_report.self_s", "s"),
    ("counterexample.singular_integral_residual.self_s", "s"),
    ("counterexample.build_nonuniqueness_report.self_s", "s"),
    ("counterexample.worst_residual", "1"),
    ("counterexample.max_separation", "1"),
    ("counterexample.limit_gap", "1"),
    ("counterexample.min_rung_margin", "1"),
    ("flow.integrate.calls", "count"),
    ("flow.integrate.self_s", "s"),
    ("flow.residual.self_s", "s"),
    ("flow.residual_max", "1"),
    ("fields.evaluate_field.calls", "count"),
    ("fields.evaluate_field.self_s", "s"),
    ("fields.evaluate_field.us_per_call", "us"),
    ("fields.frame_build_s", "s"),
    ("groups.multiply.calls", "count"),
    ("groups.multiply.us_per_call", "us"),
    ("groups.multiply_batch.rows", "count"),
    ("groups.multiply_batch.ns_per_row", "ns"),
    ("groups.law_build_s", "s"),
    ("gauges.distance.calls", "count"),
    ("gauges.distance.self_s", "s"),
    ("gauges.gauge_report.self_s", "s"),
    ("gauges.equivalence_constants.self_s", "s"),
    ("uniqueness.verify_equilibrium_condition.self_s", "s"),
    ("uniqueness.stability_monitor.self_s", "s"),
    ("uniqueness.confinement_check.self_s", "s"),
    ("uniqueness.reduced_solve.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("cli.artifacts_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_PROBES = 9

# The speed probe: SIGALRM every PROBE_INTERVAL_S of wall time while a command
# runs; PROBE_NOMINAL_S is about the probe's time on an idle core of the
# 2-vCPU Xeon VM the benchmark was tuned on (Python 3.11, numpy 2.4).
PROBE_INTERVAL_S = 0.02
PROBE_NOMINAL_S = 85e-6

# Runs in a fresh interpreter; argv[1] is the checkout's src directory.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import horoflow.cli
t1 = time.perf_counter()
from horoflow.fields import left_invariant_frame
from horoflow.groups import heisenberg
alg = heisenberg()
alg.law
t2 = time.perf_counter()
left_invariant_frame(alg)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "law_s": t2 - t1, "frame_s": t3 - t2, "total_s": t3 - t0}))
"""


def pin_environment() -> None:
    """One thread everywhere; must run before numpy is imported."""
    os.environ.pop("HOROFLOW_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


# --------------------------------------------------------------------------- environment


def machine_state() -> dict:
    """Load average and CPU tick counters (read only), to flag contended runs."""
    try:
        load = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return {"loadavg": None, "steal_ticks": None, "total_ticks": None}
    return {"loadavg": load, "steal_ticks": cpu[7] if len(cpu) > 7 else 0,
            "total_ticks": sum(cpu)}


def environment(root: Path, numpy_version: str) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((root / "src" / "horoflow").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in
                    ("HOROFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loop": "closed, 1 client, 1 thread, in-process horoflow.cli.main",
    }


def contended(before: dict, after: dict, nproc: int) -> bool:
    if before["loadavg"] is None or after["loadavg"] is None:
        return False
    ticks = after["total_ticks"] - before["total_ticks"]
    steal = after["steal_ticks"] - before["steal_ticks"]
    return before["loadavg"][0] >= nproc or (ticks > 0 and steal / ticks > 0.02)


# --------------------------------------------------------------------------- measuring


def setup_probe(src: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def setup_medians(probes: list, src: Path) -> dict:
    """Median of each set-up phase, after topping up to ``SETUP_PROBES`` probes."""
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(src))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


class Tally:
    """Outcome of every operation: attempted, failed, and any incorrect output.

    An operation is one distinct command of the workload.  Every pass repeats
    it and must reproduce its first report exactly (else the run is
    incorrect), so it has one outcome per run, and ``attempted`` / ``failed``
    do not depend on how many passes fit into ``--seconds``.
    """

    def __init__(self):
        self.outcomes: dict = {}  # op name -> failed (bool)
        self.problems: list = []
        self.reports: dict = {}  # op name -> first report without timestamp (JSON text)
        self.artifact_bytes: list = []  # per pass

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failures(self) -> list:
        return sorted(name for name, failed in self.outcomes.items() if failed)

    def check(self, op, rc) -> None:
        path = op.out / "report.json"
        if rc is None or not path.is_file():
            self._outcome(op, True)
            self.problems.append(f"{op.name}: no report (exit {rc})")
            return
        rep = json.loads(path.read_text())
        verdict = rep["passed"] if "passed" in rep else rep["nonuniqueness_certified"]
        if rc != (0 if verdict else 1):
            self.problems.append(f"{op.name}: exit {rc} with verdict {verdict}")
        expected, problems = op.check(rep, op.out)
        if expected != verdict:
            self.problems.append(f"{op.name}: verdict {verdict}, recomputed gate {expected}")
        self.problems.extend(f"{op.name}: {p}" for p in problems)
        rep.pop("timestamp", None)
        text = json.dumps(rep, sort_keys=True)
        if self.reports.setdefault(op.name, text) != text:
            self.problems.append(f"{op.name}: report differs from the first pass")
        self._outcome(op, rc != 0 or not verdict)

    def _outcome(self, op, failed: bool) -> None:
        if self.outcomes.setdefault(op.name, failed) != failed:
            self.problems.append(f"{op.name}: outcome differs from the first pass")

    def report(self, name: str) -> dict | None:
        text = self.reports.get(name)
        return None if text is None else json.loads(text)


class SpeedProbe:
    """Samples the speed of the core the CLI runs on, while it runs.

    At the start of each command and every ``PROBE_INTERVAL_S`` after, a
    signal handler runs a fixed loop of the work horoflow does (Python calls
    and arithmetic on small numpy arrays) in the main thread and records its
    time.  The samples show how much other tenants slowed the core at those
    instants; their mean over a run is the run's average slowdown, so
    ``mean pass time * PROBE_NOMINAL_S / mean sample`` is the pass time on a
    core where the loop takes ``PROBE_NOMINAL_S``.  The probe costs under 1 % of
    the wall time, and its own time is taken out of each command's time.
    """

    def __init__(self):
        import numpy as np

        self.vector = np.arange(3.0)
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(50):
            acc += float((self.vector * 1.0001 + 0.5)[1])
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_pass(ops, cli_main, tally: Tally, probe: SpeedProbe, tracer=None) -> list:
    """Run each command once; return the wall seconds each spent inside the CLI,
    less the probe's own time."""
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
    elapsed = []
    codes = []
    for op in ops:
        scope = tracer.span(f"cli.{op.argv[0]}") if tracer else contextlib.nullcontext()
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            with probe.running(), scope:
                rc = cli_main([*op.argv, "--out", str(op.out)])
        except Exception:  # a traceback is an output error, not a benchmark crash
            rc = None
            tally.problems.append(f"{op.name}: raised\n{traceback.format_exc()}")
        elapsed.append(time.perf_counter() - t0 - (probe.spent - spent))
        codes.append(rc)
    for op, rc in zip(ops, codes):
        tally.check(op, rc)
    tally.artifact_bytes.append(sum(f.stat().st_size for op in ops
                                    for f in op.out.rglob("*") if f.is_file()))
    return elapsed


def measure(ops, cli_main, seconds: float, tally: Tally, probes: list, src: Path,
            tracer=None) -> tuple:
    """Closed loop of passes for about ``seconds`` (at least one); the wall
    times of each pass's commands, and the speed probe's samples.

    A pass starts only while half the fastest pass so far still fits, so a run
    ends within half a pass of ``seconds``.  A set-up probe runs
    before each pass, so that set-up is sampled across the whole run rather
    than in one burst at its start.
    """
    times = []
    speed = SpeedProbe()
    start = time.perf_counter()
    while not times or time.perf_counter() - start + min(map(sum, times)) / 2 <= seconds:
        probes.append(setup_probe(src))
        if tracer is None:
            times.append(run_pass(ops, cli_main, tally, speed))
        else:
            with tracer.job_scope(len(times)):
                times.append(run_pass(ops, cli_main, tally, speed, tracer))
    return times, speed.samples


def job_seconds(times: list, samples: list) -> float:
    """Mean pass time on a core where the speed probe takes ``PROBE_NOMINAL_S``
    instead of the run's mean sample."""
    return statistics.fmean(map(sum, times)) * PROBE_NOMINAL_S / statistics.fmean(samples)


def exhibit_figures(rep: dict | None) -> dict:
    """Margins read from an exhibit report; zero on workloads without one."""
    if rep is None:
        return {"counterexample.worst_residual": 0.0, "counterexample.max_separation": 0.0,
                "counterexample.limit_gap": 0.0, "counterexample.min_rung_margin": 0.0}
    margins = [m for r in rep["ladder"]["rungs"]
               for m in (r["mix_bound_margin"], r["lower_mix_margin"],
                         r["linear_envelope_margin"], r["lower_bound_margin"])
               if m is not None]
    return {
        "counterexample.worst_residual": max(rep["residual_trivial"], rep["residual_nontrivial"]),
        "counterexample.max_separation": rep["max_separation"],
        "counterexample.limit_gap": rep["ladder"]["sup_differences"][-1],
        "counterexample.min_rung_margin": min(margins),
    }


# --------------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("exhibit-time", "exhibit-autonomous", "checks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes, for the benchmark's self-check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "horoflow" / "cli.py").is_file():
        print("perfbench: src/horoflow not found; run from the root of a horoflow checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(src))
    import numpy as np
    import horoflow
    import horoflow.cli
    import tracing
    import workloads
    if Path(horoflow.__file__).resolve().parent != (src / "horoflow").resolve():
        print(f"perfbench: imported horoflow from {horoflow.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    env = environment(root, np.__version__)
    before = machine_state()
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    try:
        ops = workloads.build(args.workload, args.seed, work, args.quick)
        probes = []
        cli_main = horoflow.cli.main
        if args.trace == 0:
            times, samples = measure(ops, cli_main, args.seconds, tally, probes, src)
            setup = setup_medians(probes, src)
            metrics = {
                "setup_s": setup["total_s"],
                "job_s": job_seconds(times, samples),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            passes = [sum(t) for t in times]
            record = {"command_s": times, "speed_samples": len(samples),
                      "speed_mean_s": statistics.fmean(samples)}
        else:
            plain, plain_samples = measure(ops, cli_main, args.seconds / 3.0, tally, probes,
                                           src)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, samples = measure(ops, cli_main, args.seconds * 2.0 / 3.0, tally,
                                          probes, src, tracer)
            setup = setup_medians(probes, src)
            table = tracer.table()
            exhibit = tally.report(ops[0].name) if args.workload.startswith("exhibit") else None
            per_job = []
            for job in range(len(traced)):
                m = tracing.job_layer_metrics(tracer, job, table)
                m["cli.artifact_bytes"] = tally.artifact_bytes[len(plain) + job]
                per_job.append(m)
            metrics = tracing.median_over_jobs(per_job)
            metrics.update(exhibit_figures(exhibit))
            metrics["fields.frame_build_s"] = setup["frame_s"]
            metrics["groups.law_build_s"] = setup["law_s"]
            metrics["trace.overhead_s"] = (job_seconds(traced, samples)
                                           - job_seconds(plain, plain_samples))
            units = dict(PER_LAYER)
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"{args.workload}-seed{args.seed}-spans.npz")
            passes = [sum(t) for t in traced]
            record = {"command_s_untraced": plain, "command_s_traced": traced,
                      "speed_samples": len(samples), "speed_mean_s": statistics.fmean(samples)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = machine_state()

    missing = set(units) ^ set(metrics)
    if missing:
        tally.problems.append(f"metric set mismatch: {sorted(missing)}")
    correct = not tally.problems
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, quick=args.quick, env=env, machine_before=before,
                  machine_after=after, contended=contended(before, after, env["nproc"] or 1),
                  setup_probes=probes, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, problems=tally.problems, metrics=metrics)
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    if args.workload != "checks":
        print("seed: ignored, the exhibit is one fixed problem")
    print(f"machine: {json.dumps({'before': before, 'after': after, 'contended': record['contended']})}")
    for p in tally.problems:
        print(f"problem: {p}")
    print(f"fail_ratio = {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed}/{tally.attempted} commands; failed: {tally.failures})")
    print(f"job_s samples = {len(passes)} passes; raw pass: mean {statistics.fmean(passes)} s, "
          f"median {statistics.median(passes)} s; speed probe: {len(samples)} samples, "
          f"mean {statistics.fmean(samples)} s")
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
