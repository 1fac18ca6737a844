#!/usr/bin/env python3
"""Equilibrium stability sweep: growth ratios across shrinking initial gauges.

The field is the gauge-distance coefficient on the first horizontal
direction, which degenerates linearly at the origin; the sweep shows the
growth ratio sup_t d(gamma(t), 0) / d(x0, 0) pinned near e^T across four
decades of initial distance, all below the certified Gronwall envelope.
Exits 1 if the monitor fails (after writing the CSV).
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from horoflow.domain import Box
from horoflow.fields import horizontal_field
from horoflow.gauges import koranyi_distance
from horoflow.stepping import IntegratorConfig
from horoflow.uniqueness import stability_monitor, verify_equilibrium_condition


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/stability_sweep.csv")
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--decades", type=int, default=4)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args()

    dst = koranyi_distance()
    b = horizontal_field(dst.algebra, (lambda t, x: dst(np.zeros(3), x), lambda t, x: 0.0))
    box = Box((-1, -1, -1), (1, 1, 1))
    cond = verify_equilibrium_condition(b, np.zeros(3), box, 800, args.seed)
    starts = [(10.0 ** (-2 - k), 0.0, 0.0) for k in range(args.decades)]
    rep = stability_monitor(
        b, np.zeros(3), cond, starts,
        IntegratorConfig(dense_output_grid=513), args.horizon,
    )

    print(f"estimated degeneracy constant: {cond['estimated_c']:.12g} "
          f"(certified={cond['certified']})")
    print(f"certified bound: {rep['certified_bound']:.6g}  "
          f"(kappa={rep['kappa']:.6g}, integral={rep['c_integral']:.6g})")
    for d0, r in zip(rep["initial_distances"], rep["ratios"]):
        print(f"  d(x0,0)={d0:.1e}   growth ratio={r:.12g}")
    print(f"monitor passed: {rep['passed']}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["initial_distance", "growth_ratio", "certified_bound"])
        for d0, r in zip(rep["initial_distances"], rep["ratios"]):
            w.writerow([f"{d0:.17g}", f"{r:.17g}", f"{rep['certified_bound']:.17g}"])
    return 0 if rep["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
