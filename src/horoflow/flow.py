"""Cauchy problems for frame-coefficient fields and their numerical flows.

A solution is checked against the integral form of the equation: the
residual compares the trajectory against its own right-hand side integrated
by composite Simpson on the output grid, which is independent of the
stepper and therefore a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .domain import Box
from .fields import HorizontalField, evaluate_field
from .stepping import IntegratorConfig, Trajectory, integral_defect, solve_to_grid


@dataclass(frozen=True)
class CauchyProblem:
    field: HorizontalField
    x0: tuple
    horizon: float
    domain: Box | None = None

    def __post_init__(self):
        x0 = tuple(float(v) for v in self.x0)
        object.__setattr__(self, "x0", x0)
        if len(x0) != self.field.algebra.dim:
            raise ValueError("initial point dimension does not match the algebra")
        if not self.horizon > 0:  # a NaN horizon is refused too
            raise ValueError("horizon must be positive")
        if self.domain is not None and not self.domain.contains(np.asarray(x0)):
            raise ValueError("initial point lies outside the domain")


def integrate(p: CauchyProblem, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Solve the componentwise system x_i' = sum_j a_j(t, x) p_j^i(x) on [0, T]."""
    grid = np.linspace(0.0, p.horizon, cfg.dense_output_grid)
    b = p.field
    inside = p.domain.contains if p.domain is not None else None
    tr = solve_to_grid(partial(evaluate_field, b), grid, np.asarray(p.x0, dtype=float),
                       cfg, inside)
    if len(tr.times) >= 8:
        tr.residual = residual(tr, b)
    return tr


def residual(tr: Trajectory, field: HorizontalField) -> float:
    """Max-norm defect of the integral identity on the trajectory's grid."""
    if len(tr.times) < 8:
        raise ValueError("trajectory grid too coarse for a quadrature residual")
    return integral_defect(evaluate_field(field, tr.times, tr.states), tr.times, tr.states)


_NUMBER = "%.17g"  # every CSV number: 17 significant digits read back as the same double


def csv_column(values: np.ndarray) -> list:
    """``values`` as ``write_csv`` writes them, for a ``t_col`` to share."""
    return list(map(_NUMBER.__mod__, values.tolist()))


def write_csv(path, names, times: np.ndarray, columns, t_col=None) -> None:
    """Write the header ``t,<names>`` and one row per time: the time, then
    each of ``columns`` there.  ``t_col``, if given, is ``csv_column(times)``,
    so that writers sharing a grid format it once; a column equal to the
    times bit for bit is written from those strings too."""
    t_col = csv_column(times) if t_col is None else t_col
    t_bytes = times.tobytes()
    is_time = [col.tobytes() == t_bytes for col in columns]
    row = "%s" + "".join(",%s" if s else "," + _NUMBER for s in is_time) + "\n"
    rows = zip(t_col, *(t_col if s else col.tolist() for s, col in zip(is_time, columns)))
    text = "t," + ",".join(names) + "\n" + "".join(map(row.__mod__, rows))
    with open(path, "w") as fh:
        fh.write(text)


def write_trajectory_csv(tr: Trajectory, path, t_col=None) -> None:
    """Write the t,x1,...,xq rows of ``tr`` by ``write_csv``."""
    write_csv(path, [f"x{i + 1}" for i in range(tr.states.shape[1])], tr.times, tr.states.T, t_col)
