"""Axis boxes used as ODE domains and sample sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("box bounds have mismatched lengths")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("degenerate box: every side must have positive length")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x: Sequence[float]) -> bool:
        """Whether the point x lies in the closed box; NaN does not.  A point
        whose length is not the box's dimension raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            what = f"length {len(x)}" if x.ndim == 1 else f"shape {x.shape}"
            raise ValueError(f"a box of dimension {self.dim} cannot hold a point of {what}")
        return all(a <= v <= b for a, v, b in zip(self.lo, x.tolist(), self.hi))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))
