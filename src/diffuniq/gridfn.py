"""Tabulated functions on strictly increasing abscissae, and the step count
of a uniform time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def whole_steps(T, dt):
    """The number of steps ``dt`` that make up the horizon ``T``; 0 when
    T <= 0.  Every time stepper runs exactly this many steps, so it raises
    ``ValueError`` unless dt > 0 and T / dt is a whole number to 1e-9
    relative: a remainder would end the run short of or past T."""
    if T <= 0.0:
        return 0
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = T / dt
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9 * n):
        raise ValueError(f"T = {T:g} is not a whole number of steps {dt:g} "
                         "(to 1e-9 relative)")
    return int(round(n))


@dataclass(frozen=True)
class GridFunction:
    """Values sampled on strictly increasing abscissae.

    Evaluation between nodes is linear interpolation; outside the table the
    nearest value is held (``zero_outside`` gives 0 there instead).
    """

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 2 or not np.all(np.diff(xs) > 0):
            raise ValueError("abscissae must be strictly increasing (>= 2 nodes)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vs)

    @property
    def x_min(self):
        return float(self.xs[0])

    @property
    def x_max(self):
        return float(self.xs[-1])

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)

    def zero_outside(self, x):
        return np.where((x < self.x_min) | (x > self.x_max), 0.0, self(x))
