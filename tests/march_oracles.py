"""Oracles for the endpoint march, shared by the uniqueness, quadrature,
symmetry and acceptance tests.

The solution u of (alpha u')' = rho (lambda + V) u with u(c) = 1,
(alpha u')(c) = 0 is the sum of the phi (toward the upper end) or psi
(toward the lower end) series.  ``series_partial`` sums its partial sums by
iterated cumulative Simpson quadrature, with no march; ``monotone_solution``
marches u on a node grid with the library's Radau IIA march and turns the
scaled flux back into u with the scale function ``log_scale``.  Criterion 2
compares the two.  ``log_scale`` integrates b/a between neighbouring points
with the library's own adaptive Gauss-Legendre rule, the one of its scale
check.
"""

from dataclasses import dataclass

import numpy as np

from diffuniq import quadrature as qd
from diffuniq.errors import DomainError
from diffuniq.uniqueness import _scaled_march

TOWARD_UPPER, TOWARD_LOWER = "TowardUpper", "TowardLower"


def log_scale(op, c, xs):
    """L(x) = integral from c to x of b/a at the points ``xs``, which may lie
    on either side of the base point c, or on both.  The scale density is
    alpha = e^L and the speed density rho = e^L / a.  Each side is chained
    outward from c, one adaptive Gauss-Legendre integral per gap between
    neighbouring points, all gaps at once."""
    c = qd.require_interior(op, c)
    xs = np.asarray(xs, dtype=float)
    outside = ~((xs > op.x0) & (xs < op.y0))
    if outside.any():
        raise DomainError(f"{xs[outside][0]} outside ({op.x0}, {op.y0})")
    pts = np.unique(xs)
    up = np.concatenate(([c], pts[pts > c]))
    down = np.concatenate(([c], pts[pts < c][::-1]))
    gaps = qd._ratio_integrals(op, np.concatenate((up[:-1], down[:-1])),
                               np.concatenate((up[1:], down[1:])))
    n_up = up.size - 1
    L = np.concatenate((np.cumsum(gaps[n_up:])[::-1], [0.0], np.cumsum(gaps[:n_up])))
    return L[np.searchsorted(np.concatenate((down[:0:-1], up)), xs)]


@dataclass(frozen=True)
class SeriesTable:
    direction: str
    lam: float
    xs: np.ndarray          # grid, marching away from the base point
    partial_sums: np.ndarray  # shape (N+1, len(xs)); row N is S_N
    N_max: int

    def partial(self, n):
        return self.partial_sums[n]


def _simpson_forward(y, h):
    """Integral over each [x_i, x_{i+1}] of the parabola through the samples
    at x_i, x_{i+1}, x_{i+2}; ``h`` the interval widths."""
    h1, h2 = h[:-1], h[1:]
    r = h1 / (h1 + h2)
    s = r * (h1 / h2)
    return h1 / 6 * ((3 - r) * y[:-2] + (3 + s + r) * y[1:-1] - s * y[2:])


def _cumulative_simpson(y, x):
    """Cumulative integral of the samples ``y`` over the increasing grid
    ``x`` (three points or more), 0 at x[0].  Each interval takes Simpson's
    3-point parabola: the forward one (through the next point) on even
    intervals, the backward one (through the previous point) on odd ones
    and on the last."""
    h = np.diff(x)
    forward = _simpson_forward(y, h)
    backward = _simpson_forward(y[::-1], h[::-1])[::-1]  # [j] is interval j+1
    parts = np.empty(h.size)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def series_partial(op, c, lam, direction, N, n_grid=1025):
    """Partial sums of the phi (toward upper) or psi (toward lower) series
    on a unit span from the base point c, by iterated cumulative
    quadrature, one cumulative Simpson pass per integral of each level."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    sgn = 1.0 if direction == TOWARD_UPPER else -1.0
    xs = c + sgn * np.linspace(0.0, 1.0, n_grid)

    # work in the marched coordinate t >= 0; integrals from c become
    # cumulative integrals in t for both directions
    t = np.abs(xs - c)
    L = log_scale(op, c, xs)
    with np.errstate(all="ignore"):
        a_vals = op.a.array(xs)
        V_vals = op.V.array(xs)
    alpha = np.exp(L)
    rho = alpha / a_vals
    q = rho * (lam + V_vals)

    phi = np.ones_like(t)
    sums = [phi.copy()]
    for _ in range(N):
        inner = _cumulative_simpson(q * phi, t)
        phi = _cumulative_simpson(inner / alpha, t)
        sums.append(sums[-1] + phi)
    return SeriesTable(direction, lam, xs, np.vstack(sums), N)


@dataclass(frozen=True)
class MonotoneSolution:
    """u with u(c)=1, (alpha u')(c)=0, stored as log u and u'/u."""

    direction: str
    lam: float
    xs: np.ndarray
    log_u: np.ndarray
    ratio: np.ndarray  # u'/u at the nodes

    def u(self):
        return np.exp(self.log_u)


def monotone_solution(op, c, lam, direction, x_end=None, n_grid=513):
    """March u away from the base point c to ``x_end`` (default: one unit
    in ``direction``); log-space table on ``n_grid`` nodes, which the march
    lands on."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    c = qd.require_interior(op, c)
    if x_end is None:
        x_end = c + (1.0 if direction == TOWARD_UPPER else -1.0)
    xs = np.linspace(c, x_end, n_grid)
    march = _scaled_march(op, lam, c, direction == TOWARD_UPPER)
    try:
        h_hat, W_hat, sigma = march.advance(xs, x_end)
    except qd.WindowStop as stop:
        raise DomainError(f"monotone solution march failed: {stop}") from None
    if not np.all(h_hat > 0.0):
        raise DomainError("monotone solution march lost positivity")
    log_u = sigma + np.log(h_hat) - log_scale(op, c, xs)
    return MonotoneSolution(direction, lam, xs, log_u, W_hat / h_hat)
