"""Adaptive quadrature, the Feller scale function, and three-valued
divergence verdicts for improper integrals near singular endpoints.

The verdict machinery integrates over geometrically expanding windows and
gathers asymptotic evidence; it never claims an exact infinity.  Its limits
are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError

CONVERGES, DIVERGES, INCONCLUSIVE = "Converges", "Diverges", "Inconclusive"

# limits of the windowed improper-integral probe
N_WINDOWS_INFINITE = 40
N_WINDOWS_FINITE = 64
REL_TOL = 1e-8
ABS_TOL = 1e-12
CUM_CAP = 1e12
# increments must decay by at least this ratio, 5 windows running,
# before a convergence claim is attempted
DECAY_RATIO = 0.75
SLOPE_THRESHOLD = -0.05


@dataclass(frozen=True)
class IntegralVerdict:
    kind: str
    value: float | None = None
    err: float | None = None
    evidence: str = ""
    windows_used: int = 0
    rhs_evals: int = 0  # ODE right-hand-side evaluations behind the verdict

    @classmethod
    def converges(cls, value, err, evidence="", windows=0):
        return cls(CONVERGES, value, err, evidence, windows)

    @classmethod
    def diverges(cls, evidence, windows=0):
        return cls(DIVERGES, None, None, evidence, windows)

    @classmethod
    def inconclusive(cls, reason, windows=0):
        return cls(INCONCLUSIVE, None, None, reason, windows)

    @property
    def is_converges(self):
        return self.kind == CONVERGES

    @property
    def is_diverges(self):
        return self.kind == DIVERGES

    @property
    def is_inconclusive(self):
        return self.kind == INCONCLUSIVE

    def to_dict(self):
        return {"kind": self.kind, "value": self.value, "err": self.err,
                "evidence": self.evidence, "windows_used": self.windows_used,
                "rhs_evals": self.rhs_evals}


def window_bounds(endpoint, anchor, n_windows):
    """Window boundaries from ``anchor`` toward ``endpoint``.

    Toward an infinity the boundary distances double each window; toward a
    finite endpoint the remaining gap halves each window (the endpoint itself
    is never reached).  Fewer windows come back where the float range or
    its resolution runs out.
    """
    bounds = [float(anchor)]
    if math.isinf(endpoint):
        sign = 1.0 if endpoint > 0 else -1.0
        scale = max(1.0, abs(anchor))
        for k in range(1, n_windows + 1):
            w = anchor + sign * scale * (2.0 ** k - 1.0)
            if math.isinf(w):  # past the largest float
                break
            bounds.append(w)
    else:
        gap0 = endpoint - anchor
        if gap0 == 0.0:
            raise ValueError("anchor coincides with the endpoint")
        for k in range(1, n_windows + 1):
            w = endpoint - gap0 * 2.0 ** (-k)
            if w == bounds[-1]:  # float resolution exhausted near the endpoint
                break
            bounds.append(w)
    return bounds


class _WindowJudge:
    """Sequential verdict logic over window increments.

    Divergence evidence (checked first, in order):
      (i) the cumulative integral exceeds the cap;
      (ii) increments non-decreasing across 3 consecutive windows;
      (iii) least-squares slope of log(increment) vs window index over the
            last 5 windows above the threshold.
    Convergence: increments decaying by a fixed ratio for 5 running windows
    and the geometric tail estimate within tolerance.
    """

    def __init__(self):
        self.increments = []
        self.total = 0.0
        self.quad_err = 0.0

    def feed(self, inc, quad_err=0.0):
        """Register a window increment; returns a verdict or None."""
        self.increments.append(inc)
        self.total += inc
        self.quad_err += quad_err
        k = len(self.increments)

        if not math.isfinite(self.total) or self.total > CUM_CAP:
            return IntegralVerdict.diverges(
                f"cumulative integral exceeded {CUM_CAP:g} after {k} windows",
                windows=k)
        if k >= 3:
            a3, a2, a1 = self.increments[-3:]
            if a3 <= a2 <= a1 and a1 > 0.0:
                return IntegralVerdict.diverges(
                    "window increments non-decreasing across 3 consecutive windows",
                    windows=k)
        if k >= 5:
            last = self.increments[-5:]
            if all(v > 0.0 for v in last):
                logs = np.log(last)
                slope = np.polyfit(np.arange(5.0), logs, 1)[0]
                if slope >= SLOPE_THRESHOLD:
                    return IntegralVerdict.diverges(
                        f"log-increment slope {slope:.3g} >= {SLOPE_THRESHOLD} "
                        "over the last 5 windows", windows=k)
        if k >= 5:
            last = self.increments[-5:]
            ratios = []
            for prev, cur in zip(last[:-1], last[1:]):
                if prev <= 0.0:
                    ratios.append(0.0 if cur <= 0.0 else math.inf)
                else:
                    ratios.append(cur / prev)
            r = max(ratios)
            if r <= DECAY_RATIO:
                tail = self.increments[-1] * r / (1.0 - r) if r > 0.0 else 0.0
                tol = REL_TOL * abs(self.total) + ABS_TOL
                if tail <= tol:
                    return IntegralVerdict.converges(
                        self.total, tail + self.quad_err,
                        f"increments decayed with ratio <= {DECAY_RATIO} "
                        f"for 5 windows; geometric tail {tail:.3g}", windows=k)
        return None

    def inconclusive(self, reason="window limit reached"):
        return IntegralVerdict.inconclusive(
            f"{reason} after {len(self.increments)} windows "
            f"(total so far {self.total:.6g})", windows=len(self.increments))


class WindowStop(Exception):
    """Ends a :func:`windowed_verdict` walk early: ``Diverges`` with the
    message as evidence when ``diverges``, else ``Inconclusive`` with the
    message as its reason."""

    def __init__(self, reason, diverges=False):
        super().__init__(reason)
        self.diverges = diverges


def windowed_verdict(endpoint, anchor, integrate_window):
    """Three-valued verdict for an integral from ``anchor`` toward ``endpoint``.

    ``integrate_window(lo, hi)`` is called per window in marching order (so
    ``lo > hi`` when marching down) and returns ``(increment, err_est)`` or
    raises :class:`WindowStop`.  An infinite increment (overflow) ends
    ``Diverges``; a NaN one ends ``Inconclusive``, as it bounds nothing."""
    n = N_WINDOWS_INFINITE if math.isinf(endpoint) else N_WINDOWS_FINITE
    try:
        bounds = window_bounds(endpoint, anchor, n)
    except ValueError as exc:
        return IntegralVerdict.inconclusive(str(exc))

    judge = _WindowJudge()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            inc, err = integrate_window(lo, hi)
        except WindowStop as stop:
            if stop.diverges:
                return IntegralVerdict.diverges(
                    str(stop), windows=len(judge.increments) + 1)
            return judge.inconclusive(str(stop))
        if math.isnan(inc):
            return judge.inconclusive("integrand undefined (NaN) inside a window")
        if not math.isfinite(inc):
            return IntegralVerdict.diverges(
                "integrand overflowed inside a window",
                windows=len(judge.increments) + 1)
        verdict = judge.feed(inc, err)
        if verdict is not None:
            return verdict
    return judge.inconclusive()


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_window(f, lo, hi):
    """Integrate a smooth nonnegative integrand over [lo, hi] by composite
    32-point Gauss-Legendre with panel doubling, until two rounds agree to
    1e-12 relative or 64 panels; returns (value, err_est)."""
    prev = None
    panels = 1
    while True:
        edges = np.linspace(lo, hi, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ys = f(mid + half * GL_NODES)
            total += half * float(np.dot(GL_WEIGHTS, ys))
        if not math.isfinite(total):
            return total, math.inf
        if prev is not None:
            err = abs(total - prev)
            if err <= 1e-12 * max(abs(total), 1e-300) or panels >= 64:
                return total, err
        prev = total
        panels *= 2


def improper_integral(f, endpoint, anchor):
    """Three-valued verdict for the integral of a nonnegative ``f`` from
    ``anchor`` toward ``endpoint`` (finite or infinite)."""
    fv = np.vectorize(f, otypes=[float])

    def window(lo, hi):
        try:
            return gauss_window(fv, min(lo, hi), max(lo, hi))
        except DomainError as exc:
            raise WindowStop(f"integrand evaluation failed: {exc}") from exc

    return windowed_verdict(endpoint, anchor, window)


# ---------------------------------------------------------------------------
# Feller scale function

def require_interior(op, c):
    """The base point ``c`` as a float; DomainError unless it lies inside
    the operator's interval."""
    if not op.interior(c):
        raise DomainError(f"base point {c} not interior to ({op.x0}, {op.y0})")
    return float(c)


_SCALE_REL_TOL = 1e-9


def _ratio_integral(op, lo, hi):
    """The integral of b/a from lo to hi by adaptive quadrature."""
    val, err = integrate.quad(lambda t: op.b(t) / op.a(t), lo, hi,
                              epsabs=1e-13, epsrel=_SCALE_REL_TOL * 1e-2,
                              limit=200)
    if not math.isfinite(val) or err > _SCALE_REL_TOL * max(1.0, abs(val)) * 10:
        raise DomainError(
            f"b/a not integrable on [{lo}, {hi}] (quad err {err:g})")
    return val


def log_scale(op, c, xs):
    """L(x) = integral from c to x of b/a at the points ``xs``, which may lie
    on either side of the base point c, or on both.  The scale density is
    alpha = e^L and the speed density rho = e^L / a.  Each side is chained
    outward from c, one quadrature per gap between neighbouring points."""
    c = require_interior(op, c)
    xs = np.asarray(xs, dtype=float)
    for x in xs:
        if not op.interior(x):
            raise DomainError(f"{x} outside ({op.x0}, {op.y0})")
    L = np.empty(xs.shape)
    above, below = np.flatnonzero(xs >= c), np.flatnonzero(xs < c)
    for side in (above[np.argsort(xs[above], kind="stable")],
                 below[np.argsort(-xs[below], kind="stable")]):
        x_prev, total = c, 0.0
        for i in side:
            x = float(xs[i])
            if x != x_prev:
                total += _ratio_integral(op, x_prev, x)
                x_prev = x
            L[i] = total
    return L


def probe_scale(op, c):
    """Input check: b/a must integrate on [c - 1, c + 1], each side cut to a
    quarter of the gap to a finite endpoint.  Raises DomainError when c is
    not interior or b/a is not integrable there."""
    up = c + min(1.0, 0.25 * (op.y0 - c)) if math.isfinite(op.y0) else c + 1.0
    down = c - min(1.0, 0.25 * (c - op.x0)) if math.isfinite(op.x0) else c - 1.0
    log_scale(op, c, [down, up])
