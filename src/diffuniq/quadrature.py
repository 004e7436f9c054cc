"""Adaptive quadrature, cached Feller transforms, and three-valued
divergence verdicts for improper integrals near singular endpoints.

The verdict machinery integrates over geometrically expanding windows and
gathers asymptotic evidence; it never claims an exact infinity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError

CONVERGES, DIVERGES, INCONCLUSIVE = "Converges", "Diverges", "Inconclusive"


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


@dataclass(frozen=True)
class Budget:
    """Knobs of the windowed improper-integral probe."""

    n_windows_infinite: int = 40
    n_windows_finite: int = 64
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    cum_cap: float = 1e12
    # increments must decay by at least this ratio, 5 windows running,
    # before a convergence claim is attempted
    decay_ratio: float = 0.75
    slope_threshold: float = -0.05


DEFAULT_BUDGET = Budget()


def window_bounds(endpoint, anchor, n_windows):
    """Window boundaries from ``anchor`` toward ``endpoint``.

    Toward an infinity the boundary distances double each window; toward a
    finite endpoint the remaining gap halves each window (the endpoint itself
    is never reached).
    """
    bounds = [float(anchor)]
    if math.isinf(endpoint):
        sign = 1.0 if endpoint > 0 else -1.0
        scale = max(1.0, abs(anchor))
        for k in range(1, n_windows + 1):
            bounds.append(anchor + sign * scale * (2.0 ** k - 1.0))
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

    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget = budget
        self.increments = []
        self.total = 0.0
        self.quad_err = 0.0

    def feed(self, inc, quad_err=0.0):
        """Register a window increment; returns a verdict or None."""
        b = self.budget
        self.increments.append(inc)
        self.total += inc
        self.quad_err += quad_err
        k = len(self.increments)

        if not math.isfinite(self.total) or self.total > b.cum_cap:
            return IntegralVerdict.diverges(
                f"cumulative integral exceeded {b.cum_cap:g} after {k} windows",
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
                if slope >= b.slope_threshold:
                    return IntegralVerdict.diverges(
                        f"log-increment slope {slope:.3g} >= {b.slope_threshold} "
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
            if r <= b.decay_ratio:
                tail = self.increments[-1] * r / (1.0 - r) if r > 0.0 else 0.0
                tol = b.rel_tol * abs(self.total) + b.abs_tol
                if tail <= tol:
                    return IntegralVerdict.converges(
                        self.total, tail + self.quad_err,
                        f"increments decayed with ratio <= {b.decay_ratio} "
                        f"for 5 windows; geometric tail {tail:.3g}", windows=k)
        return None

    def out_of_budget(self, reason="window budget exhausted"):
        return IntegralVerdict.inconclusive(
            f"{reason} after {len(self.increments)} windows "
            f"(total so far {self.total:.6g})", windows=len(self.increments))


class WindowStop(Exception):
    """Ends a :func:`windowed_verdict` walk early: ``Diverges`` with the
    message as evidence when ``diverges``, else an out-of-budget
    ``Inconclusive`` with the message as its reason."""

    def __init__(self, reason, diverges=False):
        super().__init__(reason)
        self.diverges = diverges


def windowed_verdict(endpoint, anchor, integrate_window, budget=DEFAULT_BUDGET):
    """Three-valued verdict for an integral from ``anchor`` toward ``endpoint``.

    ``integrate_window(lo, hi)`` is called per window in marching order (so
    ``lo > hi`` when marching down) and returns ``(increment, err_est)`` or
    raises :class:`WindowStop`.  An infinite increment (overflow) ends
    ``Diverges``; a NaN one ends ``Inconclusive``, as it bounds nothing."""
    n = (budget.n_windows_infinite if math.isinf(endpoint)
         else budget.n_windows_finite)
    try:
        bounds = window_bounds(endpoint, anchor, n)
    except ValueError as exc:
        return IntegralVerdict.inconclusive(str(exc))

    judge = _WindowJudge(budget)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            inc, err = integrate_window(lo, hi)
        except WindowStop as stop:
            if stop.diverges:
                return IntegralVerdict.diverges(
                    str(stop), windows=len(judge.increments) + 1)
            return judge.out_of_budget(str(stop))
        if math.isnan(inc):
            return judge.out_of_budget("integrand undefined (NaN) inside a window")
        if not math.isfinite(inc):
            return IntegralVerdict.diverges(
                "integrand overflowed inside a window",
                windows=len(judge.increments) + 1)
        verdict = judge.feed(inc, err)
        if verdict is not None:
            return verdict
    return judge.out_of_budget()


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_window(f, lo, hi, max_panels=64, rel_tol=1e-12):
    """Integrate a smooth nonnegative integrand over [lo, hi] by composite
    32-point Gauss-Legendre with panel doubling; returns (value, err_est)."""
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
            if err <= rel_tol * max(abs(total), 1e-300) or panels >= max_panels:
                return total, err
        prev = total
        panels *= 2


def improper_integral(f, endpoint, anchor, budget=DEFAULT_BUDGET):
    """Three-valued verdict for the integral of a nonnegative ``f`` from
    ``anchor`` toward ``endpoint`` (finite or infinite)."""
    fv = np.vectorize(f, otypes=[float])

    def window(lo, hi):
        try:
            return gauss_window(fv, min(lo, hi), max(lo, hi))
        except DomainError as exc:
            raise WindowStop(f"integrand evaluation failed: {exc}") from exc

    return windowed_verdict(endpoint, anchor, window, budget)


# ---------------------------------------------------------------------------
# Feller transforms

class FellerPair:
    """Cached evaluators for the Feller speed measure and scale function.

    L(x) = integral from c to x of b/a; alpha = e^L, rho = e^L / a.
    L is extended lazily by adaptive quadrature between memoized anchors.
    """

    def __init__(self, op, c, rel_tol=1e-9):
        if not op.interior(c):
            raise DomainError(f"base point {c} not interior to "
                              f"({op.x0}, {op.y0})")
        self.op = op
        self.c = float(c)
        self.rel_tol = rel_tol
        # memoized (x, L(x)) anchors, kept sorted; seeded with the base point
        self._xs = [self.c]
        self._Ls = [0.0]
        self._ratio = lambda t: op.b(t) / op.a(t)
        # probe integrability on a compact neighborhood right away
        self.log_alpha(self.c + min(1.0, 0.25 * (op.y0 - c)) if math.isfinite(op.y0)
                       else self.c + 1.0)
        self.log_alpha(self.c - min(1.0, 0.25 * (c - op.x0)) if math.isfinite(op.x0)
                       else self.c - 1.0)

    def _quad(self, lo, hi):
        val, err = integrate.quad(self._ratio, lo, hi,
                                  epsabs=1e-13, epsrel=self.rel_tol * 1e-2,
                                  limit=200)
        if not math.isfinite(val) or err > self.rel_tol * max(1.0, abs(val)) * 10:
            raise DomainError(
                f"b/a not integrable on [{lo}, {hi}] (quad err {err:g})")
        return val

    def log_alpha(self, x):
        """L(x), memoizing the result as a new anchor."""
        x = float(x)
        if not self.op.interior(x):
            raise DomainError(f"{x} outside ({self.op.x0}, {self.op.y0})")
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self._Ls[i]
        # nearest memoized anchor
        cands = []
        if i > 0:
            cands.append(i - 1)
        if i < len(self._xs):
            cands.append(i)
        j = min(cands, key=lambda k: abs(self._xs[k] - x))
        L = self._Ls[j] + self._quad(self._xs[j], x)
        self._xs.insert(i, x)
        self._Ls.insert(i, L)
        return L

    def alpha(self, x):
        return math.exp(self.log_alpha(x))

    def rho(self, x):
        a = self.op.a(x)
        return math.exp(self.log_alpha(x)) / a

    def log_alpha_array(self, xs):
        """L on a sorted array, chaining quadrature between neighbours."""
        xs = np.asarray(xs, dtype=float)
        return np.array([self.log_alpha(float(x)) for x in xs])


def build_feller(op, c, rel_tol=1e-9):
    """Construct the (rho, alpha) pair anchored at the interior point c."""
    return FellerPair(op, c, rel_tol)
