"""Three-valued divergence verdicts for improper integrals near singular
endpoints, and the scale check on the operator's input.

One walk sums every windowed integral over geometrically expanding windows
by Gauss-Legendre in log space and gathers asymptotic evidence; it never
claims an exact infinity.  Toward a regular endpoint, where the integral is
known to be finite, its windows close at the endpoint instead.  Its limits
are the module constants below.  The scale check integrates b/a on both
sides of the base point with the same 32-point rule, halving each piece of
a gap until it is resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    rhs_evals: int = 0  # coefficient points the march evaluated

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


def _log_slope(values):
    """Least-squares slope of log(values) against the index 0..4:
    sum((i - 2) (y_i - mean y)) / 10 on the five logs y."""
    logs = [math.log(v) for v in values]
    mean = sum(logs) / 5.0
    return sum((i - 2) * (y - mean) for i, y in enumerate(logs)) / 10.0


class _WindowJudge:
    """Sequential verdict logic over window increments.

    Divergence evidence (checked first, in order):
      (i) the cumulative integral exceeds the cap (the walk's, in log space);
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

    def feed(self, inc, quad_err):
        """Register a window increment and its quadrature error; returns a
        verdict or None."""
        self.increments.append(inc)
        self.total += inc
        self.quad_err += quad_err
        k = len(self.increments)

        if k >= 3:
            a3, a2, a1 = self.increments[-3:]
            if a3 <= a2 <= a1 and a1 > 0.0:
                return IntegralVerdict.diverges(
                    "window increments non-decreasing across 3 consecutive windows",
                    windows=k)
        if k >= 5:
            last = self.increments[-5:]
            if all(v > 0.0 for v in last):
                slope = _log_slope(last)
                if slope >= SLOPE_THRESHOLD:
                    return IntegralVerdict.diverges(
                        f"log-increment slope {slope:.3g} >= {SLOPE_THRESHOLD} "
                        "over the last 5 windows", windows=k)
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
    """Ends a :func:`windowed_verdict` walk early, ``Inconclusive`` with the
    message as its reason."""


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_LOG_GL_WEIGHTS = np.log(GL_WEIGHTS)


def _gauss_nodes(a, b):
    """The 32 Gauss-Legendre nodes on [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * GL_NODES


def _log_gauss(log_vals, a, b):
    """Log of the 32-point Gauss-Legendre sum over [a, b] of the integrand
    whose logs at the nodes are ``log_vals``; a NaN stops the walk."""
    logs = _LOG_GL_WEIGHTS + log_vals
    if np.isnan(logs).any():
        raise WindowStop("log-integrand undefined (NaN or a non-positive "
                         f"state) in [{a:.6g}, {b:.6g}]")
    log_sum = float(np.logaddexp.reduce(logs))
    half = 0.5 * (b - a)
    if half == 0.0:  # b - a = 5e-324, the least subnormal, halves to 0
        return math.log(b - a) - math.log(2.0) + log_sum
    return math.log(half) + log_sum


def _window_nodes(lo, hi):
    """The window's bounds in increasing order, its midpoint, and its 96
    Gauss-Legendre nodes: 32 on each half, then 32 on the whole window."""
    a, b = min(lo, hi), max(lo, hi)
    mid = 0.5 * (a + b)
    xs = np.concatenate((_gauss_nodes(a, mid), _gauss_nodes(mid, b),
                         _gauss_nodes(a, b)))
    return a, mid, b, xs


def _log_halves(log_f, a, mid, b):
    """Log of the two-half sum over [a, b] from the window's 96 logs."""
    return float(np.logaddexp(_log_gauss(log_f[:32], a, mid),
                              _log_gauss(log_f[32:64], mid, b)))


def windowed_verdict(endpoint, anchor, open_window, regular=None):
    """Three-valued verdict for an integral from ``anchor`` toward ``endpoint``.

    ``open_window(lo, hi, xs)`` is called per window in marching order (so
    ``lo > hi`` when marching down) with the window's 96 Gauss-Legendre
    nodes ``xs``: 32 on each half, then 32 on the whole window.  It returns
    the log of the integrand at ``xs``, or raises :class:`WindowStop`.  The
    window's increment, summed in log space over its two halves, ends the
    walk ``Diverges`` once the running total passes the cap (a lower bound,
    the integrand being positive), else goes to the judge with the
    one-panel sum's distance as error estimate.  A NaN log-integrand ends
    it ``Inconclusive``.

    ``regular``, the evidence that the endpoint is regular, means the
    integral is finite: :func:`_walk_to_endpoint` sums it instead, on
    windows that close at the endpoint, and neither the cap nor the judge
    applies."""
    if regular is not None:
        return _walk_to_endpoint(endpoint, anchor, open_window, regular)
    n = N_WINDOWS_INFINITE if math.isinf(endpoint) else N_WINDOWS_FINITE
    try:
        bounds = window_bounds(endpoint, anchor, n)
    except ValueError as exc:
        return IntegralVerdict.inconclusive(str(exc))

    judge = _WindowJudge()
    log_total = -math.inf
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
        a, mid, b, xs = _window_nodes(lo, hi)
        try:
            log_f = open_window(lo, hi, xs)
            log_fine = _log_halves(log_f, a, mid, b)
            log_total = float(np.logaddexp(log_total, log_fine))
            if log_total > math.log(CUM_CAP):
                return IntegralVerdict.diverges(
                    f"cumulative integral exceeded {CUM_CAP:g} after {k} "
                    f"windows (log-space sum to x={hi:.6g} is "
                    f"e^{log_total:.6g}; a lower bound, the integrand being "
                    "positive)", windows=k)
            fine = math.exp(log_fine)
            err = abs(fine - math.exp(_log_gauss(log_f[64:], a, b)))
        except WindowStop as stop:
            return judge.inconclusive(str(stop))
        verdict = judge.feed(fine, err)
        if verdict is not None:
            return verdict
    return judge.inconclusive()


_LOG_MAX = math.log(np.finfo(float).max)
# toward a regular endpoint the first window spans this share of the gap:
# the integrand's march leaves its initial data next to the anchor, and a
# short first window keeps the steps refined there out of the rest of the gap
REGULAR_FIRST_WINDOW = 1.0 / 8.0


def _walk_to_endpoint(endpoint, anchor, open_window, regular):
    """``Converges`` on an integral known to be finite, with its value.
    Two windows cover the gap: the first REGULAR_FIRST_WINDOW of it, then
    the rest, closing at the endpoint itself.  A window is accepted when its
    two-half and one-panel sums agree to REL_TOL; otherwise it is split at
    its midpoint and its first half is opened again, so ``open_window`` must
    take a ``lo`` it has passed.  After N_WINDOWS_FINITE windows, or on a
    window too narrow to split, the window is accepted and its disagreement
    counts in the error, which sums that of every window.  Where the sum
    leaves the float range, value and error are None and the evidence
    carries the sum as e^....  A :class:`WindowStop` ends the walk
    ``Inconclusive``."""
    ends = [endpoint]  # the ends of the windows still to walk, next last
    first = anchor + (endpoint - anchor) * REGULAR_FIRST_WINDOW
    if anchor != first != endpoint:
        ends.append(first)
    lo, k = anchor, 0
    log_total = log_err = -math.inf
    while ends:
        hi = ends[-1]
        k += 1
        a, mid, b, xs = _window_nodes(lo, hi)
        halvable = a < mid < b
        try:
            log_f = open_window(lo, hi, xs)
            log_coarse = _log_gauss(log_f[64:], a, b)
            if halvable:
                log_fine = _log_halves(log_f, a, mid, b)
                rel = abs(math.expm1(log_coarse - log_fine))
            else:  # one float step wide: no estimate, all of it is error
                log_fine, rel = log_coarse, 1.0
        except WindowStop as stop:
            return IntegralVerdict.inconclusive(
                f"{stop} after {k} windows, toward a regular endpoint",
                windows=k)
        if rel > REL_TOL and k < N_WINDOWS_FINITE and halvable:
            ends.append(mid)
            continue
        ends.pop()
        lo = hi
        log_total = float(np.logaddexp(log_total, log_fine))
        if rel > 0.0:
            log_err = float(np.logaddexp(log_err, log_fine + math.log(rel)))
    evidence = f"{regular}; integral marched to the endpoint in {k} windows"
    if log_total > _LOG_MAX:
        return IntegralVerdict.converges(
            None, None, f"{evidence} (log-space sum e^{log_total:.6g})", k)
    return IntegralVerdict.converges(math.exp(log_total), math.exp(log_err),
                                     evidence, k)


# ---------------------------------------------------------------------------
# scale check

def require_interior(op, c):
    """The base point ``c`` as a float; DomainError unless it lies inside
    the operator's interval."""
    if not op.interior(c):
        raise DomainError(f"base point {c} not interior to ({op.x0}, {op.y0})")
    return float(c)


# the scale check's bisection of b/a: the tolerance a piece's sum is resolved
# to (relative above 1), and the cap on a gap's unresolved pieces at one level
_SCALE_TOL = 1e-12
_SCALE_PIECES = 64


def _ratio_sums(op, lo, hi):
    """The 32-point Gauss-Legendre sums of b/a over each [lo, hi]."""
    xs = _gauss_nodes(lo[:, None], hi[:, None])
    with np.errstate(all="ignore"):
        return 0.5 * (hi - lo) * ((op.b.array(xs) / op.a.array(xs)) @ GL_WEIGHTS)


def _ratio_integrals(op, lo, hi):
    """The integral of b/a over each gap [lo[i], hi[i]] (lo > hi allowed),
    every gap at once: each piece is halved until its one-panel sum agrees
    with its halves' and that is finite.  A piece too narrow to halve is
    accepted only when that sum is within the tolerance of zero, so that
    no unchecked sum counts.  DomainError when an unresolved piece cannot be
    halved or a gap has more than ``_SCALE_PIECES`` unresolved pieces at
    one level."""
    totals = np.zeros(lo.shape)
    gap, a, b = np.arange(lo.size), lo, hi
    whole = _ratio_sums(op, a, b)
    while gap.size:
        mid = 0.5 * (a + b)
        left, right = _ratio_sums(op, a, mid), _ratio_sums(op, mid, b)
        halves = left + right
        halvable = (mid != a) & (mid != b)
        with np.errstate(invalid="ignore"):
            done = np.isfinite(halves) & (
                np.abs(whole - halves) <= _SCALE_TOL * np.maximum(1.0, np.abs(halves)))
            done &= halvable | (np.abs(halves) <= _SCALE_TOL)
        np.add.at(totals, gap[done], halves[done])
        open_ = ~done
        gap, a, b, mid = gap[open_], a[open_], b[open_], mid[open_]
        stuck = ~halvable[open_]
        stuck |= np.bincount(gap, minlength=lo.size)[gap] > _SCALE_PIECES
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            raise DomainError(
                f"b/a not integrable on [{lo[gap[i]]}, {hi[gap[i]]}] "
                f"(unresolved on [{a[i]}, {b[i]}])")
        gap = np.repeat(gap, 2)
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        whole = np.column_stack((left[open_], right[open_])).ravel()
    return totals


def probe_scale(op, c):
    """Input check: b/a must integrate on [c - 1, c + 1], each side cut to a
    quarter of the gap to a finite endpoint and skipped where its end rounds
    to c.  Raises DomainError when c is not interior or b/a is not
    integrable there, naming the upper gap first."""
    c = require_interior(op, c)
    up = c + min(1.0, 0.25 * (op.y0 - c)) if math.isfinite(op.y0) else c + 1.0
    down = c - min(1.0, 0.25 * (c - op.x0)) if math.isfinite(op.x0) else c - 1.0
    ends = np.array([x for x in (up, down) if x != c])
    _ratio_integrals(op, np.full(ends.size, c), ends)
