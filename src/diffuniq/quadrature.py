"""Three-valued divergence verdicts for improper integrals near singular
endpoints, and the scale check on the operator's input.

One walk sums every windowed integral over geometrically expanding windows
in log space and gathers asymptotic evidence; it never claims an exact
infinity.  Each window takes one nested rule on 65 nodes: the 65-point
Gauss-Kronrod sum is its value, and the distance to the 32-point
Gauss-Legendre sum on the same nodes its error.  A walk whose increments
decay geometrically converges once its geometric tail is within
tolerance, or sooner once Wynn's epsilon table of its partial sums has
settled on a limit (Shanks, J. Math. Phys. 34, 1955; Wynn, MTAC 10, 1956).
Toward a regular endpoint, where the integral is known to be finite, its
windows close at the endpoint instead.  Its limits are the module
constants below.  The scale check integrates b/a on both sides of the
base point with the same 32-point Gauss-Legendre rule, halving each piece
of a gap until it is resolved.
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


def _epsilon_diagonal(previous, s):
    """The ascending diagonal of Wynn's epsilon table that the partial sum
    ``s`` adds after the diagonal ``previous``: entry j is eps_j, eps_0
    being ``s`` itself and eps_-1 = 0, by

        eps_{j+1}^(n) = eps_{j-1}^(n+1) + 1 / (eps_j^(n+1) - eps_j^(n)).

    The even entries estimate the limit (Shanks' transforms).  The diagonal
    ends early where a column's two entries agree exactly or an entry
    leaves the floats."""
    diagonal = [s]
    for j, old in enumerate(previous):
        delta = diagonal[j] - old
        if delta == 0.0:
            break
        entry = (previous[j - 1] if j else 0.0) + 1.0 / delta
        if not math.isfinite(entry):
            break
        diagonal.append(entry)
    return diagonal


class _WindowJudge:
    """Sequential verdict logic over window increments.

    Divergence evidence (checked first, in order):
      (i) the cumulative integral exceeds the cap (the walk's, in log space);
      (ii) increments non-decreasing across 3 consecutive windows;
      (iii) least-squares slope of log(increment) vs window index over the
            last 5 windows above the threshold.
    Convergence needs the ratio condition, increments decaying by a fixed
    ratio for 5 running windows, and then either
      - the geometric tail estimate inc r / (1 - r) within tolerance: the
        value is the total, the error the tail plus the quadrature error; or
      - Wynn's epsilon table of the partial sums settled, its last two
        estimates of the limit (each from the last even column of its
        diagonal) agreeing to tolerance: the value is the latest estimate,
        the error their disagreement plus the geometric tail plus the
        quadrature error.
    """

    def __init__(self):
        self.increments = []
        self.total = 0.0
        self.quad_err = 0.0
        self.diagonal = []  # the epsilon table's latest diagonal
        self.estimate = None  # its estimate of the limit

    def feed(self, inc, quad_err):
        """Register a window increment and its quadrature error; returns a
        verdict or None."""
        self.increments.append(inc)
        self.total += inc
        self.quad_err += quad_err
        k = len(self.increments)
        self.diagonal = _epsilon_diagonal(self.diagonal, self.total)
        previous = self.estimate
        self.estimate = self.diagonal[(len(self.diagonal) - 1) & ~1]

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
                decayed = (f"increments decayed with ratio <= {DECAY_RATIO} "
                           "for 5 windows; ")
                if tail <= tol:
                    return IntegralVerdict.converges(
                        self.total, tail + self.quad_err,
                        f"{decayed}geometric tail {tail:.3g}", windows=k)
                change = abs(self.estimate - previous)
                if change <= REL_TOL * abs(self.estimate) + ABS_TOL:
                    return IntegralVerdict.converges(
                        self.estimate, change + tail + self.quad_err,
                        f"{decayed}Wynn ε limit settled to {change:.3g}, "
                        f"geometric tail {tail:.3g}", windows=k)
        return None

    def inconclusive(self, reason="window limit reached"):
        return IntegralVerdict.inconclusive(
            f"{reason} after {len(self.increments)} windows "
            f"(total so far {self.total:.6g})", windows=len(self.increments))


class WindowStop(Exception):
    """Ends a :func:`windowed_verdict` walk early, ``Inconclusive`` with the
    message as its reason."""


# The window rule: the 32-point Gauss-Legendre rule G32 nested in its
# 65-point Kronrod extension K65, which reuses G32's nodes.
# K65 integrates polynomials of degree 97 exactly, G32 those of degree 63.
GAUSS_POINTS = 32
# a window's quadrature error is the distance between its K65 and G32 sums,
# and at least this share of the K65 sum: where the two agree to a few
# ulps, the sums' rounding is the larger error (QUADPACK's floor of 50
# machine epsilons; Piessens et al., QUADPACK, 1983)
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


def _kronrod_jacobi(n):
    """The squared off-diagonal b_0 .. b_2n (b_0 the weight's mass 2) of the
    Jacobi-Kronrod matrix of the n-point Gauss-Legendre rule, n even: the
    (2n+1)-point Jacobi matrix whose Gauss rule is the Kronrod rule (Laurie,
    "Calculation of Gauss-Kronrod quadrature rules", Math. Comp. 66,
    1997).  Its first ceil(3n/2) + 1 entries are Legendre's own,
    k^2 / (4k^2 - 1); Laurie's mixed moments s and t give the rest.  The
    Legendre weight is symmetric, so every diagonal entry is 0 and drops
    out of his recurrence."""
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, 2 * n + 1)]
    b[(3 * n + 1) // 2 + 1:] = [0.0] * (2 * n - (3 * n + 1) // 2)
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s = [0.0] + s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


def _kronrod_recurrence(x, r, n):
    """At the points ``x``, the three-term recurrence of the Jacobi-Kronrod
    matrix with off-diagonal ``r`` (r_0 = sqrt 2, and r_2n+1 = 1, which
    leaves the last polynomial unnormalised): the polynomial of degree
    2n + 1 whose zeros are the 2n + 1 nodes, its derivative, and the sums of
    p_k^2 over k < n and over k <= 2n, where p_k are the orthonormal
    polynomials r_k+1 p_k+1 = x p_k - r_k p_k-1 from p_0 = 1 / r_0.  The
    first n of them are Legendre's, so the sums' reciprocals are the
    Christoffel numbers of G32 and of K65: the weights at the nodes."""
    p0, p1 = np.zeros_like(x), np.full_like(x, 1.0 / r[0])
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    squares = np.zeros_like(x)
    for k in range(2 * n + 1):
        squares += p1 * p1
        if k == n - 1:
            gauss = squares.copy()
        p0, p1, d0, d1 = (p1, (x * p1 - r[k] * p0) / r[k + 1],
                          d1, (p1 + x * d1 - r[k] * d0) / r[k + 1])
    return p1, d1, gauss, squares


def _nested_rule(n):
    """The 2n + 1 nodes on [-1, 1] in increasing order, the n Gauss nodes
    at the odd places and their n + 1 Kronrod nodes, one between each two
    neighbours and each end, at the even ones; the K weights at all of them
    and the G weights at the Gauss nodes.  n even.

    Every node is a zero of the Jacobi-Kronrod polynomial of degree 2n + 1,
    found by Newton's iteration from the Gauss nodes' asymptotic angles
    pi (i - 1/4) / (n + 1/2) and the angles halfway between them.  Only
    the nodes below 0 are iterated: 0 is a node, and the rest are their
    mirror images, so the rule is symmetric by construction.  No
    eigenvalue solver is called."""
    r = [math.sqrt(v) for v in _kronrod_jacobi(n)] + [1.0]
    gauss = np.pi * (np.arange(1.0, n // 2 + 1) - 0.25) / (n + 0.5)
    angles = np.empty(n)
    angles[1::2] = gauss
    angles[0::2] = 0.5 * (np.concatenate(([0.0], gauss[:-1])) + gauss)
    x = -np.cos(angles)
    while True:
        p, dp, _, _ = _kronrod_recurrence(x, r, n)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-13:  # converging quadratically
            break
    half = np.append(x, 0.0)
    _, _, gauss_squares, kronrod_squares = _kronrod_recurrence(half, r, n)
    k_weights = 1.0 / kronrod_squares
    g_weights = 1.0 / gauss_squares[1::2]
    return (np.concatenate((half, -x[::-1])),
            np.concatenate((k_weights, k_weights[-2::-1])),
            np.concatenate((g_weights, g_weights[::-1])))


NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS = _nested_rule(GAUSS_POINTS)
GAUSS_NODES = NODES[1::2]
_LOG_KRONROD_WEIGHTS = np.log(KRONROD_WEIGHTS)
_LOG_GAUSS_WEIGHTS = np.log(GAUSS_WEIGHTS)


def _mapped(nodes, a, b):
    """``nodes`` on [-1, 1] mapped to [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * nodes


def _window_nodes(lo, hi):
    """The window's bounds in increasing order and its 65 nodes ``NODES``
    mapped to it."""
    a, b = min(lo, hi), max(lo, hi)
    return a, b, _mapped(NODES, a, b)


def _log_sums(log_f, a, b):
    """Logs of the K65 and the G32 sum over [a, b] of the integrand whose
    logs at the window's nodes are ``log_f``; a NaN stops the walk."""
    logs = _LOG_KRONROD_WEIGHTS + log_f
    if np.isnan(logs).any():
        raise WindowStop("log-integrand undefined (NaN or a non-positive "
                         f"state) in [{a:.6g}, {b:.6g}]")
    log_g = float(np.logaddexp.reduce(_LOG_GAUSS_WEIGHTS + log_f[1::2]))
    log_k = float(np.logaddexp.reduce(logs))
    half = 0.5 * (b - a)
    # b - a = 5e-324, the least subnormal, halves to 0
    log_half = math.log(half) if half else math.log(b - a) - math.log(2.0)
    return log_half + log_k, log_half + log_g


def windowed_verdict(endpoint, anchor, open_window, regular=None):
    """Three-valued verdict for an integral from ``anchor`` toward ``endpoint``.

    ``open_window(lo, hi, xs)`` is called per window in marching order (so
    ``lo > hi`` when marching down) with the window's 65 nodes ``xs``, the
    32 Gauss-Legendre nodes and their 33 Kronrod nodes in increasing order.
    It returns the log of the integrand at ``xs``, or raises
    :class:`WindowStop`.  The window's increment, its K65 sum in log space,
    ends the walk ``Diverges`` once the running total passes the cap (a
    lower bound, the integrand being positive), else goes to the judge with
    the distance of the G32 sum as error estimate.  A NaN log-integrand
    ends it ``Inconclusive``.

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
        a, b, xs = _window_nodes(lo, hi)
        try:
            log_k, log_g = _log_sums(open_window(lo, hi, xs), a, b)
            log_total = float(np.logaddexp(log_total, log_k))
            if log_total > math.log(CUM_CAP):
                return IntegralVerdict.diverges(
                    f"cumulative integral exceeded {CUM_CAP:g} after {k} "
                    f"windows (log-space sum to x={hi:.6g} is "
                    f"e^{log_total:.6g}; a lower bound, the integrand being "
                    "positive)", windows=k)
            inc = math.exp(log_k)
            err = max(abs(inc - math.exp(log_g)), ROUNDING_FLOOR * inc)
        except WindowStop as stop:
            return judge.inconclusive(str(stop))
        verdict = judge.feed(inc, err)
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
    K65 and G32 sums agree to REL_TOL; otherwise it is split at
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
        a, b, xs = _window_nodes(lo, hi)
        mid = 0.5 * (a + b)
        halvable = a < mid < b
        try:
            log_k, log_g = _log_sums(open_window(lo, hi, xs), a, b)
            rel = (max(abs(math.expm1(log_g - log_k)), ROUNDING_FLOOR)
                   if halvable else 1.0)  # one float step: all of it error
        except WindowStop as stop:
            return IntegralVerdict.inconclusive(
                f"{stop} after {k} windows, toward a regular endpoint",
                windows=k)
        if rel > REL_TOL and k < N_WINDOWS_FINITE and halvable:
            ends.append(mid)
            continue
        ends.pop()
        lo = hi
        log_total = float(np.logaddexp(log_total, log_k))
        if rel > 0.0:
            log_err = float(np.logaddexp(log_err, log_k + math.log(rel)))
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
    xs = _mapped(GAUSS_NODES, lo[:, None], hi[:, None])
    with np.errstate(all="ignore"):
        ratio = op.b.array(xs) / op.a.array(xs)
        return 0.5 * (hi - lo) * (ratio @ GAUSS_WEIGHTS)


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
