"""Uniqueness classification for 1D operators and the radial reduction.

The decisive identity: the series sum(phi_n) equals the solution u of
(alpha u')' = rho (lambda + V) u with u(c) = 1, (alpha u')(c) = 0.  In the
flux variables h = alpha u, W = alpha u' that is the linear system

    h' = p h + W,   W' = q h,      p = b/a,  q = (lambda + V)/a,

which needs no derivative of a.  Its solution grows like exp(x^4) on rows
such as b = -x^3, V = x^6, so the code marches the Liouville-Green scaled
state (h_hat, W_hat, sigma) with (h, W) = e^sigma (h_hat, W_hat):

    mu = (p + s sqrt(p^2 + 4q)) / 2      (s = +1 marching up, -1 down)
    h_hat' = (p - mu) h_hat + W_hat
    W_hat' = q h_hat - mu W_hat
    sigma' = mu

mu is the eigenvalue of the frozen matrix [[p, 1], [q, 0]] that grows in the
marching direction, so the exponential factor lives in sigma and h_hat,
W_hat stay of polynomial size.  The system is linear in (h_hat, W_hat) and
sigma is a plain quadrature, so it is marched by Radau IIA propagators
(``_Propagator``): each 3-stage step (order 5, L-stable, stiffly accurate)
is one 6x6 linear solve giving z -> P z + v, the solves are batched with
numpy, and only the chaining of z is sequential.  The march lands on every
quadrature node and on every knot of the coefficients (a point where one is
not smooth, such as a radius of a sampled radial bound), so that no step
straddles a kink and loses the method's order.  It takes m equal steps per
gap between landing points and accepts once the m and 2m marches agree
(on a window without knots, 66 gaps: 594 stage points for m = 1 and 2):
m doubles until they do, and halves for the next window where they agree
with room to spare, so one hard window does not set the step for the rest
of the walk.

Both integral tests share that march and one helper (``_windowed_march``),
which checks the base point and the endpoint, marches through the 65
Gauss-Kronrod nodes of each window of ``quadrature.windowed_verdict`` and
hands that walk the log-integrand there; the walk sums it in log space and
owns the cumulative cap.  At a regular endpoint
(``operator.regular_endpoint``) the integral is finite, and the walk
marches to the endpoint itself and reads ``Converges``.  Both march a
scaled state, so neither needs an overflow guard: an integral that diverges
meets the walk's cap.  The endpoint test integrates
rho u = exp(sigma + log h_hat - log a).  The entrance test (V = 0) marches
(K, g) = e^sigma (K_hat, g_hat), K = int rho and g = alpha J, with the
quadrature L = int b/a and sigma = log(1 + e^L), and integrates
g / a = exp(sigma + log g_hat - log a).

Every test takes the base point c itself.  Neither integral test needs the
scale function L = int b/a apart from its march: the endpoint test never
turns the flux back into u, and the entrance test marches L as its
quadrature.  The tests' oracles do: a march of u itself and the truncated
series, summed by cumulative Simpson quadrature, both on ``log_scale`` in
``tests/march_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature as qd
from .errors import DomainError, ValidationError
from .operator import (RADII, Coefficient, as_coefficient, coefficient_arrays,
                       first_failure, interval_center, make_operator_1d,
                       probe_points, regular_endpoint)

UNIQUE, NOT_UNIQUE, INCONCLUSIVE = "Unique", "NotUnique", "Inconclusive"
PROOF_FAITHFUL, STRICT_THEOREM = "ProofFaithful", "StrictTheorem"


# 3-stage Radau IIA (Hairer & Wanner, Solving ODEs II, table IV.5.6): stage
# nodes and matrix; the weights are its last row (stiffly accurate)
_S6 = math.sqrt(6.0)
_RADAU_C = np.array([(4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0])
_RADAU_A = np.array([
    [(88.0 - 7.0 * _S6) / 360.0, (296.0 - 169.0 * _S6) / 1800.0,
     (-2.0 + 3.0 * _S6) / 225.0],
    [(296.0 + 169.0 * _S6) / 1800.0, (88.0 + 7.0 * _S6) / 360.0,
     (-2.0 - 3.0 * _S6) / 225.0],
    [(16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0]])

# limits of the march: the watched state of the m and 2m passes must agree
# to MARCH_TOL (absolute, relative above 1) at every node, m doubling up to
# MAX_SUBSTEPS; m halves for the next window where they agree to
# MARCH_TOL / STEP_DOWN, 2^6 being the local-error ratio of halving an
# order-5 step; a window whose discrepancy shrinks by less than STALL_GAIN
# over two doublings of m has stalled; steps are built and solved
# BATCH_STEPS at a time
MARCH_TOL = 1e-9
STEP_DOWN = 64
STALL_GAIN = 4.0
MAX_SUBSTEPS = 1024
BATCH_STEPS = 1024


def _stalled(before, after):
    """Whether two doublings of m took the discrepancy from ``before`` to
    ``after`` with a gain below STALL_GAIN.  NaN, where only one pass lost
    positivity, is a discrepancy larger than any other: a doubling that
    ends on it gains nothing, and one that leaves it gains."""
    if math.isnan(after):
        return True
    return not math.isnan(before) and after * STALL_GAIN > before


def _failed(reason):
    return qd.WindowStop(f"ODE march failed ({reason}); domain truncated")


class _Propagator:
    """March of the linear system z' = A(x) z + f(x) in two components and a
    quadrature Q' = q(x) away from the base point, by 3-stage Radau IIA
    steps: order 5, L-stable and stiffly accurate.

    ``coeffs(xs)`` returns ``(q, system)`` at an array of stage points (q
    an array of their shape), and ``system(Q)`` returns A's entries (a00,
    a01, a10, a11) and f's (f0, f1) there, given Q's stage values, each
    broadcastable to that shape; a DomainError from ``coeffs`` ends the
    walk ``Inconclusive`` with its reason.  On a linear system each step
    is one 6x6 stage solve, giving z -> P z + v; the solves are batched
    and only the chaining of z is sequential.  The error control compares
    Q and the log of z's ``watched`` component; ``m``, the steps per gap,
    carries from window to window, doubling and halving (see ``advance``).
    The march lands on the ``knots``, the points where a coefficient is not
    smooth, as on the nodes: they split the gaps, but no state is returned
    there.  ``evals`` counts the stage points evaluated."""

    def __init__(self, coeffs, watched, x, z, knots):
        self.coeffs, self.watched = coeffs, watched
        self.knots = knots
        self.x = x
        self.y = np.array([z[0], z[1], 0.0])
        self.m = 1
        self.evals = 0

    def advance(self, xs, x_to):
        """March through the nodes ``xs`` (any order, between here and
        ``x_to``) and the knots strictly between here and ``x_to`` to
        ``x_to``, with m equal steps per gap and error control by the 2m
        march; returns the states at ``xs``, shape (3, len(xs)).  m doubles
        until the passes agree to MARCH_TOL, and halves for the next window
        when they agree to MARCH_TOL / STEP_DOWN.  The window stops
        unresolved once m reaches MAX_SUBSTEPS, or once two doublings in a
        row have shrunk the discrepancy by less than STALL_GAIN in all."""
        k = self.knots
        if k.size:  # np.isin costs about 20 us a call even with no knots
            k = k[((k - self.x) * (x_to - k) > 0.0) & ~np.isin(k, xs)]
        stops = np.concatenate((xs, k))
        order = np.argsort(stops if x_to > self.x else -stops, kind="stable")
        pts = np.concatenate(([self.x], stops[order], [x_to]))
        coarse, fine = self._pass(pts, (self.m, 2 * self.m))
        gaps = [self._discrepancy(coarse, fine)]  # one per m tried
        while not (gap := gaps[-1]) <= MARCH_TOL:
            if self.m >= MAX_SUBSTEPS:
                raise qd.WindowStop(
                    f"march did not resolve the solution to {MARCH_TOL:g} "
                    f"with {2 * MAX_SUBSTEPS} steps per node gap in "
                    f"[{self.x:.6g}, {x_to:.6g}]")
            if len(gaps) >= 3 and _stalled(gaps[-3], gap):
                raise qd.WindowStop(
                    f"march did not resolve the solution to {MARCH_TOL:g} "
                    f"in [{self.x:.6g}, {x_to:.6g}]: refinement stalled at "
                    f"{2 * self.m} steps per node gap, the discrepancy "
                    f"{gap:.2g} against {gaps[-3]:.2g} two doublings before")
            self.m *= 2
            coarse, (fine,) = fine, self._pass(pts, (2 * self.m,))
            gaps.append(self._discrepancy(coarse, fine))
        if self.m > 1 and gap <= MARCH_TOL / STEP_DOWN:
            self.m //= 2
        self.x, self.y = x_to, fine[:, -1]
        out = np.empty((3, stops.size))
        out[:, order] = fine[:, :-1]
        return out[:, :xs.size]

    def _discrepancy(self, coarse, fine):
        """max |w_m - w_2m| / max(1, |w_2m|) over the points and the watched
        state (its log) and Q, where w_m is the m pass's; points where both
        are NaN agree."""
        rows = [self.watched, 2]
        w = np.array((coarse[rows], fine[rows]))  # (pass, row, point)
        w[:, 0] = _log_positive(w[:, 0])
        wc, wf = w
        with np.errstate(invalid="ignore"):
            scaled = np.abs(wc - wf) / np.maximum(1.0, np.abs(wf))
        scaled[np.isnan(wc) & np.isnan(wf)] = 0.0
        return float(np.max(scaled))

    def _pass(self, pts, ms):
        """Marches from pts[0] through the gaps of ``pts``, one for each m in
        ``ms`` with m equal steps per gap.  Returns for each the states
        landed on pts[1:], shape (3, pts.size - 1).

        Each march takes its steps BATCH_STEPS at a time from its own start,
        and batch i of every march still under way is built at once: one
        ``coeffs`` call and one block elimination over their steps, in the
        order of ``ms``, so a coefficient failure is named at the first
        march's point first.  Each march restarts Q's running sum from its
        own carried value and chains its own steps, so its floats are those
        it has alone.  The build's (P | v) is copied once to step order, and
        each ``_chain`` reads its span of that buffer and writes its states
        into one array; a march lands on a gap's end every m steps, so its
        landed states are a slice."""
        totals = [(pts.size - 1) * m for m in ms]
        carried = [self.y.tolist() for _ in ms]  # z0, z1, Q
        landed = [[] for _ in ms]
        for start in range(0, max(totals), BATCH_STEPS):
            live = [k for k, total in enumerate(totals) if start < total]
            sizes = [min(BATCH_STEPS, totals[k] - start) for k in live]
            ends = np.cumsum(sizes)
            spans = list(zip(live, ends - sizes, ends))  # (march, lo, hi)
            m = np.repeat([ms[k] for k in live], sizes)
            gap, sub = np.divmod(np.concatenate(
                [np.arange(start, start + n) for n in sizes]), m)
            h = (pts[gap + 1] - pts[gap]) / m
            xs = pts[gap] + sub * h + _RADAU_C[:, None] * h  # (stage, step)
            self.evals += xs.size
            try:
                q, system = self.coeffs(xs)
            except DomainError as exc:  # a coefficient undefined at a point
                raise _failed(str(exc)) from None
            with np.errstate(all="ignore"):
                dQ = h * (_RADAU_A @ q)
                Q_end = np.concatenate([carried[k][2] + np.cumsum(dQ[2, lo:hi])
                                        for k, lo, hi in spans])
                Q_start = np.concatenate(([0.0], Q_end[:-1]))
                Q_start[ends - sizes] = [carried[k][2] for k in live]
                Pv = _propagators(h, system(Q_start + dQ))
            # (p00, p01, v0, p10, p11, v1) of each step, read as plain floats
            steps = memoryview(np.ascontiguousarray(Pv.transpose(2, 0, 1))
                               .ravel())
            zs = np.empty((h.size, 2))
            out = memoryview(zs.ravel())
            for k, lo, hi in spans:
                z0, z1, _ = carried[k]
                _chain(steps[6 * lo:6 * hi], z0, z1, out[2 * lo:2 * hi])
                carried[k] = [*out[2 * hi - 2:2 * hi], float(Q_end[hi - 1])]
                # step start + j ends a gap when (start + j) % m == m - 1
                m_k = ms[k]
                at_node = slice(lo + (m_k - 1 - start) % m_k, hi, m_k)
                landed[k].append(np.vstack((zs[at_node].T, Q_end[at_node])))
        passes = []
        for parts in landed:
            states = parts[0] if len(parts) == 1 else np.hstack(parts)
            if not np.isfinite(states).all():
                # an overflow, which no step refinement mends
                bad = np.flatnonzero(~np.isfinite(states).all(axis=0))
                raise _failed(f"state not finite at x={pts[bad[0] + 1]:.6g}")
            passes.append(states)
        return passes


_IDENTITY_6 = np.eye(6).reshape(3, 2, 3, 2, 1)  # (i, r, j, s, step)


def _propagators(h, system):
    """(P | v) of the steps z -> P z + v of sizes h, shape (2, 3, n): P in
    columns 0 and 1, v in column 2; from A's and f's entries at the stage
    points, each broadcastable to (3, n).

    The stage system (I - h (a_ij A_j)) Z = (z, z, z) + h (sum_j a_ij f_j)
    is solved by Gaussian elimination on its 2x2 blocks, for all steps at
    once.  The three block rows i are stacked, each with its right-hand
    side (I | h sum_j a_ij f_j), into one (3, 2, 9, n) array: for pivot k,
    the factors of the blocks below it are one product and the update of
    everything right of them another.  Each element takes the arithmetic of
    a block-by-block elimination (a block is 0.0 or 1.0 minus h a_ij A_j, a
    forcing term the sum over j = 0, 1, 2 in that order), so its bits
    depend neither on the stacking nor on how the steps are split into
    builds.  The step ends on the last stage, so no back substitution is
    needed.  The pivot blocks I - h a A stay regular on the decaying modes
    (h A's eigenvalues in the left half plane); where a growing mode makes
    one singular, the states go non-finite and the march fails."""
    (a00, a01, a10, a11), (f0, f1) = system
    n = h.size
    f = np.empty((2, 3, n))
    f[0], f[1] = f0, f1
    ha = _RADAU_A[:, :, None] * h  # h a_ij, (3, 3, n)
    # row i: its blocks j = 0, 1, 2, then the right-hand side (I | forcing_i)
    rows = np.empty((3, 2, 9, n))
    blocks = rows[:, :, :6].reshape(3, 2, 3, 2, n)  # a view: (i, r, j, s, n)
    for (r, s), a in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                         (a00, a01, a10, a11)):
        np.multiply(ha, a, out=blocks[:, r, :, s])
    np.subtract(_IDENTITY_6, blocks, out=blocks)
    rows[:, :, 6:8] = np.eye(2)[:, :, None]
    rows[:, :, 8] = (ha[:, None, 0] * f[None, :, 0]
                     + ha[:, None, 1] * f[None, :, 1]
                     + ha[:, None, 2] * f[None, :, 2])
    for k in range(2):
        pivot = slice(2 * k, 2 * k + 2)
        factors = _product_2x2(rows[k + 1:, :, pivot],
                               _inverse_2x2(rows[k, :, pivot]))
        rows[k + 1:, :, 2 * k + 2:] -= _product_2x2(factors,
                                                    rows[k, :, 2 * k + 2:])
    return _product_2x2(_inverse_2x2(rows[2, :, 4:6]), rows[2, :, 6:])


def _product_2x2(a, b):
    """Stepwise products of 2x2 blocks (..., 2, 2, n) with (2, k, n)
    blocks, over a's leading dimensions; the sum of the two products is
    taken in place, which saves a temporary but not a rounding."""
    product = a[..., :1, :] * b[..., None, 0, :, :]
    product += a[..., 1:, :] * b[..., None, 1, :, :]
    return product


def _inverse_2x2(a):
    (a00, a01), (a10, a11) = a
    return np.array([[a11, -a01], [-a10, a00]]) / (a00 * a11 - a01 * a10)


def _chain(steps, z0, z1, out):
    """Chains the steps z -> P z + v from (z0, z1), writing the state after
    each into ``out`` (z0, z1, z0, ...).  ``steps`` holds (p00, p01, v0,
    p10, p11, v1) of each step, flat: the step order of a (2, 3, n) (P | v)
    transposed.  Plain floats: no per-step container for the collector."""
    it = iter(steps)
    i = 0
    for p00, p01, v0, p10, p11, v1 in zip(it, it, it, it, it, it):
        z0, z1 = p00 * z0 + p01 * z1 + v0, p10 * z0 + p11 * z1 + v1
        out[i], out[i + 1] = z0, z1
        i += 2


def _scaled_march(op, lam, c, toward_upper):
    """(h_hat, W_hat, sigma) with (alpha u, alpha u') = e^sigma (h_hat, W_hat),
    from u(c) = 1, (alpha u')(c) = 0; sigma' = mu is the eigenvalue of the
    frozen flux matrix [[p, 1], [q, 0]] that grows in the marching direction
    (p = b/a, q = (lambda+V)/a).  Any smooth mu keeps the transform exact;
    this one leaves h_hat and W_hat of polynomial size.  The march compares
    log h_hat and sigma."""
    s = 1.0 if toward_upper else -1.0

    def coeffs(xs):
        a, b, V = coefficient_arrays((op.a, op.b, op.V), xs)
        with np.errstate(all="ignore"):
            p = b / a
            q = (lam + V) / a
            root = s * np.hypot(p, 2.0 * np.sqrt(np.maximum(q, 0.0)))
            # the two roots multiply to -q: take the sum without cancellation
            mu = np.where(s * p >= 0.0, 0.5 * (p + root), 2.0 * q / (root - p))
        return mu, lambda sigma: ((p - mu, 1.0, q, -mu), (0.0, 0.0))

    return _Propagator(coeffs, 0, c, (1.0, 0.0), op.knots)


def _log_positive(v):
    """log v, NaN where v <= 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(v > 0.0, np.log(v), np.nan)


def _log_rho_u(op):
    """log(rho u) = sigma + log h_hat - log a on the scaled state; NaN where
    h_hat <= 0, which the exact solution never reaches."""
    def log_integrand(y, xs):
        with np.errstate(all="ignore"):
            log_a = np.log(op.a.array(xs))
        return y[2] + _log_positive(y[0]) - log_a
    return log_integrand


# ---------------------------------------------------------------------------
# endpoint conditions

def _windowed_march(op, c, endpoint, start):
    """Windowed verdict on an integral from the base point c (DomainError
    unless interior) toward ``endpoint`` (ValueError unless one of the
    operator's).  ``start(c, toward_upper)`` gives the march and the
    log-integrand ``log_integrand(y, xs)``, y being the march's states at
    the window nodes xs; the march ends the walk early by raising
    ``WindowStop``.  The verdict carries the march's count of evaluated
    coefficient points.

    At a regular endpoint (``operator.regular_endpoint``) the integral is
    finite and the walk marches to the endpoint itself; a window it splits
    is marched again from its start, and the error of the value it reads
    also covers the march's tolerance, MARCH_TOL relative."""
    c = qd.require_interior(op, c)
    if endpoint not in (op.x0, op.y0):
        raise ValueError(f"{endpoint!r} is not an endpoint of the operator")
    regular = regular_endpoint(op, c, endpoint)
    march, log_integrand = start(c, endpoint == op.y0)
    starts = {}  # the march's state at the start of each window

    def open_window(lo, hi, xs):
        if regular is not None:  # a split window starts where it did before
            march.x, march.y = lo, starts.setdefault(lo, march.y)
        return log_integrand(march.advance(xs, hi), xs)

    v = qd.windowed_verdict(endpoint, c, open_window, regular)
    if regular is not None and v.value is not None:
        v = replace(v, err=v.err + MARCH_TOL * v.value)
    return replace(v, rhs_evals=march.evals)


def endpoint_condition(op, c, lam, endpoint):
    """Verdict on divergence of the integral of rho * u toward ``endpoint``,
    u being the monotone solution marched from the base point c."""
    return _windowed_march(op, c, endpoint, lambda c, toward_upper: (
        _scaled_march(op, lam, c, toward_upper), _log_rho_u(op)))


def entrance_test(op, c, endpoint):
    """No-entrance probe for V = 0: divergence verdict for the iterated
    integral of rho(y) * J(y), J(y) = int (1/alpha) int rho.

    With r = b/a, the quadrature L = int r, K = int rho and g = alpha J
    follow K' = s rho and g' = r g + s K (s = +1 marching up, -1 down), and
    the integrand is g / a.  The march carries (K, g) = e^sigma (K_hat,
    g_hat) with sigma = log(1 + e^L), a smooth function of L; with
    sig = e^(L - sigma), the logistic of L,

        K_hat' = s sig / a - sig r K_hat
        g_hat' = s K_hat + r (1 - sig) g_hat

    and the log-integrand is sigma + log g_hat - log a.  sigma follows L
    where rho grows and stays near 0 where it decays, so both modes decay
    in the marching direction in either regime and the scaled state stays
    of moderate size; an integral that diverges meets the walk's cumulative
    cap.  V must be the constant 0; otherwise the ValidationError names the
    first point of the validation ladder where V is not 0, if there is one.
    """
    if op.V.constant != 0.0:
        bad = first_failure(probe_points(op.x0, op.y0), (op.V,),
                            lambda v: v != 0.0)
        raise ValidationError(ValidationError.NONZERO_POTENTIAL,
                              bad and bad[0],
                              "entrance test requires V to be the constant 0")

    def log_integrand(y, xs):  # log(g / a); g vanishes at the base point
        with np.errstate(all="ignore"):
            return (np.logaddexp(0.0, y[2]) + np.log(y[1])
                    - np.log(op.a.array(xs)))

    def start(c, toward_upper):
        sgn = 1.0 if toward_upper else -1.0

        def coeffs(xs):
            a, b = coefficient_arrays((op.a, op.b), xs)
            with np.errstate(all="ignore"):
                r = b / a

            def system(L):  # (K_hat, g_hat); sig, the logistic of L
                sig = np.exp(L - np.logaddexp(0.0, L))
                return ((-sig * r, 0.0, sgn, r * (1.0 - sig)),
                        (sgn * sig / a, 0.0))
            return r, system

        return (_Propagator(coeffs, 1, c, (0.0, 0.0), op.knots),
                log_integrand)

    return _windowed_march(op, c, endpoint, start)


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    kind: str                      # Unique | NotUnique | Inconclusive
    per_endpoint: tuple            # records: (lam, which, IntegralVerdict)
    lambdas: tuple
    base_point: float
    diagnostics: tuple = ()

    def to_dict(self):
        return {
            "kind": self.kind,
            "lambdas": list(self.lambdas),
            "base_point": self.base_point,
            "per_endpoint": [
                {"lambda": lam, "endpoint": which, **v.to_dict()}
                for lam, which, v in self.per_endpoint
            ],
            "diagnostics": list(self.diagnostics),
        }


def _classify_lambda(lower_v, upper_v):
    if lower_v.is_diverges and upper_v.is_diverges:
        return UNIQUE
    if lower_v.is_converges or upper_v.is_converges:
        return NOT_UNIQUE
    return INCONCLUSIVE


def uniqueness_1d(op, lam_set=(0.5, 1.0, 2.0), c=None):
    """Classify L-infinity uniqueness of a validated 1D operator: both
    endpoint integrals must diverge, for every tested lambda."""
    lam_set = tuple(float(l) for l in lam_set)
    if not lam_set or any(l <= 0.0 for l in lam_set):
        raise ValueError("lambda set must be nonempty and positive")
    if c is None:
        c = interval_center(op.x0, op.y0)
    qd.probe_scale(op, c)

    records = []
    per_lam = []
    diagnostics = []
    for lam in lam_set:
        lower_v = endpoint_condition(op, c, lam, op.x0)
        upper_v = endpoint_condition(op, c, lam, op.y0)
        records.append((lam, "lower", lower_v))
        records.append((lam, "upper", upper_v))
        per_lam.append(_classify_lambda(lower_v, upper_v))

    kinds = set(per_lam)
    if kinds == {UNIQUE}:
        kind = UNIQUE
    elif kinds == {NOT_UNIQUE}:
        kind = NOT_UNIQUE
    else:
        kind = INCONCLUSIVE
        if len(kinds - {INCONCLUSIVE}) > 1:
            diagnostics.append(
                "warning: verdicts disagree across lambda values "
                f"({dict(zip(lam_set, per_lam))}); theory predicts "
                "lambda-independence")
        else:
            diagnostics.append(f"per-lambda outcomes: {per_lam}")
    return Verdict(kind, tuple(records), lam_set, float(c), tuple(diagnostics))


# ---------------------------------------------------------------------------
# radial reduction (multidimensional sufficiency)

def radial_reduce(beta: Coefficient, d, V):
    """Comparison operator on (0, inf): a = 1/2, drift beta(r) + (d-1)/(2r),
    for the radial bound beta of :func:`operator.radial_bound`.

    The drift carries beta's knots, so the march lands on the radii of a
    sampled table.  A sampled beta is extended past its table by its last
    value; :func:`nd_verdicts` calls out verdicts that lean on the
    extension.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    geo = (d - 1) / 2.0
    b_c = Coefficient(lambda rs: beta.array(rs) + geo / rs, knots=beta.knots)
    return make_operator_1d("0.5", b_c, as_coefficient(V, "r"),
                            (0.0, math.inf), var="r")


def nd_verdicts(op_nd, lam_set=(0.5, 1.0, 2.0), seed=0):
    """Both multidimensional verdicts, ``{mode: Verdict}``, from one radial
    bound and one 1D classification of the comparison operator on (0, inf).

    ProofFaithful uses only the upper-endpoint records (what the comparison
    argument consumes); StrictTheorem demands the full 1D classification.
    Neither asserts NotUnique.  Without an override the bound is sampled at
    ``operator.RADII`` and held constant past the last radius, which both
    verdicts' diagnostics say.
    """
    from .operator import radial_bound  # looked up per call, so it can be wrapped

    op1 = radial_reduce(radial_bound(op_nd, seed=seed), op_nd.d, op_nd.V)
    c = 1.0
    v1 = uniqueness_1d(op1, lam_set, c=c)

    diagnostics = []
    if op_nd.beta_override is None:
        diagnostics.append(
            f"sampled radial bound held constant beyond r={RADII[-1]:g}; "
            "verdicts leaning on that tail carry extra risk")

    upper = tuple(rec for rec in v1.per_endpoint if rec[1] == "upper")
    proof_diag = list(diagnostics)
    if all(v.is_diverges for _, _, v in upper):
        proof_kind = UNIQUE
    else:
        proof_kind = INCONCLUSIVE
        proof_diag.append(
            "comparison integral did not certify divergence at infinity; "
            "the sufficiency theorem is one-directional, so nothing follows")
    proof = Verdict(proof_kind, upper, v1.lambdas, c, tuple(proof_diag))

    if v1.kind == NOT_UNIQUE:
        lower_conv = any(which == "lower" and v.is_converges
                         for _, which, v in v1.per_endpoint)
        if lower_conv:
            diagnostics.append("entrance boundary at 0: the literal 1D "
                               "hypothesis fails at the origin")
        diagnostics.append("1D comparison operator is not unique on (0, inf); "
                           "the ND theorem still proves nothing")
    strict = Verdict(UNIQUE if v1.kind == UNIQUE else INCONCLUSIVE,
                     v1.per_endpoint, v1.lambdas, c,
                     tuple(diagnostics) + v1.diagnostics)
    return {PROOF_FAITHFUL: proof, STRICT_THEOREM: strict}
