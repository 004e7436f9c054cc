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
W_hat stay of polynomial size.  The system keeps the flux system's
conditioning and is solved implicitly (BDF, analytic Jacobian) for strong
drifts.  The truncated series is kept as an independent cross-check.

Both integral tests share one march (``_March``, BDF window by window) and
one window helper (``_march_verdict``), which integrates a log-integrand
with Gauss-Legendre sums taken in log space and hands the increments to
``quadrature.windowed_verdict``.  Once the log of the running sum passes
log(CUM_CAP) the walk ends ``Diverges``: a true lower bound on a positive
integrand.  The endpoint test integrates rho u = exp(sigma + log h_hat -
log a) and needs no overflow guard.  The entrance test (V = 0) marches
(L, K, g), integrates g / a, and keeps a guard on K and g: K = int rho
beyond it already forces the iterated integral to diverge.

Every test takes the base point c itself.  Neither integral test needs the
scale function; only ``monotone_solution`` and ``series_partial`` call
``quadrature.log_scale`` to turn the flux back into u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp

from . import quadrature as qd
from .errors import DomainError, ValidationError
from .operator import Coefficient, Operator1D, RadialBound, SAMPLED, as_coefficient, make_operator_1d
from . import expr as ex

TOWARD_UPPER, TOWARD_LOWER = "TowardUpper", "TowardLower"
UNIQUE, NOT_UNIQUE, INCONCLUSIVE = "Unique", "NotUnique", "Inconclusive"
PROOF_FAITHFUL, STRICT_THEOREM = "ProofFaithful", "StrictTheorem"

_OVERFLOW_GUARD = 1e150


# ---------------------------------------------------------------------------
# series tables (independent cross-check oracle)

@dataclass(frozen=True)
class SeriesTable:
    direction: str
    lam: float
    xs: np.ndarray          # grid, marching away from the base point
    partial_sums: np.ndarray  # shape (N+1, len(xs)); row N is S_N
    N_max: int

    def partial(self, n):
        return self.partial_sums[n]


def series_partial(op, c, lam, direction, N, n_grid=1025):
    """Partial sums of the phi (toward upper) or psi (toward lower) series
    on a unit span from the base point c, by iterated cumulative
    quadrature, one cumulative pass per level."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    sgn = 1.0 if direction == TOWARD_UPPER else -1.0
    xs = c + sgn * np.linspace(0.0, 1.0, n_grid)

    # work in the marched coordinate t >= 0; integrals from c become
    # cumulative integrals in t for both directions
    t = np.abs(xs - c)
    L = qd.log_scale(op, c, xs)
    a_vals = op.a.array(xs)
    V_vals = op.V.array(xs)
    alpha = np.exp(L)
    rho = alpha / a_vals
    q = rho * (lam + V_vals)

    phi = np.ones_like(t)
    sums = [phi.copy()]
    for _ in range(N):
        inner = cumulative_simpson(q * phi, x=t, initial=0.0)
        phi = cumulative_simpson(inner / alpha, x=t, initial=0.0)
        sums.append(sums[-1] + phi)
    return SeriesTable(direction, lam, xs, np.vstack(sums), N)


# ---------------------------------------------------------------------------
# monotone solutions (ODE march)

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


class _March:
    """Incremental stiff-safe BDF march of y' = rhs(x, y) away from the base
    point, stopped early when a ``guarded`` component reaches the guard.
    ``nfev`` counts the right-hand-side evaluations of all segments."""

    def __init__(self, rhs, jac, x, y, guarded=()):
        self.rhs, self.jac, self.guarded = rhs, jac, guarded
        self.x_last = x
        self.y_last = np.asarray(y, dtype=float)
        self.failed = None
        self.nfev = 0

    def _guard(self, x, y):
        return _OVERFLOW_GUARD - max(abs(y[i]) for i in self.guarded)
    _guard.terminal = True
    _guard.direction = -1

    def advance(self, x_to):
        """March to x_to; returns the dense solution segment, which ends
        early with ``status == 1`` when the guard fired, or None on failure
        (the reason is left in ``failed``)."""
        try:
            sol = solve_ivp(self.rhs, (self.x_last, x_to), self.y_last,
                            method="BDF", jac=self.jac, dense_output=True,
                            rtol=1e-10, atol=1e-14,
                            events=self._guard if self.guarded else None)
        except (DomainError, OverflowError, ValueError) as exc:
            # ValueError: the solver's own state left the float range
            self.failed = str(exc)
            return None
        self.nfev += sol.nfev
        if not sol.success:
            self.failed = sol.message
            return None
        self.x_last = x_to
        self.y_last = sol.y[:, -1]
        return sol


def _scaled_march(op, lam, c, toward_upper):
    """(h_hat, W_hat, sigma) with (alpha u, alpha u') = e^sigma (h_hat, W_hat),
    from u(c) = 1, (alpha u')(c) = 0; sigma' = mu is the eigenvalue of the
    frozen flux matrix [[p, 1], [q, 0]] that grows in the marching direction
    (p = b/a, q = (lambda+V)/a).  Any smooth mu keeps the transform exact;
    this one leaves h_hat and W_hat of polynomial size."""
    s = 1.0 if toward_upper else -1.0

    def coeffs(x):
        a = op.a(x)
        p = op.b(x) / a
        q = (lam + op.V(x)) / a
        root = s * math.hypot(p, 2.0 * math.sqrt(max(q, 0.0)))
        # the two roots multiply to -q: take the sum without cancellation
        mu = 0.5 * (p + root) if s * p >= 0.0 else 2.0 * q / (root - p)
        return p, q, mu

    def rhs(x, y):
        p, q, mu = coeffs(x)
        return [(p - mu) * y[0] + y[1], q * y[0] - mu * y[1], mu]

    def jac(x, y):
        p, q, mu = coeffs(x)
        return [[p - mu, 1.0, 0.0], [q, -mu, 0.0], [0.0, 0.0, 0.0]]

    return _March(rhs, jac, c, [1.0, 0.0, 0.0])


def _log_rho_u(op):
    """log(rho u) = sigma + log h_hat - log a on the scaled state; NaN where
    h_hat <= 0, which the exact solution never reaches."""
    def log_integrand(y, xs):
        with np.errstate(invalid="ignore", divide="ignore"):
            log_h = np.where(y[0] > 0.0, np.log(y[0]), np.nan)
        return y[2] + log_h - np.log(op.a.array(xs))
    return log_integrand


def monotone_solution(op, c, lam, direction, x_end=None, n_grid=513):
    """March u away from the base point c to ``x_end`` (default: one unit
    in ``direction``); log-space table."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    c = qd.require_interior(op, c)
    if x_end is None:
        x_end = c + (1.0 if direction == TOWARD_UPPER else -1.0)
    march = _scaled_march(op, lam, c, direction == TOWARD_UPPER)
    sol = march.advance(x_end)
    if sol is None:
        raise DomainError(f"monotone solution march failed: {march.failed}")
    xs = np.linspace(c, x_end, n_grid)
    h_hat, W_hat, sigma = sol.sol(xs)
    if not np.all(h_hat > 0.0):
        raise DomainError("monotone solution march lost positivity")
    log_u = sigma + np.log(h_hat) - qd.log_scale(op, c, xs)
    return MonotoneSolution(direction, lam, xs, log_u, W_hat / h_hat)


# ---------------------------------------------------------------------------
# endpoint conditions

_LOG_GL_WEIGHTS = np.log(qd.GL_WEIGHTS)


def _march_verdict(endpoint, anchor, march, log_integrand,
                   guard_evidence=None):
    """Windowed verdict on the integral of exp(log_integrand(y, xs)) toward
    ``endpoint``, y being the dense march solution at the nodes xs: per
    window, 32-point Gauss-Legendre summed in log space, with a
    split-in-two refinement as the error estimate.  The walk ends
    ``Diverges`` once the log of the running sum passes log(cum_cap), and
    ``Inconclusive`` on a NaN log-integrand.  A fired guard certifies
    divergence with ``guard_evidence`` (formatted with ``x``).  The verdict
    carries the march's right-hand-side evaluation count."""
    log_cap = math.log(qd.CUM_CAP)
    log_total, n_windows = -math.inf, 0

    def window(lo, hi):
        nonlocal log_total, n_windows
        n_windows += 1
        sol = march.advance(hi)
        if sol is None:
            raise qd.WindowStop(
                f"ODE march failed ({march.failed}); domain truncated")
        if sol.status == 1:
            raise qd.WindowStop(guard_evidence.format(x=sol.t[-1]),
                                diverges=True)

        def log_gl(a, b):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            xs = mid + half * qd.GL_NODES
            logs = _LOG_GL_WEIGHTS + log_integrand(sol.sol(xs), xs)
            if np.isnan(logs).any():
                raise qd.WindowStop("log-integrand undefined (NaN or a "
                                    f"non-positive state) in [{a:.6g}, {b:.6g}]")
            return math.log(half) + float(np.logaddexp.reduce(logs))
        a, b = min(lo, hi), max(lo, hi)
        mid = 0.5 * (a + b)
        log_fine = float(np.logaddexp(log_gl(a, mid), log_gl(mid, b)))
        log_total = float(np.logaddexp(log_total, log_fine))
        if log_total > log_cap:
            raise qd.WindowStop(
                f"cumulative integral exceeded {qd.CUM_CAP:g} after "
                f"{n_windows} windows (log-space sum to x={hi:.6g} is "
                f"e^{log_total:.6g}; a lower bound, the integrand being "
                "positive)", diverges=True)
        fine = math.exp(log_fine)
        return fine, abs(fine - math.exp(log_gl(a, b)))

    v = qd.windowed_verdict(endpoint, anchor, window)
    return replace(v, rhs_evals=march.nfev)


def endpoint_condition(op, c, lam, endpoint):
    """Verdict on divergence of the integral of rho * u toward ``endpoint``,
    u being the monotone solution marched from the base point c."""
    c = qd.require_interior(op, c)
    if endpoint not in (op.x0, op.y0):
        raise ValueError(f"{endpoint!r} is not an endpoint of the operator")
    march = _scaled_march(op, lam, c, endpoint == op.y0)
    return _march_verdict(endpoint, c, march, _log_rho_u(op))


def entrance_test(op, c, endpoint):
    """No-entrance probe for V = 0: divergence verdict for the iterated
    integral of rho(y) * J(y), J(y) = int (1/alpha) int rho.

    Marches (L, K, g) with K = int rho, g = alpha J, so the integrand is
    g / a without exponential blowup in the decaying-speed-measure regime.
    """
    c = qd.require_interior(op, c)
    # V must vanish (sampled check)
    sgn = 1.0 if endpoint == op.y0 else -1.0
    probe_hi = c + sgn * np.linspace(1e-3, min(4.0, abs(endpoint - c) * 0.5
                                               if math.isfinite(endpoint) else 4.0),
                                     256)
    for x in probe_hi:
        if op.V(float(x)) != 0.0:
            raise ValidationError(ValidationError.NONZERO_POTENTIAL, float(x),
                                  "entrance test requires V identically zero")

    def rhs(x, y):
        L, K, g = y
        a = op.a(x)
        r = op.b(x) / a
        rho = math.exp(min(L, 700.0)) / a
        return [r, sgn * rho, r * g + sgn * K]

    def jac(x, y):
        a = op.a(x)
        r = op.b(x) / a
        rho = math.exp(min(y[0], 700.0)) / a
        return [[0.0, 0.0, 0.0], [sgn * rho, 0.0, 0.0], [0.0, sgn, r]]

    # K = int rho beyond the guard: since J is positive and nondecreasing
    # past any interior point, int rho J diverges with it
    march = _March(rhs, jac, c, [0.0, 0.0, 0.0], guarded=(1, 2))

    def log_integrand(y, xs):  # log(g / a); g vanishes at the base point
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(y[2]) - np.log(op.a.array(xs))
    return _march_verdict(
        endpoint, c, march, log_integrand,
        f"speed-measure integral exceeded {_OVERFLOW_GUARD:g} at x={{x:.6g}}")


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
        c = default_base_point(op)
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


def default_base_point(op):
    if math.isfinite(op.x0) and math.isfinite(op.y0):
        return 0.5 * (op.x0 + op.y0)
    if math.isfinite(op.x0):
        return op.x0 + 1.0
    if math.isfinite(op.y0):
        return op.y0 - 1.0
    return 0.0


# ---------------------------------------------------------------------------
# radial reduction (multidimensional sufficiency)

def radial_reduce(beta: RadialBound, d, V):
    """Comparison operator on (0, inf): a = 1/2, drift beta(r) + (d-1)/(2r).

    A sampled beta is extended past its table by its last value; the
    resulting operator is flagged so reports can call out verdicts that
    lean on the extension.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    V_c = as_coefficient(V, "r")
    half_geo = f"({d} - 1)/(2*r)"
    if beta.override is not None and beta.override.expr is not None:
        b_expr = ex.BinOp("+", beta.override.expr,
                          ex.parse_expr(half_geo, "r"))
        b_c = Coefficient.from_expr(b_expr, "r")
        extended = False
    else:
        geo = (d - 1) / 2.0
        b_c = Coefficient(lambda r, _b=beta, _g=geo: _b(r) + _g / r)
        extended = beta.provenance == SAMPLED
    op = make_operator_1d("0.5", b_c, V_c, (0.0, math.inf), var="r")
    if extended:
        op = Operator1D(op.a, op.b, op.V, op.x0, op.y0, op.var,
                        tail_extended=True)
    return op


def nd_verdicts(op_nd, lam_set=(0.5, 1.0, 2.0), r_grid=None, n_dirs=None,
                seed=0):
    """Both multidimensional verdicts, ``{mode: Verdict}``, from one radial
    bound and one 1D classification of the comparison operator on (0, inf).

    ProofFaithful uses only the upper-endpoint records (what the comparison
    argument consumes); StrictTheorem demands the full 1D classification.
    Neither asserts NotUnique.
    """
    from .operator import radial_bound

    if r_grid is None:
        r_grid = np.geomspace(1e-3, 256.0, 160)
    rb = radial_bound(op_nd, r_grid, n_dirs=n_dirs, seed=seed)
    op1 = radial_reduce(rb, op_nd.d, op_nd.V)
    c = 1.0
    v1 = uniqueness_1d(op1, lam_set, c=c)

    diagnostics = []
    if op1.tail_extended:
        diagnostics.append(
            f"sampled radial bound held constant beyond r={rb.r_max:g}; "
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


def uniqueness_nd(op_nd, lam_set=(0.5, 1.0, 2.0), mode=PROOF_FAITHFUL,
                  r_grid=None, n_dirs=None, seed=0):
    """Sufficiency verdict for the multidimensional operator via the radial
    comparison, under ``mode`` (see :func:`nd_verdicts`)."""
    if mode not in (PROOF_FAITHFUL, STRICT_THEOREM):
        raise ValueError(f"unknown mode {mode!r}")
    return nd_verdicts(op_nd, lam_set, r_grid, n_dirs, seed)[mode]
