"""Operator specifications: coefficient bundles, hypothesis validation,
and the radial drift lower bound for multidimensional operators.

Intervals use plain floats with ``math.inf`` encoding infinite endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import expr as ex
from .errors import DomainError, ValidationError
from .gridfn import GridFunction

class Coefficient:
    """A scalar coefficient: an expression or an elementwise array function.

    An expression is compiled once, here, into one numpy closure; a bare
    callable must already be one, mapping an array of points to the array
    of its values there.  ``array`` is the unchecked form, which the solver
    kernels call under their own ``np.errstate``: a fresh array of the
    points' shape.  ``check`` is the checked form over an array of points
    (DomainError off the domain rule of :mod:`expr`).  ``constant`` is the
    value of an expression with no free variable (None otherwise).
    ``knots`` are the points where the coefficient is known not to be
    smooth, such as the radii of a tabulated function; the endpoint march
    lands on them.
    """

    def __init__(self, fn, expr=None, var=None, knots=()):
        self.expr = expr
        self.knots = np.asarray(knots, dtype=float)
        if expr is not None:
            f = ex.compile_expr(expr)
            fn = lambda xs: f({var: xs})
        self._fn = fn

    @cached_property
    def constant(self):
        if self.expr is None or ex.free_vars(self.expr):
            return None
        with np.errstate(all="ignore"):  # the array form's bits, unchecked
            return float(self.array(np.zeros(1))[0])

    def array(self, xs):  # a fresh array of xs's shape, never xs itself
        xs = np.asarray(xs, dtype=float)
        r = np.asarray(self._fn(xs), dtype=float)
        if r is xs:  # a bare variable; every ufunc gives a new array
            return r.copy()
        return r if r.shape == xs.shape else np.full(xs.shape, r)

    def check(self, xs):
        """The values at the points ``xs``; DomainError where the domain rule
        fails at one of them."""
        return ex.checked(self.array, xs)


def as_coefficient(spec, var):
    """A coefficient from expression text or a parsed tree over ``var``, a
    number, or an array function; a Coefficient is returned as it is."""
    if isinstance(spec, Coefficient):
        return spec
    if callable(spec):
        return Coefficient(spec)
    if isinstance(spec, str):
        spec = ex.parse_expr(spec, var)
    elif isinstance(spec, (int, float)):
        spec = ex.Num(float(spec))
    return Coefficient(None, expr=spec, var=var)


@dataclass(frozen=True)
class Operator1D:
    """a(x) f'' + b(x) f' - V(x) f on the interval (x0, y0)."""

    a: Coefficient
    b: Coefficient
    V: Coefficient
    x0: float
    y0: float
    # regular_endpoint's certificates, keyed by (base point, endpoint)
    _regular: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def interior(self, x):
        return self.x0 < x < self.y0

    @property
    def knots(self):
        """The coefficients' knots, sorted, without repeats."""
        return np.unique(np.concatenate((self.a.knots, self.b.knots,
                                         self.V.knots)))


def interval_center(x0, y0):
    """The centre of the interval (x0, y0): its midpoint when both ends are
    finite, 1 inside the one finite end, else 0."""
    if math.isinf(x0) and math.isinf(y0):
        return 0.0
    if math.isinf(x0):
        return y0 - 1.0
    if math.isinf(y0):
        return x0 + 1.0
    return 0.5 * (x0 + y0)


def probe_points(x0, y0):
    """The validation ladder: marks laddered geometrically toward each
    endpoint from the interval's centre, and 512 points inside each gap
    between marks."""
    center = interval_center(x0, y0)
    j = np.arange(7.0)
    up = center + 2.0 ** j if math.isinf(y0) else y0 - (y0 - center) * 2.0 ** -(j + 1)
    down = center - 2.0 ** j if math.isinf(x0) else x0 + (center - x0) * 2.0 ** -(j + 1)
    marks = np.unique(np.concatenate(([center], up, down)))
    # open sampling: avoid the marks themselves (endpoints may be singular)
    t = (np.arange(512) + 0.5) / 512
    return (marks[:-1, None] + np.diff(marks)[:, None] * t).ravel()


def first_failure(xs, coefs, flags=None):
    """The first point x of ``xs`` where a coefficient of ``coefs`` is
    undefined or ``flags`` of their values holds, as ``(x, values, error)``:
    the values there at a flagged x, else what the checked pass of the first
    undefined coefficient over x alone raises (if that pass holds, the
    search goes on past x).  None if there is none.  One checked array pass
    per coefficient; when one raises, bisection over passes on prefixes
    finds its first undefined point, and the later coefficients and the
    flags are checked only before it."""
    xs = np.asarray(xs, dtype=float)
    while xs.size:
        end, values, failing = xs.size, [], None
        for c in coefs:
            lo, hi, n, v = 0, end + 1, end, xs[:0]  # xs[:end] is tried first
            while hi - lo > 1:  # the pass holds on xs[:lo], fails on xs[:hi]
                try:
                    v, lo = c.check(xs[:n]), n
                except (DomainError, OverflowError, ValueError):
                    hi = n
                n = (lo + hi) // 2
            if lo < end:
                end, values, failing = lo, [u[:lo] for u in values], c
            values.append(v)
        with np.errstate(all="ignore"):
            flagged = np.flatnonzero(flags(*values)) if flags else ()
        if len(flagged):
            k = flagged[0]
            return float(xs[k]), tuple(float(u[k]) for u in values), None
        if failing is None:
            return None
        try:
            failing.check(xs[end:end + 1])
        except (DomainError, OverflowError, ValueError) as exc:
            return float(xs[end]), None, exc
        xs = xs[end + 1:]
    return None


def hypotheses_fail(a, b, V):
    """Where values of a, b and V break the operator hypotheses: a > 0,
    V >= 0, and 1/a and b/a finite (the weak ellipticity requirement).
    The one rule of the validation ladder, the regular-endpoint certificate,
    the FP grids and the FK start point."""
    with np.errstate(all="ignore"):
        return (~(a > 0.0) | (V < 0.0) | ~np.isfinite(1.0 / a)
                | ~np.isfinite(b / a))


def hypothesis_error(x, values):
    """The ValidationError at the point x for its values (a, b, V), where
    :func:`hypotheses_fail` holds."""
    av, bv, vv = values
    if not (av > 0.0):
        return ValidationError(ValidationError.NEGATIVE_DIFFUSION, x,
                               f"a(x)={av!r}")
    if vv < 0.0:
        return ValidationError(ValidationError.NEGATIVE_POTENTIAL, x,
                               f"V(x)={vv!r}")
    return ValidationError(ValidationError.SINGULAR_COEFFICIENT, x,
                           f"1/a or b/a non-finite, a={av!r} b={bv!r}")


def coefficient_arrays(coefs, xs):
    """The coefficients' array forms at the points ``xs``.  Where one raises
    or is not finite, DomainError names the reason its checked form gives
    at the first bad point of ``xs.T.ravel()``: in marching order for
    (stage, step) arrays."""
    try:
        with np.errstate(all="ignore"):
            vals = [c.array(xs) for c in coefs]
        if all(np.isfinite(v).all() for v in vals):
            return vals
    except (DomainError, OverflowError, ValueError):
        pass
    bad = first_failure(xs.T.ravel(), coefs)
    raise DomainError(f"{bad[2]} at x={bad[0]:.6g}" if bad
                      else "a coefficient array is not finite")


def operator_arrays(op, xs):
    """a, b and V at the points ``xs`` (one dimension), checked: a
    DomainError as :func:`coefficient_arrays` gives where one is undefined,
    else the ValidationError of :func:`hypothesis_error` at the first point
    where the hypotheses fail."""
    values = coefficient_arrays((op.a, op.b, op.V), xs)
    bad = np.flatnonzero(hypotheses_fail(*values))
    if bad.size:
        k = bad[0]
        raise hypothesis_error(float(xs[k]), [float(v[k]) for v in values])
    return values


def regular_endpoint(op, c, endpoint):
    """Evidence that the finite ``endpoint`` is regular seen from the base
    point c, or None: a, b and V are defined and the hypotheses hold at every
    sample of [c, endpoint] and at the endpoint itself, so a, b and V are
    bounded there with a >= a_min > 0 (Feller's regular boundary), as far as
    the samples show.  The samples are the validation ladder's points in
    [c, endpoint] and the points endpoint - (endpoint - c) 2^-k (k = 0..64),
    which reach the last gap/128 the ladder leaves out.  Decided once per
    operator, base point and endpoint."""
    key = (c, endpoint)
    if key not in op._regular:
        op._regular[key] = _regular_evidence(op, c, endpoint)
    return op._regular[key]


def _regular_evidence(op, c, endpoint):
    if math.isinf(endpoint):
        return None
    ladder = probe_points(op.x0, op.y0)
    lo, hi = min(c, endpoint), max(c, endpoint)
    toward = endpoint - (endpoint - c) * 2.0 ** -np.arange(65.0)
    xs = np.unique(np.concatenate((ladder[(lo <= ladder) & (ladder <= hi)],
                                   toward, [endpoint])))
    try:
        a, b, V = (f.check(xs) for f in (op.a, op.b, op.V))
    except (DomainError, OverflowError, ValueError):
        return None
    if hypotheses_fail(a, b, V).any():
        return None
    return (f"regular endpoint (sampled): a in [{a.min():.6g}, "
            f"{a.max():.6g}], |b| <= {np.abs(b).max():.6g}, "
            f"0 <= V <= {V.max():.6g} on {xs.size - 1} points of "
            f"[{lo:.6g}, {hi:.6g}] and at {endpoint:.6g}")


def make_operator_1d(a, b, V, interval, var="x"):
    """Validate the operator hypotheses by sampling and return the bundle.

    Checks, at every point of the validation ladder: a, b and V are defined
    (the domain rule of :mod:`expr`) and :func:`hypotheses_fail` does not
    hold.  Violations raise
    ValidationError at the first failing point, found by
    :func:`first_failure`; passing means "not falsified", not "proved".
    """
    x0, y0 = float(interval[0]), float(interval[1])
    if not x0 < y0:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, interval,
                              "empty interval")
    a_c = as_coefficient(a, var)
    b_c = as_coefficient(b, var)
    V_c = as_coefficient(V, var)

    bad = first_failure(probe_points(x0, y0), (a_c, b_c, V_c), hypotheses_fail)
    if bad is not None:
        x, values, error = bad
        if error is not None:
            raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, x, str(error))
        raise hypothesis_error(x, values)
    return Operator1D(a_c, b_c, V_c, x0, y0)


@dataclass(frozen=True)
class OperatorND:
    """(1/2) Laplacian + b . grad - V(r) on R^d, d >= 2, V radial."""

    d: int
    b: tuple  # d parsed expressions over coordinates x1..xd
    V: Coefficient  # over the radius variable
    beta_override: Coefficient | None = None

    def __post_init__(self):  # compile the drift components once
        object.__setattr__(self, "_drift", tuple(
            ex.compile_expr(e) for e in self.b))

    @np.errstate(all="ignore")
    def drift_at(self, x):
        """Drift vector at points x of shape (..., d), unchecked."""
        x = np.asarray(x, dtype=float)
        env = {name: x[..., i] for i, name in enumerate(coordinate_names(self.d))}
        comps = [np.broadcast_to(np.asarray(f(env), dtype=float), x.shape[:-1])
                 for f in self._drift]
        return np.stack(comps, axis=-1)


def coordinate_names(d):
    """The coordinate identifiers x1..xd of a drift component."""
    return tuple(f"x{i+1}" for i in range(d))


def make_operator_nd(d, b_components, V, beta_override=None):
    d = int(d)
    if d < 2:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, d,
                              "dimension must be >= 2")
    names = coordinate_names(d)
    comps = [ex.parse_expr(c, *names) if isinstance(c, str) else c
             for c in b_components]
    if len(comps) != d:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, d,
                              f"need {d} drift components, got {len(comps)}")
    V_c = as_coefficient(V, "r")
    bad = first_failure(probe_points(0.0, math.inf), (V_c,), lambda v: v < 0.0)
    if bad is not None:
        r, _, error = bad
        raise error or ValidationError(ValidationError.NEGATIVE_POTENTIAL, r)
    beta_c = as_coefficient(beta_override, "r") if beta_override is not None else None
    return OperatorND(d, tuple(comps), V_c, beta_c)


# the radii where radial_bound samples and checks the bound
RADII = np.geomspace(1e-3, 256.0, 160)

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton(index, base):
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def unit_directions(n, d, seed=0):
    """First ``n`` members of a nested quasi-uniform sequence on the sphere.

    Halton points in (0,1)^d mapped through the inverse normal CDF (the
    standard library's, Wichura's AS241) and normalized.  The seed shifts the
    start index, so for a fixed seed the first n directions are a prefix of
    the first 2n.
    """
    start = 1 + int(seed) % 104729
    inv_cdf = NormalDist().inv_cdf
    g = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            u = _halton(start + i, _HALTON_PRIMES[j % len(_HALTON_PRIMES)])
            g[i, j] = inv_cdf(min(max(u, 1e-12), 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def radial_bound(op: OperatorND, seed=0):
    """beta(r), a lower bound for the radial drift component b(x).x/|x|, as
    a Coefficient over r: the override if given, checked at ``RADII``, else
    the sampled directional minimum of b(r e) . e over quasi-uniform unit
    directions e, tabulated at ``RADII``, interpolated linearly between
    them and held constant past them.  The table's radii are its knots,
    where the interpolation has its kinks."""
    if op.beta_override is not None:
        op.beta_override.check(RADII)
        return op.beta_override
    dirs = unit_directions(max(64, 2 * op.d), op.d, seed)
    radial = np.einsum("kij,ij->ki", op.drift_at(RADII[:, None, None] * dirs), dirs)
    bad = np.argwhere(~np.isfinite(radial))
    if bad.size:
        k, i = bad[0]
        raise DomainError(f"drift not finite at r={RADII[k]}, direction {dirs[i]}")
    return Coefficient(GridFunction(RADII, radial.min(axis=1)), knots=RADII)
