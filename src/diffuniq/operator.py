"""Operator specifications: coefficient bundles, hypothesis validation,
and the radial drift lower bound for multidimensional operators.

Intervals use plain floats with ``math.inf`` encoding infinite endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri  # inverse normal CDF, for sphere mapping

from . import expr as ex
from .errors import DomainError, ValidationError
from .gridfn import GridFunction

class Coefficient:
    """A scalar coefficient: an expression or a bare callable.

    An expression is compiled once, here, into one numpy closure.
    ``__call__`` is its checked form at one point (a float, or DomainError
    off the domain rule of :mod:`expr`), ``check`` the checked form over an
    array of points, and ``array`` the unchecked form, which the solver
    kernels call under their own ``np.errstate``.  A bare callable is its
    own ``__call__`` and may bring its own ``array`` form; without one,
    ``array`` loops over scalar calls.
    """

    def __init__(self, fn, expr=None, var=None, array=None):
        self.expr, self.var = expr, var
        if expr is None:
            self._scalar = fn
            self._array = array or (lambda xs: np.array(
                [fn(float(x)) for x in xs.ravel()]).reshape(xs.shape))
        else:
            f = ex.compile_expr(expr)
            self._scalar = lambda x: float(ex.checked(f, {var: x}))

            def array(xs):  # a fresh array of xs's shape, never xs itself
                r = np.asarray(f({var: xs}), dtype=float)
                return r.copy() if r.shape == xs.shape else np.full(xs.shape, r)
            self._array = array

    @classmethod
    def from_expr(cls, e, var):
        return cls(None, expr=e, var=var)

    @classmethod
    def constant(cls, value):
        return cls(None, expr=ex.Num(float(value)), var="_")

    def __call__(self, x):
        return self._scalar(x)

    def array(self, xs):
        return self._array(np.asarray(xs, dtype=float))

    def check(self, xs):
        """The values at the points ``xs``; DomainError where the domain rule
        fails at one of them."""
        return ex.checked(self.array, xs)

    def text(self):
        if self.expr is not None:
            return ex.format_expr(self.expr)
        return f"<callable {self._scalar!r}>"


def as_coefficient(spec, var):
    if isinstance(spec, Coefficient):
        return spec
    if isinstance(spec, str):
        return Coefficient.from_expr(ex.parse_expr(spec, var), var)
    if isinstance(spec, (int, float)):
        return Coefficient.constant(spec)
    if callable(spec):
        return Coefficient(spec)
    return Coefficient.from_expr(spec, var)  # assume parsed Expr


@dataclass(frozen=True)
class Operator1D:
    """a(x) f'' + b(x) f' - V(x) f on the interval (x0, y0)."""

    a: Coefficient
    b: Coefficient
    V: Coefficient
    x0: float
    y0: float
    var: str = "x"

    def interior(self, x):
        return self.x0 < x < self.y0

    def describe(self):
        return {
            "a": self.a.text(), "b": self.b.text(), "V": self.V.text(),
            "interval": [self.x0, self.y0], "var": self.var,
        }


def probe_points(x0, y0, per_gap=512):
    """The validation ladder: marks laddered geometrically toward each
    endpoint, and ``per_gap`` points inside each gap between marks."""
    if math.isinf(x0) and math.isinf(y0):
        center, lo_marks, hi_marks = 0.0, None, None
    elif math.isinf(x0):
        center = y0 - 1.0
    elif math.isinf(y0):
        center = x0 + 1.0
    else:
        center = 0.5 * (x0 + y0)

    marks = [center]
    for j in range(7):
        d = 2.0 ** j
        if math.isinf(y0):
            marks.append(center + d)
        else:
            marks.append(y0 - (y0 - center) * 2.0 ** (-(j + 1)))
        if math.isinf(x0):
            marks.append(center - d)
        else:
            marks.append(x0 + (center - x0) * 2.0 ** (-(j + 1)))
    marks = np.unique(np.asarray(marks))

    pts = []
    for lo, hi in zip(marks[:-1], marks[1:]):
        # open sampling: avoid the marks themselves (endpoints may be singular)
        t = (np.arange(per_gap) + 0.5) / per_gap
        pts.append(lo + (hi - lo) * t)
    return np.concatenate(pts)


def suspect_points(xs, coefs, flags=None):
    """The points of ``xs``, in order, at which to run per-point checks:
    every point when the checked pass of a coefficient of ``coefs`` over
    ``xs`` raises DomainError, else those where ``flags`` of the values is
    true (none without ``flags``).  The per-point checks then fail first
    where a loop over every point would."""
    try:
        values = [c.check(xs) for c in coefs]
    except DomainError:
        return xs.tolist()
    if flags is None:
        return []
    with np.errstate(all="ignore"):
        return xs[flags(*values)].tolist()


def make_operator_1d(a, b, V, interval, var="x"):
    """Validate the operator hypotheses by sampling and return the bundle.

    Checks, at every point of the validation ladder: a, b and V are defined
    (the domain rule of :mod:`expr`), a > 0, V >= 0, and 1/a and b/a are
    finite (the weak ellipticity requirement).  Violations raise
    ValidationError at the first failing point; passing means "not
    falsified", not "proved".
    """
    x0, y0 = float(interval[0]), float(interval[1])
    if not x0 < y0:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, interval,
                              "empty interval")
    a_c = as_coefficient(a, var)
    b_c = as_coefficient(b, var)
    V_c = as_coefficient(V, var)

    def flags(av, bv, vv):
        return (~(av > 0.0) | (vv < 0.0) | ~np.isfinite(1.0 / av)
                | ~np.isfinite(bv / av))

    for x in suspect_points(probe_points(x0, y0), (a_c, b_c, V_c), flags):
        try:
            av = a_c(x)
            bv = b_c(x)
            vv = V_c(x)
        except DomainError as exc:
            raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, x, str(exc))
        if not (av > 0.0):
            raise ValidationError(ValidationError.NEGATIVE_DIFFUSION, x,
                                  f"a(x)={av!r}")
        if vv < 0.0:
            raise ValidationError(ValidationError.NEGATIVE_POTENTIAL, x,
                                  f"V(x)={vv!r}")
        if not (math.isfinite(1.0 / av) and math.isfinite(bv / av)):
            raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, x,
                                  f"1/a or b/a non-finite, a={av!r} b={bv!r}")
    return Operator1D(a_c, b_c, V_c, x0, y0, var)


@dataclass(frozen=True)
class OperatorND:
    """(1/2) Laplacian + b . grad - V(r) on R^d, d >= 2, V radial."""

    d: int
    b: tuple  # d parsed expressions over coordinates x1..xd
    V: Coefficient  # over the radius variable
    beta_override: Coefficient | None = None
    coord_names: tuple = ()

    def __post_init__(self):  # compile the drift components once
        object.__setattr__(self, "_drift", tuple(
            ex.compile_expr(e) for e in self.b))

    @np.errstate(all="ignore")
    def drift_at(self, x):
        """Drift vector at points x of shape (..., d), unchecked."""
        x = np.asarray(x, dtype=float)
        env = {name: x[..., i] for i, name in enumerate(self.coord_names)}
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
    comps = [ex.parse_expr_multi(c, names) if isinstance(c, str) else c
             for c in b_components]
    if len(comps) != d:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, d,
                              f"need {d} drift components, got {len(comps)}")
    V_c = as_coefficient(V, "r")
    rs = probe_points(0.0, math.inf, 128)
    for r in suspect_points(rs, (V_c,), lambda v: v < 0.0):
        if V_c(r) < 0.0:
            raise ValidationError(ValidationError.NEGATIVE_POTENTIAL, r)
    beta_c = as_coefficient(beta_override, "r") if beta_override is not None else None
    return OperatorND(d, tuple(comps), V_c, beta_c, names)


SAMPLED, USER_SUPPLIED = "Sampled", "UserSupplied"


@dataclass(frozen=True)
class RadialBound:
    """Tabulated lower bound for the radial drift component b(x).x/|x|."""

    table: GridFunction
    provenance: str  # Sampled | UserSupplied
    override: Coefficient | None = None

    def __call__(self, r):
        if self.override is not None:
            return self.override(float(r))
        return float(self.table(r))

    def array(self, rs):
        """The bound at an array of radii."""
        if self.override is not None:
            return self.override.array(rs)
        return self.table(rs)

    @property
    def r_max(self):
        return self.table.x_max


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

    Halton points in (0,1)^d mapped through the inverse normal CDF and
    normalized.  The seed shifts the start index, so for a fixed seed the
    first n directions are a prefix of the first 2n.
    """
    start = 1 + int(seed) % 104729
    pts = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            u = _halton(start + i, _HALTON_PRIMES[j % len(_HALTON_PRIMES)])
            pts[i, j] = min(max(u, 1e-12), 1.0 - 1e-12)
    g = ndtri(pts)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def radial_bound(op: OperatorND, r_grid, seed=0):
    """Tabulate beta(r): the override if given, else the sampled directional
    minimum of b(r e) . e over quasi-uniform unit directions e."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2 or not np.all(np.diff(r_grid) > 0) or r_grid[0] <= 0.0:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, r_grid,
                              "radii must be positive and increasing")
    if op.beta_override is not None:
        vals = op.beta_override.check(r_grid)
        return RadialBound(GridFunction(r_grid, vals), USER_SUPPLIED,
                           op.beta_override)
    dirs = unit_directions(max(64, 2 * op.d), op.d, seed)
    vals = np.empty_like(r_grid)
    for k, r in enumerate(r_grid):
        pts = r * dirs
        drift = op.drift_at(pts)
        radial = np.einsum("ij,ij->i", drift, dirs)
        if not np.all(np.isfinite(radial)):
            bad = dirs[np.argmax(~np.isfinite(radial))]
            raise DomainError(f"drift not finite at r={r}, direction {bad}")
        vals[k] = radial.min()
    return RadialBound(GridFunction(r_grid, vals), SAMPLED)
