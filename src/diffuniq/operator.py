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

N_VAL_DEFAULT = 512


class Coefficient:
    """A scalar coefficient: an expression or a bare callable.

    An expression is compiled once, here: ``__call__`` is its scalar form
    with full domain checking, ``array`` its vectorized fast path.
    """

    def __init__(self, fn, expr=None, var=None):
        self.expr, self.var = expr, var
        if expr is None:
            self._scalar = fn
            self._array = lambda xs: np.array(
                [fn(float(x)) for x in xs.ravel()]).reshape(xs.shape)
        else:
            scalar, vector = ex.compile_expr(expr), ex.compile_expr(expr, True)
            self._scalar = lambda x: scalar({var: x})
            self._array = lambda xs: np.broadcast_to(
                np.asarray(vector({var: xs}), dtype=float), xs.shape).copy()

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
    tail_extended: bool = False  # b built from a tabulated bound held constant past its table

    def interior(self, x):
        return self.x0 < x < self.y0

    def describe(self):
        return {
            "a": self.a.text(), "b": self.b.text(), "V": self.V.text(),
            "interval": [self.x0, self.y0], "var": self.var,
        }


def _probe_points(x0, y0, n_val):
    """Deterministic sample points, laddered geometrically toward each endpoint."""
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
        t = (np.arange(n_val) + 0.5) / n_val
        pts.append(lo + (hi - lo) * t)
    return np.concatenate(pts)


def make_operator_1d(a, b, V, interval, var="x", n_val=N_VAL_DEFAULT):
    """Validate the operator hypotheses by sampling and return the bundle.

    Checks, at every sample point: a > 0, V >= 0, and finiteness of 1/a and
    b/a (the weak ellipticity requirement).  Violations raise
    ValidationError; passing means "not falsified", not "proved".
    """
    x0, y0 = float(interval[0]), float(interval[1])
    if not x0 < y0:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, interval,
                              "empty interval")
    a_c = as_coefficient(a, var)
    b_c = as_coefficient(b, var)
    V_c = as_coefficient(V, var)

    for x in _probe_points(x0, y0, n_val):
        x = float(x)
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
            ex.compile_expr(e, vectorized=True) for e in self.b))

    def drift_at(self, x):
        """Drift vector at points x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        env = {name: x[..., i] for i, name in enumerate(self.coord_names)}
        comps = [np.broadcast_to(np.asarray(f(env), dtype=float), x.shape[:-1])
                 for f in self._drift]
        return np.stack(comps, axis=-1)


def make_operator_nd(d, b_components, V, beta_override=None, n_val=N_VAL_DEFAULT):
    d = int(d)
    if d < 2:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, d,
                              "dimension must be >= 2")
    names = tuple(f"x{i+1}" for i in range(d))
    comps = []
    for comp in b_components:
        if isinstance(comp, str):
            comps.append(ex.parse_expr_multi(comp, names))
        else:
            comps.append(comp)
    if len(comps) != d:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, d,
                              f"need {d} drift components, got {len(comps)}")
    V_c = as_coefficient(V, "r")
    for r in _probe_points(0.0, math.inf, n_val // 4):
        if V_c(float(r)) < 0.0:
            raise ValidationError(ValidationError.NEGATIVE_POTENTIAL, float(r))
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


def radial_bound(op: OperatorND, r_grid, n_dirs=None, seed=0):
    """Tabulate beta(r): the override if given, else the sampled directional
    minimum of b(r e) . e over quasi-uniform unit directions e."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2 or not np.all(np.diff(r_grid) > 0) or r_grid[0] <= 0.0:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, r_grid,
                              "radii must be positive and increasing")
    if op.beta_override is not None:
        vals = np.array([op.beta_override(float(r)) for r in r_grid])
        return RadialBound(GridFunction(r_grid, vals), USER_SUPPLIED,
                           op.beta_override)
    if n_dirs is None:
        n_dirs = max(64, 2 * op.d)
    if n_dirs < 2 * op.d:
        raise ValidationError(ValidationError.SINGULAR_COEFFICIENT, n_dirs,
                              f"need at least {2*op.d} directions")
    dirs = unit_directions(n_dirs, op.d, seed)
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
