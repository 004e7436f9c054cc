"""The operator a f'' + b f' - V f is symmetric in L^2(rho dx): the weighted
pairing <Af, g> - <f, Ag> vanishes for compactly supported smooth f, g."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from diffuniq import quadrature as Q
from diffuniq.operator import make_operator_1d

INF = math.inf

CANONICAL = [
    ("0.5", "0", "0", (-INF, INF)),
    ("1", "0", "0", (0.0, 1.0)),
    ("0.5", "-x", "0", (-INF, INF)),
    ("0.5", "-x^3", "0", (-INF, INF)),
    ("0.5", "-x^3", "x^6", (-INF, INF)),
]


def _random_spline_bump(rng, lo, hi):
    """C^2 spline with clamped (zero value, zero slope) ends inside (lo, hi)."""
    knots = np.linspace(lo, hi, 9)
    vals = rng.uniform(-1.0, 1.0, knots.size)
    vals[0] = vals[-1] = 0.0
    return CubicSpline(knots, vals, bc_type="clamped")


_GL_T, _GL_W = np.polynomial.legendre.leggauss(20)


def _pairing_defect(op, c, f, g, knots):
    # Gauss-Legendre panel per inter-knot interval: the f/g factors are
    # polynomial there, so the only quadrature error comes from smooth rho
    nodes, weights = [], []
    for a_, b_ in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
        nodes.append(mid + half * _GL_T)
        weights.append(half * _GL_W)
    xs = np.concatenate(nodes)
    w = np.concatenate(weights)

    rho = np.exp(Q.log_scale(op, c, xs)) / op.a.array(xs)
    a = op.a.array(xs)
    b = op.b.array(xs)
    V = op.V.array(xs)

    def apply(s):
        return a * s(xs, 2) + b * s(xs, 1) - V * s(xs)

    lhs = float(np.sum(apply(f) * g(xs) * rho * w))
    rhs = float(np.sum(f(xs) * apply(g) * rho * w))
    inner = float(np.sum(f(xs) * g(xs) * rho * w))
    return abs(lhs - rhs), abs(inner)


@pytest.mark.parametrize("a,b,V,iv", CANONICAL)
def test_rho_symmetry_20_random_pairs(a, b, V, iv):
    op = make_operator_1d(a, b, V, iv)
    if math.isinf(iv[0]):
        lo, hi, c = -2.5, 2.5, 0.0
    else:
        lo, hi = iv[0] + 0.1, iv[1] - 0.1
        c = 0.5 * (iv[0] + iv[1])
    rng = np.random.default_rng(7)
    knots = np.linspace(lo, hi, 9)
    for _ in range(20):
        f = _random_spline_bump(rng, lo, hi)
        g = _random_spline_bump(rng, lo, hi)
        defect, inner = _pairing_defect(op, c, f, g, knots)
        assert defect <= 1e-6 * max(1.0, inner)
