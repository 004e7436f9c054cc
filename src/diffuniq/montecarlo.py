"""Feynman-Kac semigroup estimation by killed-diffusion simulation.

Euler-Maruyama paths with diffusion sqrt(2 a) in 1D (unit Brownian term in
R^d, where the generator fixes the Laplacian coefficient at 1/2), killing
accumulated as the weight exp(-int V) by trapezoid along the path, and a
finite-radius explosion surrogate.

Path i draws its increments from a counter-based stream derived from
(seed, i) (a jumped Philox state), so estimates are reproducible and
independent of how paths are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .gridfn import GridFunction
from .operator import Operator1D

R_EXPLODE_DEFAULT = 1e6
GUARD_BAND = 1e-9  # relative band beyond a finite interval endpoint
_W_FLOOR = 1e-300


@dataclass(frozen=True)
class PathOutcome:
    terminal: float | np.ndarray | None  # None when exploded
    weight: float
    exploded: bool
    exit_time: float | None = None


@dataclass(frozen=True)
class FKEstimate:
    mean: float
    stderr: float
    n_paths: int
    explosion_fraction: float

    def to_dict(self):
        return {"mean": self.mean, "stderr": self.stderr,
                "n_paths": self.n_paths,
                "explosion_fraction": self.explosion_fraction}


def _path_rng(seed, i):
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(int(i)))


def _exploded_1d(x, op, r_explode):
    if abs(x) > r_explode:
        return True
    if math.isfinite(op.x0) and x < op.x0 - GUARD_BAND * max(1.0, abs(op.x0)):
        return True
    if math.isfinite(op.y0) and x > op.y0 + GUARD_BAND * max(1.0, abs(op.y0)):
        return True
    return False


def simulate_path(op, x0, T, dt, seed=0, path_index=0,
                  r_explode=R_EXPLODE_DEFAULT):
    """One Euler-Maruyama path; explosion is data, not an error."""
    rng = _path_rng(seed, path_index)
    n_steps = int(round(T / dt)) if T > 0.0 else 0
    if isinstance(op, Operator1D):
        x = float(x0)
        v_prev = op.V(x)
        vint = 0.0
        t = 0.0
        for _ in range(n_steps):
            xi = rng.standard_normal()
            x = x + op.b(x) * dt + math.sqrt(2.0 * op.a(x) * dt) * xi
            t += dt
            if _exploded_1d(x, op, r_explode):
                return PathOutcome(None, max(math.exp(-vint), 0.0), True, t)
            v_new = op.V(x)
            vint += 0.5 * (v_prev + v_new) * dt
            v_prev = v_new
        w = math.exp(-vint)
        return PathOutcome(x, w if w >= _W_FLOOR else 0.0, False)

    # multidimensional: unit Brownian term, radial potential
    x = np.asarray(x0, dtype=float)
    r = float(np.linalg.norm(x))
    v_prev = op.V(r)
    vint = 0.0
    t = 0.0
    for _ in range(n_steps):
        xi = rng.standard_normal(op.d)
        x = x + op.drift_at(x) * dt + math.sqrt(dt) * xi
        t += dt
        r = float(np.linalg.norm(x))
        if r > r_explode:
            return PathOutcome(None, max(math.exp(-vint), 0.0), True, t)
        v_new = op.V(r)
        vint += 0.5 * (v_prev + v_new) * dt
        v_prev = v_new
    w = math.exp(-vint)
    return PathOutcome(x, w if w >= _W_FLOOR else 0.0, False)


def _terminal_function(f):
    if isinstance(f, GridFunction):
        return f.zero_outside
    if isinstance(f, str):
        raise TypeError("pass a parsed expression or GridFunction, not text")
    if callable(f):
        return f
    names = ex.free_vars(f)
    name = next(iter(names)) if names else "_"
    fn = ex.compile_expr(f, vectorized=True)
    return lambda x: fn({name: np.asarray(x)})


def feynman_kac(op, f, T, x0, n_paths, dt, seed=0,
                r_explode=R_EXPLODE_DEFAULT, block=2048):
    """Monte Carlo estimate of E[ 1_survived f(X_T) exp(-int_0^T V) ].

    Exploded paths contribute zero (consistent with compactly supported f).
    Deterministic for a fixed (seed, n_paths, dt); batching does not change
    the result because streams are keyed per path.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    if not isinstance(op, Operator1D):
        raise NotImplementedError("vectorized estimation is 1D; use "
                                  "simulate_path for ND paths")
    fterm = _terminal_function(f)
    n_steps = int(round(T / dt)) if T > 0.0 else 0
    contribs = np.empty(n_paths)
    exploded_total = 0

    for start in range(0, n_paths, block):
        nb = min(block, n_paths - start)
        # per-path streams stacked into a (nb, n_steps) increment table
        xi = np.empty((nb, n_steps)) if n_steps else np.zeros((nb, 0))
        for j in range(nb):
            rng = _path_rng(seed, start + j)
            if n_steps:
                xi[j] = rng.standard_normal(n_steps)
        x = np.full(nb, float(x0))
        alive = np.ones(nb, dtype=bool)
        vint = np.zeros(nb)
        v_prev = op.V.array(x)
        sdt = math.sqrt(dt)
        for k in range(n_steps):
            bx = op.b.array(x)
            ax = op.a.array(x)
            x = np.where(alive, x + bx * dt + np.sqrt(2.0 * ax) * sdt * xi[:, k], x)
            out = np.abs(x) > r_explode
            if math.isfinite(op.x0):
                out |= x < op.x0 - GUARD_BAND * max(1.0, abs(op.x0))
            if math.isfinite(op.y0):
                out |= x > op.y0 + GUARD_BAND * max(1.0, abs(op.y0))
            newly = alive & out
            alive &= ~out
            v_new = op.V.array(x)
            vint = np.where(alive, vint + 0.5 * (v_prev + v_new) * dt, vint)
            v_prev = v_new
        w = np.exp(-np.minimum(vint, 700.0))
        w[w < _W_FLOOR] = 0.0
        vals = np.where(alive, np.asarray(fterm(x), dtype=float) * w, 0.0)
        contribs[start:start + nb] = vals
        exploded_total += int(np.sum(~alive))

    mean = float(np.sum(contribs) / n_paths)  # pairwise summation
    var = float(np.sum((contribs - mean) ** 2) / max(1, n_paths - 1))
    stderr = math.sqrt(var / n_paths)
    return FKEstimate(mean, stderr, n_paths, exploded_total / n_paths)


def coupled_radial_comparison(op_nd, beta_fn, x0, T, dt, seed=0, n_paths=100):
    """Couple ND paths with the 1D radial comparison diffusion on the same
    radially projected Brownian increments; returns per-step margins
    radius_nd - radius_1d for each path (shape (n_paths, n_steps))."""
    d = op_nd.d
    n_steps = int(round(T / dt))
    margins = np.empty((n_paths, n_steps))
    geo = (d - 1) / 2.0
    for i in range(n_paths):
        rng = _path_rng(seed, i)
        x = np.asarray(x0, dtype=float).copy()
        r1 = float(np.linalg.norm(x))
        for k in range(n_steps):
            xi = rng.standard_normal(d)
            e = x / max(np.linalg.norm(x), 1e-300)
            dw_rad = float(e @ xi) * math.sqrt(dt)
            x = x + op_nd.drift_at(x) * dt + math.sqrt(dt) * xi
            r1 = r1 + (beta_fn(r1) + geo / r1) * dt + dw_rad
            margins[i, k] = float(np.linalg.norm(x)) - r1
    return margins
