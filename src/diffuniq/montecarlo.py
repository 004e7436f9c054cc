"""Feynman-Kac semigroup estimation by killed-diffusion simulation.

One Euler-Maruyama block kernel steps every path of a 1D operator:
diffusion sqrt(2 a), killing accumulated as the weight exp(-int V) by
trapezoid along the path, and a finite-radius explosion surrogate.  A path
that leaves keeps only its survival flag: the estimate reads no other state
of it.  ``feynman_kac`` runs the kernel block by block.

Path i draws its increments from a counter-based stream keyed by (seed, i):
Philox with key ``seed`` started at counter word 2 = i, the state that
``Philox(key=seed).jumped(i)`` reaches, since a jump adds 2^128 to the
256-bit counter.  A block builds one Philox and sets it to path i's counter
before path i's draws.  Estimates are therefore reproducible and independent
of how paths are batched.  A block draws each path's normals one chunk of up
to ``_CHUNK`` steps at a time, ``_TILE`` paths into a path-major tile, and
copies each tile into a step-major table, so every step reads its normals as
one contiguous row.  A coefficient with no free variable
(``Coefficient.constant``) is stepped as one float, the value each entry of
its array form would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import whole_steps
from .operator import Operator1D

R_EXPLODE_DEFAULT = 1e6
GUARD_BAND = 1e-9  # relative band beyond a finite interval endpoint
_W_FLOOR = 1e-300
_CHUNK = 512  # steps of normals held per path; bounds the table's memory
_BLOCK = 2048  # paths stepped together by one _em_block call
_TILE = 256  # paths drawn per copy into the normal table (1 MB of normals)


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


@np.errstate(all="ignore")  # unchecked coefficients: one error state per block
def _em_block(op, x0, n_steps, dt, seed, first, n, r_explode):
    """Euler-Maruyama for paths ``first .. first+n-1`` of ``seed``.

    A path leaves when it passes ``r_explode`` in absolute value or a finite
    interval endpoint by more than the guard band.  Returns the end points,
    the survival mask and int V, each of shape (n,).  Every path takes every
    step, in place and in the float order of ``x + b(x) * dt + sqrt(2 a(x))
    * sqrt(dt) * z``, so a path that left steps on: its end point and int V
    are unspecified.
    """
    sdt = math.sqrt(dt)
    a = op.a.constant
    if a is None:
        diffusion = lambda x: np.sqrt(2.0 * op.a.array(x)) * sdt
    else:  # the same float as each entry of the array form
        scale = math.sqrt(2.0 * a) * sdt
        diffusion = lambda x: scale
    # |x| > r_explode is x < -r_explode or x > r_explode, for NaN and inf too
    lo = max(op.x0 - GUARD_BAND * max(1.0, abs(op.x0)), -r_explode)
    hi = min(op.y0 + GUARD_BAND * max(1.0, abs(op.y0)), r_explode)
    v = op.V.constant
    kill = None if v is None else 0.5 * (v + v) * dt  # constant V's increment
    # one generator for the block, set to path i's counter before its draws
    # (from a start state of plain ints, which the setter reads fastest);
    # past one chunk each path's state is kept between its fills
    bitgen = np.random.Philox(key=int(seed))
    rng = np.random.Generator(bitgen)
    start = bitgen.state
    start["state"] = {key: words.tolist()
                      for key, words in start["state"].items()}
    start["buffer"] = start["buffer"].tolist()
    counter = start["state"]["counter"]
    states = [None] * n
    # the chunk's normals, step-major: step k reads row k % _CHUNK whole.
    # A generator fills only contiguous arrays, so a path's chunk is drawn
    # into a row of the path-major tile, which is copied in transposed
    width = min(n_steps, _CHUNK)
    xi = np.empty((width, n))
    tile = np.empty((min(n, _TILE), width))
    x = np.full(n, x0, dtype=float)
    # each path's extremes over its steps; fmin and fmax pass over a NaN, so
    # a NaN path stays alive
    low, high = np.full(n, math.inf), np.full(n, -math.inf)
    vint = np.zeros(n)
    v_prev = op.V.array(x) if v is None else v
    noise = np.empty(n)
    for k in range(n_steps):
        if k % _CHUNK == 0:
            for j0 in range(0, n, len(tile)):
                rows = tile[:n - j0]
                for j, row in enumerate(rows, start=j0):
                    if k == 0:
                        counter[2] = first + j
                        bitgen.state = start
                    else:
                        bitgen.state = states[j]
                    rng.standard_normal(out=row)
                    if n_steps - k > _CHUNK:
                        states[j] = bitgen.state
                xi[:, j0:j0 + len(rows)] = rows.T
        # coefficient arrays are fresh, so the drift's can hold drift * dt
        step = op.b.array(x)
        step *= dt
        np.multiply(diffusion(x), xi[k % _CHUNK], out=noise)
        x += step
        x += noise
        np.fmin(low, x, out=low)
        np.fmax(high, x, out=high)
        if v != 0.0:  # V == 0 adds nothing
            if v is None:
                v_new = op.V.array(x)
                v_prev += v_new
                v_prev *= 0.5
                v_prev *= dt
                inc, v_prev = v_prev, v_new
            else:
                inc = kill
            vint += inc
    return x, (low >= lo) & (high <= hi), vint


def _weights(vint):
    w = np.exp(-np.minimum(vint, 700.0))
    w[w < _W_FLOOR] = 0.0
    return w


def feynman_kac(op, f, T, x0, n_paths, dt, seed=0,
                r_explode=R_EXPLODE_DEFAULT):
    """Monte Carlo estimate of E[ 1_survived f(X_T) exp(-int_0^T V) ] for
    an ``Operator1D``.

    ``f`` maps an (n,) array of end points to their values, evaluated
    unchecked: an expression's ``Coefficient.array``, or a GridFunction's
    ``zero_outside``.  Exploded paths contribute zero (consistent with
    compactly supported f).
    Deterministic for a fixed (seed, n_paths, dt); batching does not change
    the result because streams are keyed per path.  T must be a whole
    number of steps ``dt`` (``gridfn.whole_steps``).
    """
    if not isinstance(op, Operator1D):
        raise TypeError("feynman_kac takes a 1D operator")
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    n_steps = whole_steps(T, dt)
    contribs = np.empty(n_paths)
    exploded_total = 0
    for start in range(0, n_paths, _BLOCK):
        nb = min(_BLOCK, n_paths - start)
        x, alive, vint = _em_block(op, x0, n_steps, dt, seed, start, nb,
                                   r_explode)
        # a left path's x and int V are anything, NaN and inf included
        with np.errstate(all="ignore"):
            fx = np.asarray(f(x), dtype=float)
            w = fx * _weights(vint)
        contribs[start:start + nb] = np.where(alive, w, 0.0)
        exploded_total += int(np.sum(~alive))

    mean = float(np.sum(contribs) / n_paths)  # pairwise summation
    var = float(np.sum((contribs - mean) ** 2) / max(1, n_paths - 1))
    stderr = math.sqrt(var / n_paths)
    return FKEstimate(mean, stderr, n_paths, exploded_total / n_paths)
