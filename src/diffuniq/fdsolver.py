"""Finite-volume Fokker-Planck evolution in 1D / radial form.

Flux form of d_t u = (a u)'' - (b u)' - V u:

    d_t u = d_x G - V u,      G = d_x(a u) - b u

With v = a u the face flux is G = v' - (b/a) v; faces use an
exponential-fitting weight (Chang-Cooper style), which preserves exact
discrete conservation, is positivity-friendly at large cell Peclet
number, and stays second-order accurate for smooth profiles.
The forward generator here and the central-difference backward operator of
``backward_evolve`` are both tridiagonal bands (lower, diag, upper) sharing
one theta step, u + (1 - theta) dt A u followed by a solve with
I - theta dt A (theta = 1/2 default), whose LU factor is made once per
(dt, theta) and reused.  Only ``fp_step`` falls back to theta = 1 when
theta = 1/2 breaks positivity, and counts the fallbacks on the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gridfn import whole_steps
from .operator import operator_arrays

ABSORBING, REFLECTING = "Absorbing", "Reflecting"


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on a truncation window."""

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if self.m < 16:
            raise ValueError("need at least 16 cells")
        if not self.lo < self.hi:
            raise ValueError("empty window")

    @property
    def dx(self):
        return (self.hi - self.lo) / self.m

    @property
    def centers(self):
        return self.lo + (np.arange(self.m) + 0.5) * self.dx

    @property
    def faces(self):
        return self.lo + np.arange(self.m + 1) * self.dx


@dataclass(frozen=True)
class FPState:
    grid: Grid1D
    values: np.ndarray
    t: float = 0.0
    bc: str = REFLECTING
    theta_fallbacks: int = 0  # theta = 1 steps taken by fp_step so far

    def mass(self):
        return float(np.sum(self.values) * self.grid.dx)


def gaussian_state(grid, center=0.0, var=0.1, bc=REFLECTING):
    x = grid.centers
    u = np.exp(-((x - center) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return FPState(grid, u, 0.0, bc)


def _cc_delta(w):
    """Exponential-fitting face weight: delta -> 1/2 for small w (central),
    -> 1 or 0 for strongly drifted faces (upwind)."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    out[small] = 0.5 + w[small] / 12.0
    wb = np.clip(w[~small], -700.0, 700.0)
    out[~small] = 1.0 / (1.0 - np.exp(-wb)) - 1.0 / wb
    return out


class Tridiagonal:
    """A tridiagonal operator A by its bands: ``lower`` (A[i, i-1]),
    ``diag``, ``upper`` (A[i, i+1]), on the grid points ``points``, one a
    row.

    The bands are set once, in ``__init__``: ``step`` keeps the LU factor of
    I - theta dt A for each (dt, theta) it has seen.  A DomainError names
    the first point whose row of A, of a step's matrix or of its right-hand
    side is not finite, or whose pivot is zero.
    """

    def __init__(self, lower, diag, upper, points):
        # imported here, not with the module, so that only FP solves load scipy
        from scipy.linalg.lapack import dgttrf, dgttrs

        self._dgttrf, self._dgttrs = dgttrf, dgttrs
        self.lower, self.diag, self.upper = lower, diag, upper
        self.points = points
        self._check_finite(_finite_rows(lower, diag, upper),
                           "the discretization")
        self._factors = {}  # (dt, theta) -> dgttrf factor of I - theta dt A

    def apply(self, u):
        out = self.diag * u
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        return out

    def step(self, u, dt, theta):
        """One theta step: solve (I - theta dt A) u+ = (I + (1-theta) dt A) u."""
        rhs = u + (1.0 - theta) * dt * self.apply(u)
        self._check_finite(np.isfinite(rhs), "the step's right-hand side")
        x, _ = self._dgttrs(*self._factor(dt, theta), rhs, overwrite_b=True)
        return x

    def _factor(self, dt, theta):
        factor = self._factors.get((dt, theta))
        if factor is None:
            matrix = f"I - theta dt A (theta={theta:g}, dt={dt:g})"
            with np.errstate(all="ignore"):  # a band that overflows is named
                bands = (-theta * dt * self.lower,
                         1.0 - theta * dt * self.diag,
                         -theta * dt * self.upper)
            self._check_finite(_finite_rows(*bands), matrix)
            *factor, info = self._dgttrf(*bands)
            if info > 0:  # U[info - 1, info - 1] is zero
                raise self._error(f"{matrix} is singular", info - 1)
            self._factors[(dt, theta)] = factor
        return factor

    def _check_finite(self, rows, what):
        """A DomainError at the first row that ``rows`` marks not finite."""
        if not rows.all():
            raise self._error(f"{what} is not finite", int(np.argmin(rows)))

    def _error(self, message, row):
        return DomainError(f"{message} at x={float(self.points[row])!r}")


def _finite_rows(lower, diag, upper):
    """Whether each row of the bands holds only finite numbers."""
    rows = np.isfinite(diag)
    rows[1:] &= np.isfinite(lower)
    rows[:-1] &= np.isfinite(upper)
    return rows


class Discretization(Tridiagonal):
    """Tridiagonal generator A with d_t u = A u for a fixed grid and BC.
    DomainError names the first centre or face where a coefficient is
    undefined, ValidationError the first where the operator hypotheses
    fail (``operator.operator_arrays``)."""

    @np.errstate(all="ignore")  # unchecked; Tridiagonal names a non-finite row
    def __init__(self, op, grid, bc):
        dx = grid.dx
        a_c, _, V_c = operator_arrays(op, grid.centers)
        a_f, b_f, _ = operator_arrays(op, grid.faces)
        w = (b_f / a_f) * dx          # face Peclet numbers
        delta = _cc_delta(w)

        # flux through interior face i+1/2 (between cells i and i+1):
        #   G = (a_{i+1} u_{i+1} - a_i u_i)/dx - b_f [delta a_i u_i + (1-delta) a_{i+1} u_{i+1}] / a_f
        # coefficients of u_i and u_{i+1} in G_{i+1/2}
        f = slice(1, grid.m)  # interior faces
        c_left = -a_c[:-1] / dx - b_f[f] * delta[f] * a_c[:-1] / a_f[f]
        c_right = a_c[1:] / dx - b_f[f] * (1.0 - delta[f]) * a_c[1:] / a_f[f]

        # wall faces
        if bc == REFLECTING:
            w_lo_coeff = 0.0     # G at the lo wall
            w_hi_coeff = 0.0     # G at the hi wall
        elif bc == ABSORBING:
            # ghost cell with u = 0 one dx outside each wall
            w_lo_coeff = a_c[0] / dx - b_f[0] * (1.0 - delta[0]) * a_c[0] / a_f[0]
            w_hi_coeff = -a_c[-1] / dx - b_f[-1] * delta[-1] * a_c[-1] / a_f[-1]
        else:
            raise ValueError(f"unknown boundary condition {bc!r}")

        # d_t u_i = (G_{i+1/2} - G_{i-1/2})/dx - V_i u_i
        diag = np.zeros(grid.m)
        diag[:-1] += c_left / dx       # G_{i+1/2} contribution of u_i
        diag[1:] -= c_right / dx       # -G_{i-1/2} contribution of u_i
        diag[0] -= w_lo_coeff / dx     # -G_{lo} acting on u_0
        diag[-1] += w_hi_coeff / dx    # +G_{hi} acting on u_{m-1}
        super().__init__(lower=-c_left / dx,   # -G_{i-1/2} part of u_{i-1}
                         diag=diag - V_c,
                         upper=c_right / dx,   # G_{i+1/2} part of u_{i+1}
                         points=grid.centers)


def fp_step(state, disc, dt):
    """One Crank-Nicolson step of the state's discretization ``disc``; falls
    back to implicit Euler when it breaks positivity beyond roundoff, and
    counts that on the returned state."""
    u_new = disc.step(state.values, dt, 0.5)
    fallbacks = state.theta_fallbacks
    low = np.min(u_new)
    # the floor is below 0, so a step with no negative value never falls back
    if low < 0.0 and np.min(state.values) >= 0.0:
        floor = -1e-12 * max(1e-300, float(np.max(np.abs(u_new))))
        if low < floor:
            u_new = disc.step(state.values, dt, 1.0)
            fallbacks += 1
    return FPState(state.grid, u_new, state.t + dt, state.bc, fallbacks)


def fp_solve(op, u0, T, dt, record_mass=True):
    """Repeated fp_step to time T; returns (final state, (times, masses)).
    T must be a whole number of steps ``dt`` (``gridfn.whole_steps``).
    The final state's ``theta_fallbacks`` adds this run's fallbacks to
    those of ``u0``."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    n_steps = whole_steps(T, dt)
    disc = Discretization(op, u0.grid, u0.bc)
    state = u0
    times = [state.t]
    masses = [state.mass()]
    for _ in range(n_steps):
        state = fp_step(state, disc, dt)
        if record_mass:
            times.append(state.t)
            masses.append(state.mass())
    return state, (np.asarray(times), np.asarray(masses))


class BackwardDiscretization(Tridiagonal):
    """Independent central-difference discretization of the operator itself,
    a f'' + b f' - V f, for ``backward_evolve`` (absorbing walls).
    DomainError names the first centre where a coefficient is undefined,
    ValidationError the first where the operator hypotheses fail."""

    @np.errstate(all="ignore")  # unchecked; Tridiagonal names a non-finite row
    def __init__(self, op, grid):
        dx = grid.dx
        a_c, b_c, V_c = operator_arrays(op, grid.centers)
        super().__init__(lower=(a_c / dx ** 2 - b_c / (2.0 * dx))[1:],
                         diag=-2.0 * a_c / dx ** 2 - V_c,
                         upper=(a_c / dx ** 2 + b_c / (2.0 * dx))[:-1],
                         points=grid.centers)


def backward_evolve(op, grid, values, T, dt):
    """Evolve grid values of f to time T under the backward discretization
    (absorbing walls) by Crank-Nicolson (theta = 1/2) steps, i.e.
    approximate the semigroup applied to f."""
    disc = BackwardDiscretization(op, grid)
    u = np.asarray(values, dtype=float)
    for _ in range(whole_steps(T, dt)):
        u = disc.step(u, dt, 0.5)
    return u


def probe_windows(windows, core_radius):
    """The grid of each probe window [-R, R], cells about 1/800 of the
    widest window wide, and the mask of its core cells |x| <= core_radius.
    Raises ``ValueError`` when a core holds
    no cell centre, i.e. core_radius is below half a cell."""
    dx = (2.0 * max(windows)) / 800.0
    out = []
    for R in windows:
        grid = Grid1D(-R, R, max(16, int(round(2.0 * R / dx))))
        core = np.abs(grid.centers) <= core_radius
        if not core.any():
            raise ValueError(
                f"core_radius {core_radius:g} holds no cell of the window "
                f"R={R:g} (cell width {grid.dx:.3g}); it must be at least "
                "half a cell")
        out.append((grid, core))
    return out


def bc_sensitivity_probe(op, u0, T, windows, dt=1e-3, core_radius=2.0):
    """Boundary inflow into the core region vs truncation radius.

    An entrance boundary is one from which mass can enter in finite time, and
    it is what breaks L-infinity uniqueness.  For each window
    [-R, R] the probe puts half a unit of mass in the outermost cell at each
    wall, evolves it under reflecting walls to time T (one ``fp_solve`` per
    window), and records the mass inside the core |x| <= core_radius as
    ``core_masses``.  Across an entrance the
    core mass stays O(1) however far out the walls are; otherwise it decays
    as R grows.

    ``ratios`` are successive core-mass ratios; a core mass of 0 means no
    measurable inflow and the ratio following it is reported as 0.  ``label``
    is ``boundary-sensitive`` when some ratio is >= 0.5, ``insensitive`` when
    all are <= 0.25, and ``unlabeled`` otherwise or with fewer than two
    windows.  ``theta_fallbacks`` counts the implicit-Euler fallback steps
    over all solves.

    The probe does not read ``u0``: no interior start enters the measurement,
    and the parameter stays second only for callers that pass it by position.
    The window grids come from :func:`probe_windows`, which raises
    ``ValueError`` before any solve when a core holds no cell.
    """
    core_masses, fallbacks = [], 0
    for grid, core in probe_windows(windows, core_radius):
        inflow = np.zeros(grid.m)
        inflow[[0, -1]] = 0.5 / grid.dx
        s_in, _ = fp_solve(op, FPState(grid, inflow, 0.0, REFLECTING), T, dt,
                           record_mass=False)
        core_masses.append(float(np.sum(s_in.values[core]) * grid.dx))
        fallbacks += s_in.theta_fallbacks

    ratios = [core_masses[i + 1] / core_masses[i] if core_masses[i] > 0.0
              else 0.0 for i in range(len(core_masses) - 1)]
    if ratios and max(ratios) >= 0.5:
        label = "boundary-sensitive"
    elif ratios and max(ratios) <= 0.25:
        label = "insensitive"
    else:
        label = "unlabeled"
    return {"windows": list(windows), "core_masses": core_masses,
            "ratios": ratios, "label": label, "theta_fallbacks": fallbacks}


def dump_csv(path, times, masses, final_state):
    """CSV trace of (t, mass), then the final profile (x, u), 17 significant
    digits."""
    with open(path, "w") as fh:
        fh.write("t,mass\n")
        for t, m in zip(times, masses):
            fh.write(f"{t:.17g},{m:.17g}\n")
        fh.write("x,u\n")
        for x, u in zip(final_state.grid.centers, final_state.values):
            fh.write(f"{x:.17g},{u:.17g}\n")
