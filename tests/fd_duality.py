"""Duality oracle for the finite-volume solver, shared by its unit tests.

The forward (Fokker-Planck) discretization and the independent backward
one must be adjoint up to discretization error: <P_T* g, f> = <g, P_T f>.
"""

import numpy as np

from diffuniq.fdsolver import ABSORBING, Discretization, Grid1D, backward_evolve
from diffuniq.gridfn import whole_steps


def duality_check(op, f, g, T, dt, grid=None):
    """|<forward-evolved g, f> - <g, backward-evolved f>| on a shared grid,
    both evolved by Crank-Nicolson steps with absorbing walls.

    f, g: functions on arrays of points (a GridFunction's ``zero_outside``,
    say), supported well inside the window.
    """
    if grid is None:
        grid = Grid1D(-8.0, 8.0, 800)
    fv, gv = (np.asarray(h(grid.centers), dtype=float) for h in (f, g))
    forward = Discretization(op, grid, ABSORBING)
    gf = gv
    for _ in range(whole_steps(T, dt)):
        gf = forward.step(gf, dt, 0.5)
    fb = backward_evolve(op, grid, fv, T, dt)
    pair_fwd = float(np.sum(gf * fv) * grid.dx)
    pair_bwd = float(np.sum(gv * fb) * grid.dx)
    return abs(pair_fwd - pair_bwd)
