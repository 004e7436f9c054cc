import math

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from diffuniq import fdsolver as FD, uniqueness as U
from diffuniq.errors import DomainError
from diffuniq.gridfn import GridFunction, whole_steps
from diffuniq.operator import make_operator_1d
from fd_duality import duality_check

INF = math.inf


def test_grid_basics():
    g = FD.Grid1D(-2.0, 2.0, 100)
    assert g.dx == pytest.approx(0.04)
    assert g.centers.size == 100
    assert g.centers[0] == pytest.approx(-2.0 + 0.02)
    with pytest.raises(ValueError):
        FD.Grid1D(0.0, 1.0, 8)  # below the minimum cell count


def test_mass_conserved_reflecting():
    # arbitrary validated drift, V=0: exact telescoping conservation
    op = make_operator_1d("0.5", "-x + sin(x)", "0", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    s0 = FD.gaussian_state(g, 0.3, 0.2)
    fin, (_, masses) = FD.fp_solve(op, s0, 1.0, 1e-3)
    assert abs(masses[-1] - masses[0]) <= 1e-10
    assert fin.t == pytest.approx(1.0)


def test_constant_killing_exponential():
    op = make_operator_1d("0.5", "0", "1", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    s0 = FD.gaussian_state(g, 0.0, 0.1)
    _, (_, masses) = FD.fp_solve(op, s0, 1.0, 1e-3)
    assert masses[-1] / masses[0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_killing_after_100_steps():
    op = make_operator_1d("0.5", "0", "1", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    s0 = FD.gaussian_state(g, 0.0, 0.1)
    _, (_, masses) = FD.fp_solve(op, s0, 0.1, 1e-3)
    assert masses[-1] / masses[0] == pytest.approx(math.exp(-0.1), abs=1e-6)


def test_ou_variance_relaxation():
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    fin, _ = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 0.1), 1.0, 1e-3)
    x = g.centers
    var = float(np.sum(fin.values * x * x) / np.sum(fin.values))
    pred = 0.5 * (1.0 - math.exp(-2.0)) + 0.1 * math.exp(-2.0)
    assert var == pytest.approx(pred, abs=5e-4)


def test_positivity():
    op = make_operator_1d("0.5", "-x^3", "0", (-INF, INF))
    g = FD.Grid1D(-6.0, 6.0, 600)
    fin, _ = FD.fp_solve(op, FD.gaussian_state(g, 1.0, 0.05), 0.5, 1e-3)
    assert float(fin.values.min()) >= -1e-12 * float(fin.values.max())


def test_absorbing_loses_mass():
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    g = FD.Grid1D(-2.0, 2.0, 200)
    s0 = FD.gaussian_state(g, 0.0, 0.5, FD.ABSORBING)
    _, (_, masses) = FD.fp_solve(op, s0, 1.0, 1e-3)
    assert masses[-1] < 0.9 * masses[0]


def test_second_order_spatial_convergence():
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    pred = 0.5 * (1.0 - math.exp(-2.0)) + 0.1 * math.exp(-2.0)
    errs = []
    for m in (100, 200, 400):
        g = FD.Grid1D(-8.0, 8.0, m)
        fin, _ = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 0.1), 1.0, 2.5e-4)
        x = g.centers
        var = float(np.sum(fin.values * x * x) / np.sum(fin.values))
        errs.append(abs(var - pred))
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(4.0, rel=0.30)


def _bump(center=0.0, width=2.0, n=401):
    xs = np.linspace(center - width, center + width, n)
    t = (xs - center) / width
    vals = np.exp(-1.0 / np.maximum(1.0 - t * t, 1e-12)) * (np.abs(t) < 1.0)
    return GridFunction(xs, vals).zero_outside


def test_duality_self_adjoint_case():
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    f = _bump()
    assert duality_check(op, f, f, 0.5, 1e-3) <= 1e-6


def test_duality_ou():
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    d = duality_check(op, _bump(), _bump(0.8, 1.5), 0.5, 1e-3)
    assert d <= 5e-4


def test_duality_shrinks_second_order():
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    f, g = _bump(), _bump(0.8, 1.5)
    d1 = duality_check(op, f, g, 0.5, 5e-4, grid=FD.Grid1D(-8, 8, 400))
    d2 = duality_check(op, f, g, 0.5, 5e-4, grid=FD.Grid1D(-8, 8, 800))
    assert d1 / d2 == pytest.approx(4.0, rel=0.5)


def test_duality_constant_killing_commutes():
    op0 = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    op1 = make_operator_1d("0.5", "-x", "1", (-INF, INF))
    f, g = _bump(), _bump(0.8, 1.5)
    d0 = duality_check(op0, f, g, 0.5, 1e-3)
    d1 = duality_check(op1, f, g, 0.5, 1e-3)
    # V = const multiplies both pairings by e^{-VT}; discrepancy scales along
    assert d1 == pytest.approx(math.exp(-0.5) * d0, rel=1e-3, abs=1e-9)


def test_probe_regular_interval_O1():
    # heat equation truncated at the interval itself: the unit of wall mass
    # reaches the core [-0.4, 0.4] at O(1) by T = 0.3 (measured 0.80; the
    # bound keeps a factor-two margin)
    op = make_operator_1d("0.5", "0", "0", (-0.5, 0.5))
    u0 = _bump(0.0, 0.35)
    tab = FD.bc_sensitivity_probe(op, u0, 0.3, [0.5], core_radius=0.4)
    assert tab["core_masses"][0] > 0.4


def test_probe_makes_one_solve_per_window(monkeypatch):
    calls, fallbacks = [], []
    solve = FD.fp_solve

    def counted(*args, **kwargs):
        calls.append(args[1].bc)
        final, trace = solve(*args, **kwargs)
        fallbacks.append(final.theta_fallbacks)
        return final, trace
    monkeypatch.setattr(FD, "fp_solve", counted)
    op = make_operator_1d("0.5", "-x^3", "0", (-INF, INF))
    tab = FD.bc_sensitivity_probe(op, None, 0.2, [4.0, 6.0, 8.0])
    assert calls == [FD.REFLECTING] * 3
    assert len(tab["core_masses"]) == 3
    # the wall spike on a steep inward drift needs implicit-Euler steps
    assert tab["theta_fallbacks"] == sum(fallbacks) > 0


def test_probe_brownian_insensitive():
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    tab = FD.bc_sensitivity_probe(op, _bump(0.0, 1.5), 1.0, [4.0, 6.0, 8.0])
    assert tab["label"] == "insensitive"
    assert all(r <= 0.25 for r in tab["ratios"])


def test_probe_separates_entrance_from_exit():
    # b=-x^5: entrance at +-inf; b=+x^3: exit at +-inf
    for b, label, verdict in [("-x^5", "boundary-sensitive", U.NOT_UNIQUE),
                              ("x^3", "insensitive", U.UNIQUE)]:
        op = make_operator_1d("0.5", b, "0", (-INF, INF))
        tab = FD.bc_sensitivity_probe(op, _bump(0.0, 1.5), 1.0,
                                      [4.0, 6.0, 8.0])
        assert tab["label"] == label, b
        assert U.uniqueness_1d(op, (1.0,)).kind == verdict, b


def test_probe_rejects_core_without_cells():
    # windows [4, 8] get cells 0.02 wide centred at +-0.01: a core radius of
    # 1e-4 holds none, and the probe must say so before any solve
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    with pytest.raises(ValueError, match="half a cell"):
        FD.bc_sensitivity_probe(op, _bump(0.0, 1.5), 1.0, [4.0, 8.0],
                                core_radius=1e-4)


def test_theta_fallbacks_counted():
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    # a smooth start at the default step needs no implicit-Euler step
    fin, _ = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 0.1), 0.1, 1e-3)
    assert fin.theta_fallbacks == 0
    # a spike narrower than a cell at dt a / dx^2 = 12.5: the first
    # Crank-Nicolson step goes negative and falls back once
    fin, _ = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 1e-4), 0.1, 1e-2)
    assert fin.theta_fallbacks == 1
    assert float(fin.values.min()) >= 0.0


class _FixedSteps:
    """A discretization whose theta step returns a given array per theta and
    records the thetas it was asked for."""

    def __init__(self, crank_nicolson, implicit_euler):
        self.out = {0.5: crank_nicolson, 1.0: implicit_euler}
        self.thetas = []

    def step(self, u, dt, theta):
        self.thetas.append(theta)
        return self.out[theta]


@pytest.mark.parametrize("start, dip, fallbacks", [
    (1.0, -0.5e-12, 0),  # a dip within the roundoff floor -1e-12 max|u+|
    (1.0, -2e-12, 1),    # a dip past it
    (-1.0, -0.5, 0),     # a start that is already negative
])
def test_fp_step_fallback_rule(start, dip, fallbacks):
    crank_nicolson, implicit_euler = np.ones(16), np.full(16, 0.5)
    crank_nicolson[3] = dip
    values = np.ones(16)
    values[0] = start
    disc = _FixedSteps(crank_nicolson, implicit_euler)
    state = FD.FPState(FD.Grid1D(0.0, 1.0, 16), values, 0.0, FD.REFLECTING, 2)
    new = FD.fp_step(state, disc, 1e-3)
    assert disc.thetas == [0.5, 1.0][:1 + fallbacks]
    assert new.theta_fallbacks == 2 + fallbacks
    assert new.values is (implicit_euler if fallbacks else crank_nicolson)


def _banded_step(disc, u, dt, theta):
    """The theta step by one banded solve, the matrix rebuilt each call."""
    ab = np.zeros((3, disc.diag.size))
    ab[0, 1:] = -theta * dt * disc.upper
    ab[1, :] = 1.0 - theta * dt * disc.diag
    ab[2, :-1] = -theta * dt * disc.lower
    return solve_banded((1, 1), ab, u + (1.0 - theta) * dt * disc.apply(u))


def test_factored_step_matches_banded_solve(monkeypatch):
    # a Tridiagonal resolves LAPACK's dgttrf when it is built: count the
    # factorizations there
    factors = []
    dgttrf = lapack.dgttrf
    monkeypatch.setattr(lapack, "dgttrf",
                        lambda *a: factors.append(1) or dgttrf(*a))
    op = make_operator_1d("0.5", "-x^3", "0", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 800)
    u0 = FD.gaussian_state(g, 0.5, 0.3).values
    for disc in (FD.Discretization(op, g, FD.REFLECTING),
                 FD.Discretization(op, g, FD.ABSORBING),
                 FD.BackwardDiscretization(op, g)):
        factors.clear()
        for theta in (0.5, 1.0):
            for dt in (1e-3, 4e-3, 1e-3):  # the last reuses the first factor
                u = u0
                for _ in range(3):
                    want = _banded_step(disc, u, dt, theta)
                    u = disc.step(u, dt, theta)
                    assert u.tobytes() == want.tobytes(), (theta, dt)
        assert len(factors) == 4  # one per (dt, theta)
        bad = u0.copy()
        bad[100] = np.nan
        message = (f"^the step's right-hand side is not finite at "
                   f"x={float(g.centers[99])!r}$")  # row 99 reads u[100]
        with pytest.raises(DomainError, match=message):
            disc.step(bad, 1e-3, 0.5)


def test_discretizations_name_an_undefined_point():
    # the whole-line validation ladder never samples x = 0, where b = 1/x is
    # undefined: the forward discretization meets it at a face of the first
    # grid, the backward one at a centre of the second
    op = make_operator_1d("0.5", "1/x", "0", (-INF, INF))
    message = "^divide by zero encountered in divide at x=0$"
    with pytest.raises(DomainError, match=message):
        FD.Discretization(op, FD.Grid1D(-4.0, 4.0, 100), FD.REFLECTING)
    with pytest.raises(DomainError, match=message):
        FD.BackwardDiscretization(op, FD.Grid1D(-17.0, 17.0, 17))


def test_singular_or_nonfinite_step_raises():
    zeros = np.zeros(15)
    points = np.arange(16.0)
    # 1 - theta dt diag = 0 on the diagonal and nothing off it
    singular = FD.Tridiagonal(zeros, np.full(16, 2.0), zeros, points)
    with pytest.raises(DomainError, match=r"^I - theta dt A \(theta=0.5, "
                       r"dt=1\) is singular at x=0.0$"):
        singular.step(np.ones(16), 1.0, 0.5)
    diag = np.full(16, -1.0)
    diag[3] = np.inf
    with pytest.raises(DomainError, match="^the discretization is not finite "
                       "at x=3.0$"):
        FD.Tridiagonal(zeros, diag, zeros, points)
    lower = zeros.copy()
    lower[6] = np.nan  # A[7, 6]
    with pytest.raises(DomainError, match="not finite at x=7.0$"):
        FD.Tridiagonal(lower, np.full(16, -1.0), zeros, points)
    # finite bands whose step matrix overflows
    big = FD.Tridiagonal(zeros, np.full(16, -1e308), zeros, points)
    with pytest.raises(DomainError, match=r"^I - theta dt A \(theta=1, "
                       r"dt=10\) is not finite at x=0.0$"):
        big.step(np.zeros(16), 10.0, 1.0)


def test_whole_steps():
    assert whole_steps(1.0, 1e-3) == 1000
    assert whole_steps(0.3, 0.1) == 3  # 2.9999999999999996 steps
    assert whole_steps(0.0, 1e-3) == whole_steps(-1.0, 1e-3) == 0
    for T, dt in [(1.0, 3e-3), (1.0, 0.0), (1.0, -1e-3), (1.0, 1e-320)]:
        with pytest.raises(ValueError):
            whole_steps(T, dt)


def test_partial_last_step_rejected():
    # 1.0 / 3e-3 = 333.33 steps: fp_solve used to stop at t = 0.999
    op = make_operator_1d("0.5", "-x", "0", (-INF, INF))
    g = FD.Grid1D(-8.0, 8.0, 400)
    f = _bump(0.0, 1.5)
    for run in (lambda: FD.fp_solve(op, FD.gaussian_state(g), 1.0, 3e-3),
                lambda: FD.backward_evolve(op, g, f(g.centers), 1.0, 3e-3),
                lambda: duality_check(op, f, f, 1.0, 3e-3, grid=g)):
        with pytest.raises(ValueError, match="whole number of steps"):
            run()


def test_dump_csv_roundtrip(tmp_path):
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    g = FD.Grid1D(-4.0, 4.0, 100)
    fin, (ts, ms) = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 0.2), 0.01, 1e-3)
    path = tmp_path / "trace.csv"
    FD.dump_csv(str(path), ts, ms, fin)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass"
    # 17 significant digits round-trips doubles exactly
    t1, m1 = lines[1].split(",")
    assert float(m1) == ms[0]
