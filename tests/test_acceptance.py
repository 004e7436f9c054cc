"""Acceptance gate: ten criteria, one pass/fail line each.

The lines print unconditionally (capture is bypassed), one per criterion.
Criterion 7's probe measures boundary inflow: the core mass at time T of
mass put at the walls of each truncation window.  Across the entrance
boundaries of b=-x^3 it stays O(1) as the window grows; for Brownian motion
it decays.
"""

import copy
import json
import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from diffuniq import (cli, expr as E, fdsolver as FD, montecarlo as MC,
                      quadrature as Q, uniqueness as U)
from diffuniq.gridfn import GridFunction
from diffuniq.operator import make_operator_1d, make_operator_nd, radial_bound

INF = math.inf

CANONICAL_1D = [
    ("0.5", "0", "0", (-INF, INF), U.UNIQUE),
    ("1", "0", "0", (0.0, 1.0), U.NOT_UNIQUE),
    ("0.5", "-x", "0", (-INF, INF), U.UNIQUE),
    ("0.5", "-x^3", "0", (-INF, INF), U.NOT_UNIQUE),
    ("0.5", "-x^3", "x^6", (-INF, INF), U.UNIQUE),
]


LINES = []  # echoed by conftest in the terminal summary


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    LINES.append(line)
    return ok


def test_criterion_01_canonical_verdict_table():
    t0 = time.perf_counter()
    wrong = []
    for a, b, V, iv, want in CANONICAL_1D:
        got = U.uniqueness_1d(make_operator_1d(a, b, V, iv)).kind
        if got != want:
            wrong.append(f"b={b},V={V}: {got}!={want}")
    # radial row: beta=0, d=3 -> condition (*) at +infinity must diverge
    op = make_operator_nd(3, ["0", "0", "0"], "0", beta_override="0")
    v = U.uniqueness_nd(op, mode=U.PROOF_FAITHFUL, seed=0)
    upper = [rec for rec in v.per_endpoint if rec[1] == "upper"]
    if not (upper and all(rec[2].is_diverges for rec in upper)):
        wrong.append("radial beta=0 d=3: (*) at +inf did not diverge")
    dt = time.perf_counter() - t0
    ok = not wrong and dt < 60.0
    assert _report(1, ok,
                   f"6-row verdict table, {len(wrong)} misclassified, "
                   f"{dt:.1f}s (budget 60s)" + (f"; {wrong}" if wrong else ""))


def test_criterion_02_series_ode_equivalence():
    worst = 0.0
    for b in ("0", "-x"):
        op = make_operator_1d("0.5", b, "0", (-INF, INF))
        st = U.series_partial(op, 0.0, 1.0, U.TOWARD_UPPER, 30)
        ms = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_UPPER, x_end=1.0,
                                 n_grid=st.xs.size)
        worst = max(worst, float(np.max(np.abs(st.partial(30) - ms.u()) / ms.u())))
    op = make_operator_1d("0.5", "0", "0", (-INF, INF))
    s30 = U.series_partial(op, 0.0, 1.0, U.TOWARD_UPPER, 30).partial(30)[-1]
    cosh_err = abs(s30 - math.cosh(math.sqrt(2.0)))
    ok = worst <= 1e-6 and cosh_err <= 1e-5
    assert _report(2, ok, f"series vs ODE max rel err {worst:.2e} (<=1e-6), "
                          f"|S30(1)-cosh(sqrt2)|={cosh_err:.2e} (<=1e-5)")


def test_criterion_03_lambda_and_base_point_robustness():
    lams = (0.5, 1.0, 2.0)
    bad = []
    for a, b, V, iv, want in CANONICAL_1D:
        op = make_operator_1d(a, b, V, iv)
        c0 = U.default_base_point(op)
        # offsets stay interior on bounded intervals
        step = 1.0 if math.isinf(iv[0]) and math.isinf(iv[1]) else \
            0.4 * min(c0 - iv[0], iv[1] - c0)
        for c in (c0 - step, c0, c0 + step):
            got = U.uniqueness_1d(op, lams, c=c).kind
            if got != want:
                bad.append(f"b={b},V={V},c={c:.2f}: {got}")
    ok = not bad
    assert _report(3, ok, "verdicts stable over lambda {0.5,1,2} x 3 base "
                          "points on 5 operators" + (f"; {bad}" if bad else ""))


def test_criterion_04_entrance_classification():
    op = make_operator_1d("0.5", "1/x", "0", (0.0, INF))
    lo = U.entrance_test(op, 1.0, 0.0)
    hi = U.entrance_test(op, 1.0, INF)
    ok = lo.is_converges and hi.is_diverges
    val = f", J(0)={lo.value:.6f}" if lo.is_converges else ""
    assert _report(4, ok, f"Bessel-3: endpoint 0 {lo.kind} (want Converges{val}), "
                          f"+inf {hi.kind} (want Diverges)")


def test_criterion_05_fd_conservation_and_killing():
    g = FD.Grid1D(-8.0, 8.0, 800)
    op = make_operator_1d("0.5", "-x + sin(x)", "0", (-INF, INF))
    _, (_, masses) = FD.fp_solve(op, FD.gaussian_state(g, 0.0, 0.1), 1.0, 1e-3)
    drift = abs(masses[-1] - masses[0])
    opv = make_operator_1d("0.5", "0", "1", (-INF, INF))
    _, (_, mv) = FD.fp_solve(opv, FD.gaussian_state(g, 0.0, 0.1), 1.0, 1e-3)
    kill_err = abs(mv[-1] / mv[0] - math.exp(-1.0))
    ok = drift <= 1e-10 and kill_err <= 1e-6
    assert _report(5, ok, f"mass drift {drift:.2e} (<=1e-10) over 10^3 steps, "
                          f"|mass ratio - e^-1| = {kill_err:.2e} (<=1e-6)")


def test_criterion_06_mc_fd_agreement():
    t0 = time.perf_counter()
    f = E.parse_expr("exp(-x^2)", "x")
    details, ok = [], True
    for V in ("0", "1"):
        op = make_operator_1d("0.5", "-x", V, (-INF, INF))
        est = MC.feynman_kac(op, f, 0.5, 0.0, 100000, 1e-3, seed=42)
        g = FD.Grid1D(-8.0, 8.0, 3200)
        s0 = FD.gaussian_state(g, 0.0, 1e-3)
        fin, _ = FD.fp_solve(op, s0, 0.5, 1e-3)
        vals = E.eval_numpy(f, {"x": g.centers})
        fd_val = float(np.sum(fin.values * vals) * g.dx / s0.mass())
        diff = abs(est.mean - fd_val)
        tol = 3.0 * est.stderr + 5e-3
        ok &= diff <= tol
        details.append(f"V={V}: |MC-FD|={diff:.1e} tol {tol:.1e}")
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    assert _report(6, ok, "; ".join(details) + f"; {dt:.0f}s (budget 120s)")


def test_criterion_07_bc_probe_discriminates():
    xs = np.linspace(-1.5, 1.5, 301)
    u0 = GridFunction(xs, np.exp(-xs ** 2 / 0.2))
    brow = FD.bc_sensitivity_probe(
        make_operator_1d("0.5", "0", "0", (-INF, INF)), u0, 1.0,
        [4.0, 6.0, 8.0])
    cubic = FD.bc_sensitivity_probe(
        make_operator_1d("0.5", "-x^3", "0", (-INF, INF)), u0, 1.0,
        [4.0, 6.0, 8.0])
    brow_ok = all(r <= 0.25 for r in brow["ratios"])
    cubic_ok = all(r >= 0.5 for r in cubic["ratios"])
    ok = brow_ok and cubic_ok
    assert _report(
        7, ok,
        f"Brownian core masses "
        f"{['%.1e' % m for m in brow['core_masses']]} ratios "
        f"{['%.3f' % r for r in brow['ratios']]} (want <=0.25: "
        f"{'ok' if brow_ok else 'no'}); cubic core masses "
        f"{['%.1e' % m for m in cubic['core_masses']]} ratios "
        f"{['%.3f' % r for r in cubic['ratios']]} (want >=0.5: "
        f"{'ok' if cubic_ok else 'no'})")


def _random_spline_bump(rng, lo, hi):
    knots = np.linspace(lo, hi, 9)
    vals = rng.uniform(-1.0, 1.0, knots.size)
    vals[0] = vals[-1] = 0.0
    return CubicSpline(knots, vals, bc_type="clamped")


def test_criterion_08_rho_symmetry():
    glt, glw = np.polynomial.legendre.leggauss(20)
    worst = 0.0
    for a, b, V, iv, _ in CANONICAL_1D:
        op = make_operator_1d(a, b, V, iv)
        if math.isinf(iv[0]):
            lo, hi, c = -2.5, 2.5, 0.0
        else:
            lo, hi, c = iv[0] + 0.1, iv[1] - 0.1, 0.5 * (iv[0] + iv[1])
        knots = np.linspace(lo, hi, 9)
        xs = np.concatenate([0.5 * (k0 + k1) + 0.5 * (k1 - k0) * glt
                             for k0, k1 in zip(knots[:-1], knots[1:])])
        w = np.concatenate([0.5 * (k1 - k0) * glw
                            for k0, k1 in zip(knots[:-1], knots[1:])])
        rho = np.exp(Q.log_scale(op, c, xs)) / op.a.array(xs)
        av, bv, Vv = op.a.array(xs), op.b.array(xs), op.V.array(xs)
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = _random_spline_bump(rng, lo, hi)
            g = _random_spline_bump(rng, lo, hi)
            Af = av * f(xs, 2) + bv * f(xs, 1) - Vv * f(xs)
            Ag = av * g(xs, 2) + bv * g(xs, 1) - Vv * g(xs)
            defect = abs(float(np.sum((Af * g(xs) - f(xs) * Ag) * rho * w)))
            inner = abs(float(np.sum(f(xs) * g(xs) * rho * w)))
            worst = max(worst, defect / max(1.0, inner))
    ok = worst <= 1e-6
    assert _report(8, ok, f"100 spline-bump pairs over 5 operators, worst "
                          f"normalized defect {worst:.2e} (<=1e-6)")


def test_criterion_09_sign_propagation_suite():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(50):
        a0 = float(rng.uniform(0.2, 2.0))
        c1, c3 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        v2 = float(rng.uniform(0.0, 2.0))
        op = make_operator_1d(a0, f"{c1!r}*x + {c3!r}*x^3", f"{v2!r}*x^2",
                              (-INF, INF))
        lam = float(rng.uniform(0.3, 3.0))
        ms = U.monotone_solution(op, 0.0, lam, U.TOWARD_UPPER, x_end=2.0)
        if not np.all(ms.ratio[1:] > 0.0):
            violations += 1
    ok = violations == 0
    assert _report(9, ok, f"u'/u > 0 past the base point at all mesh nodes, "
                          f"{violations}/50 random operators violated")


def test_criterion_10_report_reproducibility():
    cfg = {
        "mode": "xval",
        "operator": {"a": "0.5", "b": "-x", "V": "0",
                     "interval": ["-inf", "inf"]},
        "lambda_set": [1.0],
        "fk": {"T": 0.2, "n_paths": 2000},
        "probe": {"windows": [3.0, 4.0], "T": 0.3},
        "seed": 999,
    }
    r1 = cli.run(copy.deepcopy(cfg))
    r2 = cli.run(copy.deepcopy(r1["resolved_config"]))
    strip = lambda r: json.dumps(
        {k: v for k, v in r.items() if k != "wall_clock_s"}, sort_keys=True)
    ok = strip(r1) == strip(r2)
    assert _report(10, ok, "re-running the resolved config is bit-identical "
                           "(wall clock excluded)" if ok else
                           "reports differ between identical runs")
