import math
import time

import numpy as np
import pytest

from diffuniq import operator as OP
from diffuniq import uniqueness as U
from diffuniq.errors import DomainError, ValidationError
from diffuniq.operator import (Coefficient, Operator1D, as_coefficient,
                               interval_center, make_operator_1d,
                               make_operator_nd, radial_bound, regular_endpoint)
from march_oracles import (TOWARD_LOWER, TOWARD_UPPER, _cumulative_simpson,
                           log_scale, monotone_solution, series_partial)

INF = math.inf


def brownian():
    return make_operator_1d("0.5", "0", "0", (-INF, INF))


def ou():
    return make_operator_1d("0.5", "-x", "0", (-INF, INF))


# series / ODE equivalence --------------------------------------------------

@pytest.mark.parametrize("b", ["0", "-x"])
def test_series_matches_ode_solution(b):
    op = make_operator_1d("0.5", b, "0", (-INF, INF))
    st = series_partial(op, 0.0, 1.0, TOWARD_UPPER, 30)
    # same nodes, so the comparison carries no interpolation error
    ms = monotone_solution(op, 0.0, 1.0, TOWARD_UPPER, x_end=1.0,
                           n_grid=st.xs.size)
    u_ode = ms.u()
    assert np.max(np.abs(st.partial(30) - u_ode) / u_ode) <= 1e-6


@pytest.mark.parametrize("n", [8, 9])
def test_cumulative_simpson_closed_forms(n):
    # each interval's parabola is exact on a quadratic, on any grid and with
    # either parity of the grid length (an even one ends on the backward form)
    x = np.cumsum(np.linspace(0.1, 0.4, n)) - 0.1
    assert np.max(np.abs(_cumulative_simpson(3 * x**2 - 2 * x + 1, x)
                         - (x**3 - x**2 + x))) <= 1e-14
    # and third order on a smooth integrand: at most max|f'''| h^3 / 24 per
    # unit span
    t = np.linspace(0.0, 1.0, n)
    err = np.max(np.abs(_cumulative_simpson(np.exp(t), t) - np.expm1(t)))
    assert err <= math.e * t[1] ** 3 / 24


def test_series_brownian_cosh_oracle():
    # for a=1/2, lambda=1 the limit is cosh(sqrt(2) y)
    op = brownian()
    st = series_partial(op, 0.0, 1.0, TOWARD_UPPER, 30)
    assert st.partial(30)[-1] == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-5)
    # low partial sums are the truncated cosh Taylor series: S_1(1) = 1 + 1 = 2
    assert st.partial(1)[-1] == pytest.approx(2.0, abs=1e-6)


def test_series_monotone_in_level():
    op = ou()
    st = series_partial(op, 0.0, 1.0, TOWARD_UPPER, 10)
    for n in range(10):
        assert np.all(st.partial(n + 1) >= st.partial(n) - 1e-15)


def test_monotone_solution_brownian_closed_form():
    op = brownian()
    ms = monotone_solution(op, 0.0, 1.0, TOWARD_UPPER, x_end=2.0)
    ref = np.cosh(math.sqrt(2.0) * ms.xs)
    assert np.max(np.abs(ms.u() - ref) / ref) <= 1e-7


def test_monotone_solution_both_directions_symmetric():
    op = brownian()
    up = monotone_solution(op, 0.0, 1.0, TOWARD_UPPER, x_end=1.5)
    dn = monotone_solution(op, 0.0, 1.0, TOWARD_LOWER, x_end=-1.5)
    assert up.u()[-1] == pytest.approx(dn.u()[-1], rel=1e-9)


def test_sign_propagation_random_operators():
    # once (alpha u')' = rho (lambda+V) u starts from u=1, u'=0, the flux
    # alpha u' stays strictly positive past the base point: u'/u > 0 at
    # every mesh node, for 50 random validated operators
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        a0 = float(rng.uniform(0.2, 2.0))
        c1, c3 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        v2 = float(rng.uniform(0.0, 2.0))
        op = make_operator_1d(
            a0, f"{c1!r}*x + {c3!r}*x^3", f"{v2!r}*x^2", (-INF, INF))
        lam = float(rng.uniform(0.3, 3.0))
        ms = monotone_solution(op, 0.0, lam, TOWARD_UPPER, x_end=2.0)
        assert np.all(ms.ratio[1:] > 0.0), (a0, c1, c3, v2, lam)
        checked += 1


def test_solution_monotone_in_potential():
    op0 = brownian()
    op1 = make_operator_1d("0.5", "0", "x^2", (-INF, INF))
    u0 = monotone_solution(op0, 0.0, 1.0, TOWARD_UPPER, x_end=2.0)
    u1 = monotone_solution(op1, 0.0, 1.0, TOWARD_UPPER, x_end=2.0)
    assert np.all(np.interp(u0.xs, u1.xs, u1.u()) >= u0.u() - 1e-12)


# endpoint conditions and verdicts ------------------------------------------

def test_endpoint_conditions_brownian():
    op = brownian()
    assert U.endpoint_condition(op, 0.0, 1.0, INF).is_diverges
    assert U.endpoint_condition(op, 0.0, 1.0, -INF).is_diverges


def test_endpoint_condition_accessible_boundary():
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    assert U.endpoint_condition(op, 0.5, 1.0, 0.0).is_converges
    assert U.endpoint_condition(op, 0.5, 1.0, 1.0).is_converges


def test_verdict_table_1d():
    cases = [
        ("0.5", "0", "0", (-INF, INF), U.UNIQUE),
        ("1", "0", "0", (0.0, 1.0), U.NOT_UNIQUE),
        ("0.5", "-x", "0", (-INF, INF), U.UNIQUE),
        ("0.5", "-x^3", "0", (-INF, INF), U.NOT_UNIQUE),
        ("0.5", "-x^3", "x^6", (-INF, INF), U.UNIQUE),
    ]
    for a, b, V, iv, want in cases:
        op = make_operator_1d(a, b, V, iv)
        got = U.uniqueness_1d(op, (1.0,)).kind
        assert got == want, (a, b, V, iv, got)


def test_lambda_and_base_point_robustness_light():
    for a, b, V, want in (("0.5", "-x", "0", U.UNIQUE),
                          ("0.5", "-x^3", "0", U.NOT_UNIQUE)):
        op = make_operator_1d(a, b, V, (-INF, INF))
        for c in (-1.0, 0.0, 1.0):
            v = U.uniqueness_1d(op, (0.5, 1.0, 2.0), c=c)
            assert v.kind == want, (b, c, v.kind)


def test_verdict_serialization_carries_lambdas():
    op = ou()
    v = U.uniqueness_1d(op, (0.5, 2.0))
    d = v.to_dict()
    assert d["kind"] == U.UNIQUE
    assert d["lambdas"] == [0.5, 2.0]
    lams = {rec["lambda"] for rec in d["per_endpoint"]}
    assert lams == {0.5, 2.0}
    assert all(rec["kind"] == "Diverges" for rec in d["per_endpoint"])


def test_x6_row_certified_by_cumulative_integral():
    # rho u ~ exp(0.18 x^4): the log-space running sum passes the cap in the
    # third window; the certificate is that lower bound, not a flux guard
    op = make_operator_1d("0.5", "-x^3", "x^6", (-INF, INF))
    for endpoint in (-INF, INF):
        v = U.endpoint_condition(op, 0.0, 1.0, endpoint)
        assert v.is_diverges and v.windows_used == 3
        assert v.evidence.startswith("cumulative integral exceeded")
        assert "lower bound" in v.evidence and "flux" not in v.evidence
        assert v.rhs_evals > 0


def test_monotone_solution_x6_row_reaches_far_out():
    # log u ~ 0.18 x^4 + x^4/2 reaches about 1.2e7 at x = 64
    op = make_operator_1d("0.5", "-x^3", "x^6", (-INF, INF))
    ms = monotone_solution(op, 0.0, 1.0, TOWARD_UPPER, x_end=64.0)
    assert ms.xs[-1] == 64.0
    assert np.all(np.isfinite(ms.log_u)) and ms.log_u[-1] > 1e7
    assert np.all(np.diff(ms.log_u) > 0.0) and np.all(ms.ratio[1:] > 0.0)


@pytest.mark.parametrize("a, b, interval, lam, endpoint, value", [
    ("0.5", "-x^3", (-INF, INF), 0.5, INF, 3.206323177583562),
    ("0.5", "-x^3", (-INF, INF), 2.0, INF, 9.320263613771845),
    ("1", "0", (0.0, 1.0), 0.5, 0.0, 0.510481961257257),
])
def test_converged_values_unchanged_by_scaling(a, b, interval, lam,
                                               endpoint, value):
    # reference values from the unscaled (alpha u, alpha u') march
    op = make_operator_1d(a, b, "0", interval)
    c = interval_center(op.x0, op.y0)
    v = U.endpoint_condition(op, c, lam, endpoint)
    assert v.is_converges
    assert v.value == pytest.approx(value, rel=1e-8)


def _sampled_radial():
    # sampled radial bound of a 3D drift: a table with a kink at each of its
    # 160 radii, which the march lands on
    op = make_operator_nd(3, ["-x1 + 0.3*sin(x2)", "-x2", "-x3"], "0")
    return U.radial_reduce(radial_bound(op, seed=11), 3, op.V)


def _whole_line(b, V="0"):
    return make_operator_1d("0.5", b, V, (-INF, INF))


_RISING = "window increments non-decreasing across 3 consecutive windows"
_DECAYED = ("increments decayed with ratio <= 0.75 for 5 windows; "
            "geometric tail ")

# name: (record, (kind, value.hex(), err.hex(), windows_used, rhs_evals,
# evidence)), recorded with the coarse and fine passes built separately
_MARCH_PINS = {
    "ou-upper": (
        lambda: U.endpoint_condition(ou(), 0.0, 1.0, INF),
        ("Diverges", None, None, 3, 2619, _RISING)),
    "cubic-upper": (
        lambda: U.endpoint_condition(_whole_line("-x^3"), 0.0, 1.0, INF),
        ("Converges", "0x1.2a1b64098b7b3p+2", "0x1.2a1c8b7e4cc72p-25",
         13, 15132, _DECAYED + "3.47e-08")),
    "x6-upper": (
        lambda: U.endpoint_condition(_whole_line("-x^3", "x^6"), 0.0, 1.0,
                                     INF),
        ("Diverges", None, None, 3, 4656,
         "cumulative integral exceeded 1e+12 after 3 windows (log-space sum "
         "to x=7 is e^430.37; a lower bound, the integrand being positive)")),
    "quintic-upper-m-doubles": (
        lambda: U.endpoint_condition(_whole_line("-x^5"), 0.0, 1.0, INF),
        ("Converges", "0x1.ed914efbeffb2p+1", "0x1.eb020f08fe95fp-29",
         7, 15714, _DECAYED + "3.57e-09")),
    "bessel3-entrance-lower": (
        lambda: U.entrance_test(
            make_operator_1d("0.5", "1/x", "0", (0.0, INF)), 1.0, 0.0),
        ("Converges", "0x1.111110fbbbc81p-3", "0x1.5591920d7396fp-31",
         15, 13095, _DECAYED + "6.21e-10")),
    "x7-entrance-cap": (
        lambda: U.entrance_test(_whole_line("x^7"), 0.0, INF),
        ("Diverges", None, None, 2, 5238,
         "cumulative integral exceeded 1e+12 after 2 windows (log-space sum "
         "to x=3 is e^1629.62; a lower bound, the integrand being positive)")),
    "radial-lower": (
        lambda: U.endpoint_condition(_sampled_radial(), 1.0, 1.0, 0.0),
        ("Converges", "0x1.57ab725e35ac5p+0", "0x1.609d5c2e416c6p-28",
         14, 13023, _DECAYED + "5e-09")),
    "radial-upper": (
        lambda: U.endpoint_condition(_sampled_radial(), 1.0, 1.0, INF),
        ("Diverges", None, None, 3, 4125, _RISING)),
}


@pytest.mark.parametrize("name", sorted(_MARCH_PINS))
def test_march_records_bit_pinned(name):
    # exact floats and work counts of the Radau march; a change in how the
    # steps are built, batched or chained moves them
    run, want = _MARCH_PINS[name]
    v = run()
    hexed = [None if f is None else f.hex() for f in (v.value, v.err)]
    got = (v.kind, *hexed, v.windows_used, v.rhs_evals, v.evidence)
    assert got == want


def test_multi_batch_march_bit_pinned():
    # refined to 8 and 16 steps per node gap over 514 gaps: both passes of
    # the last check span several BATCH_STEPS batches (4,112 and 8,224
    # steps), each with its own Q cumsum
    op = _whole_line("-x^3", "x^6")
    ms = monotone_solution(op, 0.0, 1.0, TOWARD_UPPER, x_end=64.0)
    assert ms.log_u[-1].hex() == "0x1.5db3c460bed8ap+23"
    assert ms.ratio[-1].hex() == "0x1.5db3d613ed173p+19"


@pytest.fixture
def passes_per_window(monkeypatch):
    """The ``ms`` of each pass the march builds, one list per window: a
    window that refines has more than one."""
    windows = []
    advance, build = U._Propagator.advance, U._Propagator._pass

    def logged_advance(self, xs, x_to):
        windows.append([])
        return advance(self, xs, x_to)

    def logged_pass(self, pts, ms):
        windows[-1].append(ms)
        return build(self, pts, ms)
    monkeypatch.setattr(U._Propagator, "advance", logged_advance)
    monkeypatch.setattr(U._Propagator, "_pass", logged_pass)
    return windows


def test_march_steps_back_down_after_refining(passes_per_window):
    # b = -x^3 refines in its second window toward +inf; once the passes
    # agree to MARCH_TOL / STEP_DOWN, m halves window by window back to 1
    # and stays there
    v = U.endpoint_condition(_whole_line("-x^3"), 0.0, 1.0, INF)
    assert v.is_converges and len(passes_per_window) == v.windows_used
    refined = [i for i, w in enumerate(passes_per_window) if len(w) > 1]
    assert refined
    starts = [w[0][0] for w in passes_per_window[refined[-1] + 1:]]
    assert starts == sorted(starts, reverse=True) and starts[-1] == 1


def test_discrepancy_of_two_passes():
    # log h_hat and Q, scaled by the fine pass above 1; a node where both
    # passes lost positivity agrees, one where only one did does not
    march = U._scaled_march(ou(), 1.0, 0.0, True)

    def landed(h_hat, Q):
        return np.array([h_hat, np.zeros(len(Q)), Q])
    coarse = landed([1.0, -1.0, 2.0], [0.5, 1.0, 3.0])
    fine = landed([1.0, -2.0, 2.0 + 4e-10], [0.5, 1.0, 3.0 + 3e-9])
    assert march._discrepancy(coarse, fine) == pytest.approx(1e-9, rel=1e-6)
    positive = landed([1.0, 1.0, 2.0], [0.5, 1.0, 3.0])
    assert math.isnan(march._discrepancy(coarse, positive))


def test_stepping_down_cuts_the_refined_cubic_march():
    # the lambda = 2 record refines to m = 4 over windows 2 and 3
    v = U.endpoint_condition(_whole_line("-x^3"), 0.0, 2.0, INF)
    assert v.is_converges and v.rhs_evals <= 21_000


def test_stepped_down_window_refines_again(passes_per_window, monkeypatch):
    # smooth past its second window, then sharp near x = 45: the march
    # steps down to m = 1 before the window [31, 63] and must refine that
    # window again; the record stays within the march tolerance of a march
    # that never steps down
    op = _whole_line("-x^3*(1 + 0.5*tanh(5*(x-45)))")
    v = U.endpoint_condition(op, 0.0, 1.0, INF)
    stepped = [w for prev, w in zip(passes_per_window, passes_per_window[1:])
               if w[0][0] < prev[-1][-1] // 2]
    assert any(len(w) > 1 for w in stepped)
    passes_per_window.clear()
    monkeypatch.setattr(U, "STEP_DOWN", math.inf)
    ref = U.endpoint_condition(op, 0.0, 1.0, INF)
    starts = [w[0][0] for w in passes_per_window]
    assert starts == sorted(starts)
    assert (v.kind, v.windows_used) == (ref.kind, ref.windows_used)
    assert v.is_converges and v.rhs_evals < ref.rhs_evals
    assert v.value == pytest.approx(ref.value, rel=U.MARCH_TOL, abs=0.0)


# (lambda, lower value, lower windows_used, upper windows_used) of the
# sampled radial records, the values from a march that straddled the kinks
_SAMPLED_RADIAL = [
    (0.5, "0x1.37aceb474bef4p+0", 13, 4),
    (1.0, "0x1.57ab725e0a3b4p+0", 14, 3),
    (2.0, "0x1.9ebed1ea7b1f3p+0", 14, 3),
]


@pytest.mark.parametrize("lam, value, lower_windows, upper_windows",
                         _SAMPLED_RADIAL)
def test_sampled_radial_march_lands_on_the_table_radii(
        lam, value, lower_windows, upper_windows):
    # a step that straddles a radius of the table loses Radau's order and
    # makes m double until the passes agree; landing on the radii keeps m
    # small, and the converged value within the march tolerance of one
    # marched across the kinks
    op = _sampled_radial()
    lower = U.endpoint_condition(op, 1.0, lam, 0.0)
    upper = U.endpoint_condition(op, 1.0, lam, INF)
    assert (lower.kind, lower.windows_used) == ("Converges", lower_windows)
    assert (upper.kind, upper.windows_used) == ("Diverges", upper_windows)
    assert lower.rhs_evals <= 20_000 and upper.rhs_evals <= 10_000
    assert lower.value == pytest.approx(float.fromhex(value),
                                        rel=U.MARCH_TOL, abs=0.0)


def _knotted(knots):
    # Brownian motion (a = 1/2, b = 0) with knots on its drift: alpha = 1,
    # so u = e^sigma h_hat = cosh(sqrt(2 lam) x)
    b = Coefficient(np.zeros_like, knots=knots)
    return make_operator_1d("0.5", b, "0", (-INF, INF))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
def test_advance_returns_the_nodes_in_their_order(sign):
    # three knots lie strictly inside the window: the march lands on them
    # as on the nodes, but returns one state per node, in the nodes' order
    xs = sign * np.random.default_rng(5).permutation(np.linspace(0.05, 1.95, 20))
    inside = sign * np.array([0.3, 0.3141, 1.7])
    outside = sign * np.array([-1.0, 0.0, 2.0, 3.0])
    plain = U._scaled_march(_knotted(()), 1.0, 0.0, sign > 0)
    march = U._scaled_march(_knotted(np.concatenate((inside, outside))),
                            1.0, 0.0, sign > 0)
    h_hat, _, sigma = march.advance(xs, sign * 2.0)
    assert h_hat.shape == sigma.shape == xs.shape
    u = np.exp(sigma) * h_hat
    assert np.max(np.abs(u / np.cosh(math.sqrt(2.0) * xs) - 1.0)) <= 1e-8
    # the 21 gaps of the nodes and the end become 24, each as finely stepped
    plain.advance(xs, sign * 2.0)
    assert march.m == plain.m and march.evals * 21 == plain.evals * 24


def test_knots_on_nodes_or_window_ends_add_no_step():
    # a knot equal to the start, to a node or to x_to splits no gap: the
    # march is the one without knots, bit for bit
    xs = np.linspace(0.1, 1.9, 10)
    plain = U._scaled_march(_knotted(()), 1.0, 0.0, True)
    march = U._scaled_march(_knotted((0.0, xs[3], xs[7], 2.0)), 1.0, 0.0,
                            True)
    assert np.array_equal(march.advance(xs, 2.0), plain.advance(xs, 2.0))
    assert march.evals == plain.evals


class _FixedStateMarch:
    """A march that lands on every node in one state."""

    evals = 7

    def __init__(self, state):
        self.state = np.asarray(state, dtype=float)

    def advance(self, xs, x_to):
        return np.repeat(self.state[:, None], np.size(xs), axis=1)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("endpoint", [0.0, 1.0])
def test_march_unit_interval_closed_form(lam, endpoint):
    # a=1, b=0 on (0, 1) from c=1/2: u = cosh(sqrt(lam) (x - 1/2)), rho = 1,
    # so each half-interval integral is sinh(sqrt(lam)/2)/sqrt(lam)
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    v = U.endpoint_condition(op, 0.5, lam, endpoint)
    want = math.sinh(math.sqrt(lam) / 2.0) / math.sqrt(lam)
    assert v.is_converges
    assert abs(v.value - want) <= 3.0 * v.err


# regular endpoints -----------------------------------------------------------

_REGULAR = "regular endpoint (sampled): "


def _constant_drift_integral(a, b, lam, c, e):
    """The integral of rho u between c and e for constant a > 0, b and
    V = 0: |(alpha u')(e)| / lam, u = A e^{r+ d} + B e^{r- d} being the
    solution with u(c) = 1, u'(c) = 0, d = x - c, and alpha = e^{(b/a) d}."""
    d = e - c
    root = math.sqrt(b * b + 4.0 * a * lam)
    rp, rm = (-b + root) / (2.0 * a), (-b - root) / (2.0 * a)
    slope = (-rm * rp * math.exp(rp * d) + rp * rm * math.exp(rm * d)) / (rp - rm)
    return abs(math.exp(b / a * d) * slope / lam)


@pytest.mark.parametrize("a, b, interval, lam_set", [
    ("0.3", "x", (0.0, 3.0), (0.5, 1.0, 2.0, 3.0)),
    ("1", "0", (0.0, 40.0), (0.5, 1.0, 2.0)),
    ("0.2", "2*x", (0.0, 5.0), (0.5, 1.0, 2.0)),
], ids=["(0,3)-a=0.3-b=x", "brownian-(0,40)", "cap-(0,5)-a=0.2-b=2x"])
def test_regular_intervals_are_not_unique(a, b, interval, lam_set):
    # rules (ii)/(iii) read the steep but finite increments toward these
    # ends as Diverges, and on (0, 5) the cap fires at 1e12 after 1 window
    # although the integral is 7.3e39 there: each end is regular, so its
    # integral is finite and the record is Converges
    v = U.uniqueness_1d(make_operator_1d(a, b, "0", interval), lam_set)
    assert v.kind == U.NOT_UNIQUE and not v.diagnostics
    for _, _, r in v.per_endpoint:
        assert r.is_converges and r.evidence.startswith(_REGULAR)
        assert math.isfinite(r.value) and 0.0 < r.err < 1e-8 * r.value


def test_regular_interval_sweep_is_not_unique():
    # wider than the benchmark's random family (L <= 2, a >= 0.5,
    # |c| <= 0.5): a = const, b = c x on (0, L)
    rng = np.random.default_rng(2026)
    draws = [rng.uniform(lo, hi, 24).tolist()
             for lo, hi in ((0.5, 40.0), (0.2, 2.0), (-2.0, 2.0), (0.3, 3.0))]
    for L, a, c, lam in zip(*draws):
        op = make_operator_1d(repr(a), f"{c!r}*x", "0", (0.0, L))
        v = U.uniqueness_1d(op, (lam,))
        assert v.kind == U.NOT_UNIQUE, (L, a, c, lam, v.per_endpoint)


def test_regular_endpoint_values_closed_form():
    # Brownian motion on (0, 40) from 20: u = cosh(x - 20), so the upper
    # integral is sinh 20
    op = make_operator_1d("1", "0", "0", (0.0, 40.0))
    v = U.endpoint_condition(op, 20.0, 1.0, 40.0)
    assert v.is_converges and v.windows_used == 2
    assert abs(v.value - math.sinh(20.0)) <= 3.0 * v.err
    # a = 1, b = 0 on (0, 1) from 1/2: J(y) = (y - 1/2)^2 / 2, and the
    # iterated integral to either end is (1/2)^3 / 6
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    for end in (0.0, 1.0):
        v = U.entrance_test(op, 0.5, end)
        assert v.is_converges and v.evidence.startswith(_REGULAR)
        assert abs(v.value - 1.0 / 48.0) <= 3.0 * v.err


@pytest.mark.parametrize("a, b, length, lam", [
    (1.0, 0.0, 1.0, 1.0), (0.2, 5.0, 5.0, 0.3), (0.5, -20.0, 10.0, 3.0),
    (0.5, 20.0, 10.0, 1.0), (2.0, 1.0, 40.0, 2.0), (0.2, -3.0, 40.0, 1.0),
])
def test_regular_endpoint_err_covers_the_error(a, b, length, lam):
    # constant coefficients: the records' errors cover the march's and the
    # quadrature's, also where steep windows are split
    op = make_operator_1d(repr(a), repr(b), "0", (0.0, length))
    c = length / 2.0
    for end in (0.0, length):
        v = U.endpoint_condition(op, c, lam, end)
        want = _constant_drift_integral(a, b, lam, c, end)
        assert v.is_converges and abs(v.value - want) <= v.err, (end, v)


def test_regular_endpoint_splits_steep_windows():
    # rho u grows like e^{100 (x - 5)} toward 10: one Gauss rule over
    # [5, 10] does not resolve it, so the window is split until each part's
    # two-half and one-panel sums agree
    op = make_operator_1d("0.5", "50", "0", (0.0, 10.0))
    v = U.endpoint_condition(op, 5.0, 1.0, 10.0)
    want = _constant_drift_integral(0.5, 50.0, 1.0, 5.0, 10.0)
    assert v.is_converges and v.windows_used > 1
    assert abs(v.value - want) <= v.err < 1e-8 * want


def test_regular_endpoint_at_the_float_resolution():
    # (1e16, 1e16 + 64) is 32 float steps wide: windows shrink to one step,
    # whose nodes collapse onto its ends, and such a window's whole sum
    # counts as error, so the err still covers the closed form
    op = make_operator_1d("1", "0", "0", (1e16, 1e16 + 64.0))
    c = interval_center(op.x0, op.y0)
    for end in (op.x0, op.y0):
        v = U.endpoint_condition(op, c, 1.0, end)
        assert v.is_converges
        assert abs(v.value - math.sinh(abs(end - c))) <= v.err


def test_regular_endpoint_sum_past_the_float_range():
    # e^798 and e^797 do not fit a float: the evidence carries the log-space
    # sum
    op = make_operator_1d("0.5", "20", "0", (0.0, 40.0))
    v = U.endpoint_condition(op, 20.0, 1.0, 40.0)
    assert v.is_converges and v.value is None and v.err is None
    assert v.evidence.endswith("(log-space sum e^798.001)")
    # the entrance integral there is int_0^20 2 e^{40t} (t - (1 - e^{-40t})
    # / 40) / 20 dt = (e^800 (1/2 - 2/1600) + 2/1600 + 1/2) / 10; its march
    # carries K = int rho scaled, so it reaches the endpoint as well
    v = U.entrance_test(op, 20.0, 40.0)
    assert v.is_converges and v.value is None and v.err is None
    log_sum = float(v.evidence.rpartition("e^")[2].rstrip(")"))
    assert abs(log_sum - (800.0 + math.log((0.5 - 2.0 / 1600.0) / 10.0))) <= 1e-3


def test_regular_endpoint_decided_once_per_endpoint(monkeypatch):
    calls = []
    evidence = OP._regular_evidence
    monkeypatch.setattr(OP, "_regular_evidence",
                        lambda *args: calls.append(args[1:]) or evidence(*args))
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    U.uniqueness_1d(op, (0.5, 1.0, 2.0))
    assert calls == [(0.5, 0.0), (0.5, 1.0)]


def _nd_origin():
    op = make_operator_nd(3, ["-x1", "-x2", "-x3"], "0", beta_override="-r")
    return U.radial_reduce(radial_bound(op), 3, op.V)


# name: (operator, base point, endpoint, the record at lambda = 1 in the
# form of _MARCH_PINS): ends that are not regular, whose records the halving
# walk decides
_NOT_REGULAR = {
    "bessel3-origin": (
        lambda: make_operator_1d("0.5", "1/x", "0", (0.0, INF)), 1.0, 0.0,
        ("Converges", "0x1.9ea93479dc855p-1", "0x1.9eec3855fba75p-29",
         14, 12222, _DECAYED + "3.02e-09")),
    "nd-comparison-origin": (
        _nd_origin, 1.0, 0.0,
        ("Converges", "0x1.4170f90857ee9p+0", "0x1.416eea078110cp-28",
         14, 12222, _DECAYED + "4.68e-09")),
    "a=x-at-0": (
        lambda: make_operator_1d("x", "0", "0", (0.0, 1.0)), 0.5, 0.0,
        ("Diverges", None, None, 3, 2619, _RISING)),
    "b-undefined-at-0": (
        lambda: make_operator_1d("1", "-1/sqrt(x)", "0", (0.0, 1.0)), 0.5, 0.0,
        ("Converges", "0x1.c5f4fc4985957p-1", "0x1.1f27f164d799bp-27",
         28, 24444, _DECAYED + "8.36e-09")),
}


@pytest.mark.parametrize("name", sorted(_NOT_REGULAR))
def test_certificate_stays_off(name):
    make, c, end, want = _NOT_REGULAR[name]
    op = make()
    assert regular_endpoint(op, c, end) is None
    v = U.endpoint_condition(op, c, 1.0, end)
    hexed = [None if f is None else f.hex() for f in (v.value, v.err)]
    assert (v.kind, *hexed, v.windows_used, v.rhs_evals, v.evidence) == want


@pytest.mark.parametrize("b", ["x^7", "x^9"])
def test_entrance_cap_ends_outward_drift(b):
    # rho grows like e^(x^8 / 4) or faster: the scaled march carries that
    # growth in sigma, and the log-space sum passes the cumulative cap in
    # the second window, so the walk stays cheap
    op = make_operator_1d("0.5", b, "0", (-INF, INF))
    t0 = time.process_time()
    v = U.entrance_test(op, 0.0, INF)
    assert time.process_time() - t0 < 1.0
    assert v.is_diverges and v.windows_used == 2
    assert v.evidence.startswith("cumulative integral exceeded 1e+12 after "
                                 "2 windows")


def test_unresolvable_drift_has_bounded_cost():
    # b/a oscillates without limit at x = 3.3, inside the third window
    # toward +inf: the march refines to its cap there and names the window
    op = make_operator_1d("0.5", "sin(1/(x-3.3))", "0", (-INF, INF))
    t0 = time.process_time()
    v = U.uniqueness_1d(op, (1.0,))
    assert time.process_time() - t0 < 10.0
    assert v.kind in (U.UNIQUE, U.INCONCLUSIVE)
    if v.kind == U.INCONCLUSIVE:
        upper = next(r for _, which, r in v.per_endpoint if which == "upper")
        assert "march did not resolve" in upper.evidence
        assert "in [3, 7]" in upper.evidence


def test_block_elimination_matches_dense_stage_solve():
    # the 2x2-block elimination against numpy's solve of the whole 6x6
    # Radau IIA stage system, stiff steps (h |A| up to 1e3) included
    rng = np.random.default_rng(7)
    n = 64
    h = rng.uniform(-0.5, 0.5, n)
    A = rng.normal(size=(2, 2, 3, n)) * np.geomspace(1.0, 2e3, n)
    f = rng.normal(size=(2, 3, n))
    Pv = U._propagators(h, ((A[0, 0], A[0, 1], A[1, 0], A[1, 1]),
                            (f[0], f[1])))
    P, v = Pv[:, :2], Pv[:, 2]
    for k in range(n):
        ha = h[k] * U._RADAU_A
        lhs = np.eye(6) - np.block([[ha[i, j] * A[:, :, j, k]
                                     for j in range(3)] for i in range(3)])
        rhs = np.hstack((np.tile(np.eye(2), (3, 1)),
                         (ha @ f[:, :, k].T).reshape(6, 1)))
        z = np.linalg.solve(lhs, rhs)[4:6]
        scale = np.abs(z).max()
        assert np.abs(P[:, :, k] - z[:, :2]).max() <= 1e-12 * scale
        assert np.abs(v[:, k] - z[:, 2]).max() <= 1e-12 * scale


def _random_system(rng, n, scalar_entries, non_finite):
    # A's and f's entries at the stage points, (3, n) each; the scaled
    # march's a01 = 1 and f = 0 as Python scalars, or inf and NaN sprinkled
    entries = [rng.normal(size=(3, n)) * 30.0 for _ in range(6)]
    if scalar_entries:
        entries[1], entries[4], entries[5] = 1.0, 0.0, 0.0
    if non_finite:
        for e in entries[::2]:
            e[rng.integers(0, 3, 4), rng.integers(0, n, 4)] = (
                math.nan, math.inf, -math.inf, 0.0)
    return tuple(entries[:4]), tuple(entries[4:])


def _bits(a):
    # every bit but a NaN's sign, which follows numpy's SIMD lanes (an
    # element's place in its array), not the arithmetic
    return np.where(np.isnan(a), math.nan, a).tobytes()


def _step_slice(system, lo, hi):
    return tuple(tuple(e if np.ndim(e) == 0 else e[:, lo:hi] for e in part)
                 for part in system)


@pytest.mark.parametrize("scalar_entries, non_finite",
                         [(False, False), (True, False), (False, True)],
                         ids=["arrays", "scalar-entries", "non-finite"])
def test_propagators_are_stepwise(scalar_entries, non_finite):
    # each step's (P | v) depends on that step's entries alone, bit for
    # bit: a batch equals the concatenation of its builds over any split of
    # its steps, one-step builds included, which is what lets the march
    # stack its passes in one build
    rng = np.random.default_rng(11)
    n = 300
    h = rng.uniform(-0.5, 0.5, n)
    system = _random_system(rng, n, scalar_entries, non_finite)
    with np.errstate(all="ignore"):
        whole = U._propagators(h, system)
        for cuts in (range(n + 1), [0, 1, n], [0, 2, n],
                     [0, 7, 9, 150, 298, n],
                     [0, *sorted(2 * rng.choice(np.arange(1, n // 2), 9,
                                                replace=False)), n]):
            parts = [U._propagators(h[lo:hi], _step_slice(system, lo, hi))
                     for lo, hi in zip(cuts, cuts[1:])]
            assert _bits(np.concatenate(parts, axis=2)) == _bits(whole)
    assert whole.shape == (2, 3, n)
    assert np.isfinite(whole).all() != non_finite


def _entrance_march(monkeypatch):
    # the scaled (K, g) march that entrance_test walks toward +inf, the one
    # march whose system(Q) reads Q
    monkeypatch.setattr(U, "_windowed_march",
                        lambda op, c, endpoint, start: start(c, True)[0])
    return U.entrance_test(_whole_line("x^7"), 0.0, INF)


_LONE_MARCHES = {
    "cubic": lambda _: U._scaled_march(_whole_line("-x^3"), 1.0, 0.0, True),
    "ou-sin": lambda _: U._scaled_march(
        _whole_line("-x + 0.3*sin(x)", "0.4*x^2"), 1.0, 0.0, True),
    "x6": lambda _: U._scaled_march(_whole_line("-x^3", "x^6"), 1.0, 0.0,
                                    True),
    "x7-entrance": _entrance_march,
}


@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("name", sorted(_LONE_MARCHES))
def test_batched_passes_match_lone_passes(name, m, monkeypatch):
    # the m and 2m passes built together in one elimination give the floats
    # each gives alone, across BATCH_STEPS batches (97 gaps at 2m = 16 is
    # 1,552 steps)
    march = _LONE_MARCHES[name](monkeypatch)
    pts = np.linspace(0.0, 2.0, 98)
    both = march._pass(pts, (m, 2 * m))
    alone = march._pass(pts, (m,)) + march._pass(pts, (2 * m,))
    for states, lone in zip(both, alone):
        assert states.tobytes() == lone.tobytes() and states.shape == (3, 97)


def test_chain_matches_a_plain_loop():
    # the chained states are a plain loop's, written in place
    rng = np.random.default_rng(3)
    n = 40
    Pv = rng.normal(size=(2, 3, n))
    Pv[:, :2] *= 1.3
    steps = memoryview(np.ascontiguousarray(Pv.transpose(2, 0, 1)).ravel())
    plain, z0, z1 = [], 0.5, -0.25
    for k in range(n):
        (p00, p01, v0), (p10, p11, v1) = Pv[:, :, k].tolist()
        z0, z1 = p00 * z0 + p01 * z1 + v0, p10 * z0 + p11 * z1 + v1
        plain.append((z0, z1))
    plain = np.array(plain)
    out = np.full((n, 2), -7.0)
    U._chain(steps, 0.5, -0.25, memoryview(out.ravel()))
    assert np.array_equal(out, plain)


@pytest.mark.parametrize("state", [[0.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                                   [1.0, 1.0, math.nan]],
                         ids=["h_hat-zero", "h_hat-negative", "sigma-nan"])
def test_undefined_log_integrand_is_inconclusive(state):
    op = ou()
    v = U._windowed_march(op, 0.0, INF, lambda c, toward_upper: (
        _FixedStateMarch(state), U._log_rho_u(op)))
    assert v.is_inconclusive and v.windows_used == 0
    assert "log-integrand undefined" in v.evidence
    assert v.rhs_evals == 7


def test_endpoint_records_carry_rhs_evals():
    v = U.uniqueness_1d(ou(), (1.0,))
    recs = v.to_dict()["per_endpoint"]
    assert all(rec["rhs_evals"] > 0 for rec in recs)
    assert U.uniqueness_1d(ou(), (1.0,)).to_dict()["per_endpoint"] == recs


# entrance tests ------------------------------------------------------------

def test_entrance_requires_zero_potential():
    op = make_operator_1d("0.5", "0", "1", (-INF, INF))
    with pytest.raises(ValidationError) as e:
        U.entrance_test(op, 0.0, INF)
    assert e.value.kind == ValidationError.NONZERO_POTENTIAL


def test_entrance_potential_must_be_the_constant_zero():
    # V vanishes near the base point but not past x = 5: the error names
    # the first point of the validation ladder where V is not 0
    op = make_operator_1d("0.5", "-x", "max(0, x - 5)", (-INF, INF))
    with pytest.raises(ValidationError) as e:
        U.entrance_test(op, 0.0, INF)
    assert (e.value.kind, e.value.point) == (
        ValidationError.NONZERO_POTENTIAL, 5.00390625)
    # 0 at every point but not the constant 0: no point to name
    op = make_operator_1d("0.5", "-x", "0*x", (-INF, INF))
    with pytest.raises(ValidationError) as e:
        U.entrance_test(op, 0.0, -INF)
    assert (e.value.kind, e.value.point) == (
        ValidationError.NONZERO_POTENTIAL, None)


@pytest.mark.parametrize("test", [
    lambda op: U.entrance_test(op, 0.0, 5.0),
    lambda op: U.endpoint_condition(op, 0.0, 1.0, 5.0),
], ids=["entrance_test", "endpoint_condition"])
def test_integral_tests_take_only_an_endpoint(test):
    with pytest.raises(ValueError, match="not an endpoint"):
        test(ou())


def test_entrance_bessel3_closed_form():
    # alpha=r^2, rho=2r^2 from base 1: triple integral toward 0 equals 2/15
    op = make_operator_1d("0.5", "1/x", "0", (0.0, INF))
    lo = U.entrance_test(op, 1.0, 0.0)
    hi = U.entrance_test(op, 1.0, INF)
    assert lo.is_converges and lo.value == pytest.approx(2.0 / 15.0, rel=1e-6)
    assert hi.is_diverges


def test_entrance_brownian_and_ou_have_none():
    for b in ("0", "-x"):
        op = make_operator_1d("0.5", b, "0", (-INF, INF))
        assert U.entrance_test(op, 0.0, -INF).is_diverges
        assert U.entrance_test(op, 0.0, INF).is_diverges


def test_entrance_at_infinity_for_strong_inward_drift():
    op = make_operator_1d("0.5", "-x^3", "0", (-INF, INF))
    lo = U.entrance_test(op, 0.0, -INF)
    hi = U.entrance_test(op, 0.0, INF)
    assert lo.is_converges and hi.is_converges
    assert lo.value == pytest.approx(hi.value, rel=1e-9)  # even operator


def test_entrance_agrees_with_uniqueness_for_v0():
    # V=0: entrance boundaries exist iff the operator is not unique
    for b, unique in (("0", True), ("-x", True), ("-x^3", False)):
        op = make_operator_1d("0.5", b, "0", (-INF, INF))
        no_entrance = (U.entrance_test(op, 0.0, -INF).is_diverges
                       and U.entrance_test(op, 0.0, INF).is_diverges)
        assert no_entrance == unique


def test_march_domain_error_is_inconclusive():
    # a leaves its domain past x = 5, inside the third window toward +inf;
    # built directly because validation would reject it
    def a(xs):
        if (xs > 5.0).any():
            raise DomainError(f"a undefined at {xs[xs > 5.0][0]}")
        return np.full(xs.shape, 0.5)
    zero = as_coefficient(0.0, "x")  # the entrance test's V is the constant 0
    op = Operator1D(Coefficient(a), zero, zero, -INF, INF)
    for v in (U.entrance_test(op, 0.0, INF),
              U.endpoint_condition(op, 0.0, 1.0, INF)):
        assert v.is_inconclusive
        assert "ODE march failed" in v.evidence


def test_march_non_finite_coefficient_names_the_point():
    # the first stage point past x = 5 in marching order is the one named
    b = Coefficient(lambda xs: np.where(xs > 5.0, np.nan, 0.0))
    zero = Coefficient(np.zeros_like)
    op = Operator1D(Coefficient(lambda xs: np.full(xs.shape, 0.5)), b, zero,
                    -INF, INF)
    v = U.endpoint_condition(op, 0.0, 1.0, INF)
    assert v.is_inconclusive and v.windows_used == 2
    assert v.evidence.startswith(
        "ODE march failed (non-finite value at x=5.")


# base point defaults -------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda op: U.uniqueness_1d(op, (1.0,), c=1.5),
    lambda op: U.endpoint_condition(op, 1.5, 1.0, 1.0),
    lambda op: U.entrance_test(op, 1.5, 1.0),
    lambda op: monotone_solution(op, 1.5, 1.0, TOWARD_UPPER),
    lambda op: series_partial(op, 1.5, 1.0, TOWARD_UPPER, 2),
    lambda op: log_scale(op, 1.5, [0.5]),
], ids=["uniqueness_1d", "endpoint_condition", "entrance_test",
        "monotone_solution", "series_partial", "log_scale"])
def test_base_point_outside_interval_is_domain_error(call):
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    with pytest.raises(DomainError, match="base point 1.5 not interior"):
        call(op)


def test_default_base_point():
    # uniqueness_1d and the entrance run start at the interval's centre
    assert interval_center(-INF, INF) == 0.0
    assert interval_center(0.0, 1.0) == 0.5
    assert interval_center(0.0, INF) == 1.0
    assert interval_center(-INF, 3.0) == 2.0
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    assert U.uniqueness_1d(op, (1.0,)).base_point == 0.5


# multidimensional ----------------------------------------------------------

def test_nd_free_brownian_diverges_at_infinity():
    # beta = 0, d = 3: the comparison test at +infinity must diverge
    op = make_operator_nd(3, ["0", "0", "0"], "0")
    v = U.nd_verdicts(op, (1.0,), seed=3)[U.PROOF_FAITHFUL]
    assert v.kind == U.UNIQUE
    assert all(rec[2].is_diverges for rec in v.per_endpoint)


def test_nd_sampled_matches_override():
    ops = (make_operator_nd(3, ["-x1", "-x2", "-x3"], "0"),
           make_operator_nd(3, ["-x1", "-x2", "-x3"], "0", beta_override="-r"))
    kinds = [U.nd_verdicts(op, (0.5, 1.0, 2.0), seed=11)[U.PROOF_FAITHFUL].kind
             for op in ops]
    assert kinds == [U.UNIQUE, U.UNIQUE]


def test_nd_sampled_bound_flags_its_tail():
    # only a sampled bound is held constant past its table
    tail = "sampled radial bound held constant beyond r="
    sampled = make_operator_nd(2, ["-x1", "-x2"], "0")
    override = make_operator_nd(2, ["-x1", "-x2"], "0", beta_override="-r")
    for op, flagged in ((sampled, True), (override, False)):
        for v in U.nd_verdicts(op, (1.0,), seed=0).values():
            assert any(d.startswith(tail) for d in v.diagnostics) == flagged


def test_nd_never_notunique():
    # inward cubic radial drift: 1D comparison is NotUnique, ND must not claim it
    op = make_operator_nd(2, ["-x1^3", "-x2^3"], "0", beta_override="-r^3")
    for mode in (U.PROOF_FAITHFUL, U.STRICT_THEOREM):
        v = U.nd_verdicts(op, (1.0,), seed=0)[mode]
        assert v.kind != U.NOT_UNIQUE


def test_nd_strict_mode_flags_origin():
    # d=3 free Brownian: Bessel-3 comparison has an entrance boundary at 0,
    # so the literal two-endpoint hypothesis fails there
    op = make_operator_nd(3, ["0", "0", "0"], "0")
    v = U.nd_verdicts(op, (1.0,), seed=3)[U.STRICT_THEOREM]
    assert v.kind == U.INCONCLUSIVE
    assert any("entrance boundary at 0" in d for d in v.diagnostics)


def test_radial_drift_array_form_matches_scalar():
    rs = np.geomspace(1e-4, 400.0, 1000)  # inside and past the table
    sampled = make_operator_nd(3, ["-x1 + 0.3*sin(x2)", "-x2", "-x3"], "0")
    override = make_operator_nd(3, ["x1", "x2", "x3"], "0",
                                beta_override="r + 0.1*exp(-r)")
    b_s = U.radial_reduce(radial_bound(sampled), 3, sampled.V).b
    b_o = U.radial_reduce(radial_bound(override), 3, override.V).b
    scalar_s = np.array([b_s.check([r])[0] for r in rs])
    assert np.array_equal(b_s.array(rs), scalar_s)
    scalar_o = np.array([b_o.check([r])[0] for r in rs])
    assert np.array_equal(b_o.array(rs), scalar_o)


def test_radial_reduce_carries_the_table_radii():
    # the comparison operator's knots are the radii of a sampled table, where
    # its linear interpolation has kinks; an override has none
    sampled = make_operator_nd(3, ["-x1", "-x2", "-x3"], "0")
    override = make_operator_nd(3, ["-x1", "-x2", "-x3"], "0",
                                beta_override="-r")
    op_s = U.radial_reduce(radial_bound(sampled), 3, sampled.V)
    op_o = U.radial_reduce(radial_bound(override), 3, override.V)
    assert np.array_equal(op_s.knots, OP.RADII)
    assert op_o.knots.size == 0


def test_radial_reduce_closed_form():
    # beta = 0, d = 3 comparison operator: a=1/2, b=(d-1)/(2r)=1/r
    op = make_operator_nd(3, ["0", "0", "0"], "0", beta_override="0")
    op1 = U.radial_reduce(radial_bound(op), 3, op.V)
    for r in (0.1, 1.0, 7.0):
        assert op1.b.check([r])[0] == pytest.approx(1.0 / r, rel=1e-12)
        assert op1.a.check([r])[0] == 0.5
