import math

import numpy as np
import pytest

from diffuniq import quadrature as Q, uniqueness as U
from diffuniq.errors import DomainError, ValidationError
from diffuniq.operator import (Coefficient, Operator1D, make_operator_1d,
                               make_operator_nd)

INF = math.inf


def brownian():
    return make_operator_1d("0.5", "0", "0", (-INF, INF))


def ou():
    return make_operator_1d("0.5", "-x", "0", (-INF, INF))


# series / ODE equivalence --------------------------------------------------

@pytest.mark.parametrize("b", ["0", "-x"])
def test_series_matches_ode_solution(b):
    op = make_operator_1d("0.5", b, "0", (-INF, INF))
    st = U.series_partial(op, 0.0, 1.0, U.TOWARD_UPPER, 30)
    # same nodes, so the comparison carries no interpolation error
    ms = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_UPPER, x_end=1.0,
                             n_grid=st.xs.size)
    u_ode = ms.u()
    assert np.max(np.abs(st.partial(30) - u_ode) / u_ode) <= 1e-6


def test_series_brownian_cosh_oracle():
    # for a=1/2, lambda=1 the limit is cosh(sqrt(2) y)
    op = brownian()
    st = U.series_partial(op, 0.0, 1.0, U.TOWARD_UPPER, 30)
    assert st.partial(30)[-1] == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-5)
    # low partial sums are the truncated cosh Taylor series: S_1(1) = 1 + 1 = 2
    assert st.partial(1)[-1] == pytest.approx(2.0, abs=1e-6)


def test_series_monotone_in_level():
    op = ou()
    st = U.series_partial(op, 0.0, 1.0, U.TOWARD_UPPER, 10)
    for n in range(10):
        assert np.all(st.partial(n + 1) >= st.partial(n) - 1e-15)


def test_monotone_solution_brownian_closed_form():
    op = brownian()
    ms = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_UPPER, x_end=2.0)
    ref = np.cosh(math.sqrt(2.0) * ms.xs)
    assert np.max(np.abs(ms.u() - ref) / ref) <= 1e-7


def test_monotone_solution_both_directions_symmetric():
    op = brownian()
    up = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_UPPER, x_end=1.5)
    dn = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_LOWER, x_end=-1.5)
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
        ms = U.monotone_solution(op, 0.0, lam, U.TOWARD_UPPER, x_end=2.0)
        assert np.all(ms.ratio[1:] > 0.0), op.describe()
        checked += 1


def test_solution_monotone_in_potential():
    op0 = brownian()
    op1 = make_operator_1d("0.5", "0", "x^2", (-INF, INF))
    u0 = U.monotone_solution(op0, 0.0, 1.0, U.TOWARD_UPPER, x_end=2.0)
    u1 = U.monotone_solution(op1, 0.0, 1.0, U.TOWARD_UPPER, x_end=2.0)
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
    ms = U.monotone_solution(op, 0.0, 1.0, U.TOWARD_UPPER, x_end=64.0)
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
    c = U.default_base_point(op)
    v = U.endpoint_condition(op, c, lam, endpoint)
    assert v.is_converges
    assert v.value == pytest.approx(value, rel=1e-8)


class _FixedStateMarch:
    """A march (and its every segment) whose dense solution is one state."""

    nfev, failed, status = 7, None, 0

    def __init__(self, state):
        self.state = np.asarray(state, dtype=float)

    def advance(self, x_to):
        return self

    def sol(self, xs):
        return np.repeat(self.state[:, None], np.size(xs), axis=1)


@pytest.mark.parametrize("state", [[0.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                                   [1.0, 1.0, math.nan]],
                         ids=["h_hat-zero", "h_hat-negative", "sigma-nan"])
def test_undefined_log_integrand_is_inconclusive(state):
    op = ou()
    v = U._march_verdict(INF, 0.0, _FixedStateMarch(state), U._log_rho_u(op))
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
    def a(x):
        if x > 5.0:
            raise DomainError(f"a undefined at {x}")
        return 0.5
    zero = Coefficient(lambda x: 0.0)
    op = Operator1D(Coefficient(a), zero, zero, -INF, INF)
    for v in (U.entrance_test(op, 0.0, INF),
              U.endpoint_condition(op, 0.0, 1.0, INF)):
        assert v.is_inconclusive
        assert "ODE march failed" in v.evidence


# base point defaults -------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda op: U.uniqueness_1d(op, (1.0,), c=1.5),
    lambda op: U.endpoint_condition(op, 1.5, 1.0, 1.0),
    lambda op: U.entrance_test(op, 1.5, 1.0),
    lambda op: U.monotone_solution(op, 1.5, 1.0, U.TOWARD_UPPER),
    lambda op: U.series_partial(op, 1.5, 1.0, U.TOWARD_UPPER, 2),
    lambda op: Q.log_scale(op, 1.5, [0.5]),
], ids=["uniqueness_1d", "endpoint_condition", "entrance_test",
        "monotone_solution", "series_partial", "log_scale"])
def test_base_point_outside_interval_is_domain_error(call):
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    with pytest.raises(DomainError, match="base point 1.5 not interior"):
        call(op)


def test_default_base_point():
    assert U.default_base_point(brownian()) == 0.0
    assert U.default_base_point(make_operator_1d("1", "0", "0", (0.0, 1.0))) == 0.5
    assert U.default_base_point(
        make_operator_1d("1", "0", "0", (0.0, INF))) == 1.0
    assert U.default_base_point(
        make_operator_1d("1", "0", "0", (-INF, 3.0))) == 2.0


# multidimensional ----------------------------------------------------------

def test_nd_free_brownian_diverges_at_infinity():
    # beta = 0, d = 3: the comparison test at +infinity must diverge
    op = make_operator_nd(3, ["0", "0", "0"], "0")
    v = U.uniqueness_nd(op, (1.0,), seed=3)
    assert v.kind == U.UNIQUE
    assert all(rec[2].is_diverges for rec in v.per_endpoint)


def test_nd_sampled_matches_override():
    ops = (make_operator_nd(3, ["-x1", "-x2", "-x3"], "0"),
           make_operator_nd(3, ["-x1", "-x2", "-x3"], "0", beta_override="-r"))
    kinds = [U.uniqueness_nd(op, (0.5, 1.0, 2.0), seed=11).kind for op in ops]
    assert kinds == [U.UNIQUE, U.UNIQUE]


def test_nd_never_notunique():
    # inward cubic radial drift: 1D comparison is NotUnique, ND must not claim it
    op = make_operator_nd(2, ["-x1^3", "-x2^3"], "0", beta_override="-r^3")
    for mode in (U.PROOF_FAITHFUL, U.STRICT_THEOREM):
        v = U.uniqueness_nd(op, (1.0,), mode=mode, seed=0)
        assert v.kind != U.NOT_UNIQUE


def test_nd_strict_mode_flags_origin():
    # d=3 free Brownian: Bessel-3 comparison has an entrance boundary at 0,
    # so the literal two-endpoint hypothesis fails there
    op = make_operator_nd(3, ["0", "0", "0"], "0")
    v = U.uniqueness_nd(op, (1.0,), mode=U.STRICT_THEOREM, seed=3)
    assert v.kind == U.INCONCLUSIVE
    assert any("entrance boundary at 0" in d for d in v.diagnostics)


def test_radial_reduce_closed_form():
    # beta = 0, d = 3 comparison operator: a=1/2, b=(d-1)/(2r)=1/r
    from diffuniq.operator import radial_bound
    op = make_operator_nd(3, ["0", "0", "0"], "0", beta_override="0")
    rb = radial_bound(op, np.geomspace(1e-3, 256.0, 64))
    op1 = U.radial_reduce(rb, 3, op.V)
    for r in (0.1, 1.0, 7.0):
        assert op1.b(r) == pytest.approx(1.0 / r, rel=1e-12)
        assert op1.a(r) == 0.5
